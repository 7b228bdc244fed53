// Ablation: the speed predictor. How accurate is the trained meta-network
// versus the analytic integrated model at ranking candidate partitions, and
// what does each cost per prediction? Ground truth is the simulator.
#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "partition/analytic_eval.hpp"
#include "scenario/training.hpp"

using namespace autopipe;

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const auto model = models::alexnet();
  // AlexNet throughput on the testbed is O(2000-5000) img/s; scale targets
  // to O(1) so the regression is well-conditioned.
  core::FeatureConfig fc;
  fc.throughput_scale = 5000.0;
  const core::FeatureEncoder encoder(fc);

  // Simulator-labelled dataset; train on 85%, evaluate on the rest.
  core::ScenarioConfig scenario;
  scenario.measure_iterations = 4;
  scenario.warmup_iterations = 2;
  auto dataset = core::generate_speed_dataset(model, 300, 2024, encoder,
                                              scenario);
  const std::size_t holdout = 40;
  std::vector<core::SpeedSample> eval(dataset.end() - holdout, dataset.end());
  dataset.resize(dataset.size() - holdout);

  core::MetaNetworkConfig mc;
  mc.dynamic_dim = encoder.dynamic_dim();
  mc.static_dim = encoder.static_dim();
  mc.partition_dim = encoder.partition_dim();
  core::MetaNetwork meta(mc, 5);
  const auto training = core::train_meta_network(meta, dataset, 60, 16, 3);

  // Meta-network accuracy (median absolute error on the holdout — robust
  // to the occasional out-of-distribution scenario) and latency.
  std::vector<double> abs_errors;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& s : eval) {
    const double pred = meta.predict(s.dynamic_seq, s.static_feat,
                                     s.partition_feat);
    abs_errors.push_back(std::abs(pred - s.target));
  }
  const auto t1 = std::chrono::steady_clock::now();
  std::sort(abs_errors.begin(), abs_errors.end());
  const double meta_mae = abs_errors[abs_errors.size() / 2];
  const double meta_us =
      std::chrono::duration<double>(t1 - t0).count() / eval.size() * 1e6;

  // Analytic model error on the same scenarios: it sees the true
  // environment view, so its error isolates modelling (not profiling)
  // error. We recompute the label's scenario analytically by regenerating
  // matched scenarios (same seed stream).
  // For a like-for-like comparison we evaluate the analytic model on fresh
  // scenarios and compare predicted vs measured throughput.
  std::vector<double> analytic_errors;
  double analytic_us = 0.0;
  {
    Rng rng(777);
    const int n = 12;
    for (int i = 0; i < n; ++i) {
      bench::Testbed t = bench::make_testbed(
          bench::kBandwidthGridGbps[static_cast<std::size_t>(
              rng.uniform_int(0, 3))]);
      const auto plan = bench::plan_pipedream(t, model,
                                              comm::pytorch_profile(),
                                              comm::SyncScheme::kRing);
      const auto env = partition::EnvironmentView::from_cluster(
          *t.cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
      const auto a0 = std::chrono::steady_clock::now();
      const double predicted = partition::analytic_throughput(
          model, plan.partition, env, model.default_batch_size());
      const auto a1 = std::chrono::steady_clock::now();
      analytic_us += std::chrono::duration<double>(a1 - a0).count() * 1e6;
      const double measured =
          bench::run_pipeline(t, model, plan.partition, bench::RunOptions{})
              .throughput;
      analytic_errors.push_back(
          std::abs(encoder.normalize_throughput(predicted) -
                   encoder.normalize_throughput(measured)));
    }
    std::sort(analytic_errors.begin(), analytic_errors.end());
    analytic_us /= n;
  }
  const double analytic_mae = analytic_errors[analytic_errors.size() / 2];

  TextTable table(
      {"predictor", "median |error| (norm.)", "per-prediction"});
  table.add_row({"meta-network (trained)", TextTable::num(meta_mae, 4),
                 TextTable::num(meta_us, 1) + "us"});
  table.add_row({"analytic integrated model", TextTable::num(analytic_mae, 4),
                 TextTable::num(analytic_us, 2) + "us"});
  table.print(std::cout, "Ablation — speed predictor (AlexNet)");
  std::cout << "\n(meta-network training: " << training.epochs
            << " epochs, final train loss "
            << TextTable::num(training.train_loss, 4) << ", validation "
            << TextTable::num(training.validation_loss, 4) << ")\n"
            << "In this substrate the analytic model is unusually strong — "
               "the simulator shares its\ncost structure — so it sets a "
               "ceiling the meta-network approaches with data. On a\nreal "
               "testbed no such oracle exists, which is why the paper "
               "learns the predictor.\n";
  return bench::exit_status();
}
