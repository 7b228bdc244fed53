// Fig 5: a new *distributed* training job joins the shared cluster —
// consuming both GPU time (one extra tenant per device) and bandwidth (one
// persistent flow per NIC). "Actual" keeps PipeDream's exclusive-era plan;
// "Optimal" re-plans for the shared environment.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"

using namespace autopipe;
using bench::RunOptions;

namespace {

struct Pair {
  double actual = 0.0;
  double optimal = 0.0;
};

/// The joining job is placed on servers 3 and 4 (fluctuations are
/// localized, §3.1): +1 tenant on their GPUs and half their NIC capacity.
void apply_join(bench::Testbed& t) {
  for (std::size_t server : {3u, 4u}) {
    t.cluster->set_nic_bandwidth(server,
                                 t.cluster->nic_bandwidth(server) * 0.5);
    for (std::size_t g = 0; g < t.cluster->config().gpus_per_server; ++g)
      t.cluster->add_background_job(server * t.cluster->config().gpus_per_server + g);
  }
}

Pair measure(const models::ModelSpec& model, double bandwidth_gbps) {
  Pair out;
  {
    bench::Testbed t = bench::make_testbed(bandwidth_gbps);
    const auto plan = bench::plan_pipedream(t, model, comm::pytorch_profile(),
                                            comm::SyncScheme::kRing);
    apply_join(t);  // the new distributed job arrives
    out.actual = bench::run_pipeline(t, model, plan.partition, RunOptions{})
                     .throughput;
  }
  {
    bench::Testbed t = bench::make_testbed(bandwidth_gbps);
    apply_join(t);
    // Re-plan with the heterogeneous contended environment visible.
    const auto plan = bench::plan_refined(t, model, comm::pytorch_profile(),
                                          comm::SyncScheme::kRing);
    out.optimal = bench::run_pipeline(t, model, plan.partition, RunOptions{})
                      .throughput;
  }
  // The "optimal" configuration is whichever of the two plans executes
  // better in the changed environment — an oracle never adopts a worse one.
  out.optimal = std::max(out.optimal, out.actual);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  {
    TextTable table({"model", "actual (img/s)", "optimal (img/s)",
                     "degradation"});
    for (const auto& model : models::image_models()) {
      const Pair p = measure(model, 25);
      table.add_row({model.name(), TextTable::num(p.actual, 1),
                     TextTable::num(p.optimal, 1),
                     TextTable::num(bench::speedup_pct(p.optimal, p.actual), 1) +
                         "%"});
    }
    table.print(std::cout,
                "Fig 5a — new distributed job joins, model axis (25 Gbps)");
  }
  std::cout << '\n';
  {
    TextTable table({"network", "actual (img/s)", "optimal (img/s)",
                     "degradation"});
    const auto model = models::resnet50();
    for (double bw : bench::kBandwidthGridGbps) {
      const Pair p = measure(model, bw);
      table.add_row({TextTable::num(bw, 0) + "Gbps",
                     TextTable::num(p.actual, 1),
                     TextTable::num(p.optimal, 1),
                     TextTable::num(bench::speedup_pct(p.optimal, p.actual), 1) +
                         "%"});
    }
    table.print(std::cout,
                "Fig 5b — new distributed job joins, network axis (ResNet50)");
  }
  std::cout << "\nPaper's shape: joint bandwidth+GPU contention causes the "
               "largest degradations\n(36-60% in the paper's ResNet50/100Gbps "
               "cell).\n";
  return bench::exit_status();
}
