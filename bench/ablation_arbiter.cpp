// Ablation: the switch arbiter. Same dynamic scenario, four policies —
// never switch (static PipeDream), always switch on any predicted gain,
// a fixed-gain threshold, and the RL arbiter trained offline on randomized
// episodes. The RL policy's job is to beat "always" (which thrashes under
// churn) while staying close to the best fixed threshold without tuning.
#include <iostream>

#include "bench_common.hpp"
#include "scenario/training.hpp"

using namespace autopipe;

namespace {

double run_policy(core::ControllerConfig::ArbiterMode mode,
                  rl::DqnAgent* agent, const std::string& label) {
  bench::Testbed t = bench::make_testbed(25);
  scenario::Job job;
  job.model = models::vgg16();
  job.controller = scenario::default_controller();
  job.controller->arbiter_mode = mode;
  job.controller->decision_interval = 3;
  job.agent = agent;
  job.iterations = 100;
  job.warmup = 20;

  // Regime changes that persist (the case re-configuration exists for),
  // with one short-lived dip that a good arbiter should ride out.
  sim::ResourceTrace trace;
  trace.at_iteration(12, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  for (sim::WorkerId w : {0u, 1u, 2u, 3u})
    trace.at_iteration(40, sim::ResourceTrace::add_gpu_job(w));
  trace.at_iteration(64, sim::ResourceTrace::set_all_nic_bandwidth(gbps(8)));
  trace.at_iteration(70, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  return bench::run_job(t, std::move(job), &trace, label).throughput;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  // Train the RL arbiter offline on randomized episodes (analytic
  // predictor; small budget keeps the bench fast).
  const core::FeatureEncoder encoder;
  rl::DqnConfig dc;
  dc.state_dim = encoder.arbiter_dim();
  rl::DqnAgent agent(dc, 77);
  const auto training =
      core::train_arbiter_offline(agent, models::resnet50(), 24, 30, 99);
  agent.begin_online_adaptation();

  TextTable table({"arbiter", "throughput (img/s)"});
  table.add_row({"never switch (static)",
                 TextTable::num(run_policy(
                     core::ControllerConfig::ArbiterMode::kNeverSwitch,
                     nullptr, "never"), 1)});
  table.add_row({"always switch",
                 TextTable::num(run_policy(
                     core::ControllerConfig::ArbiterMode::kAlwaysSwitch,
                     nullptr, "always"), 1)});
  table.add_row({"threshold (5% gain)",
                 TextTable::num(run_policy(
                     core::ControllerConfig::ArbiterMode::kThreshold,
                     nullptr, "threshold"), 1)});
  table.add_row({"RL (offline-trained)",
                 TextTable::num(run_policy(
                     core::ControllerConfig::ArbiterMode::kRl, &agent, "rl"),
                 1)});
  table.print(std::cout,
              "Ablation — switch arbiter under persistent regime changes "
              "(VGG16, 25 Gbps)");
  std::cout << "\n(offline training: " << training.episodes << " episodes, "
            << training.total_switches << " exploratory switches)\n";
  return bench::exit_status();
}
