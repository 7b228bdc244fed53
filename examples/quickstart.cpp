// Quickstart: plan a pipeline with PipeDream's DP, train it on the
// simulated cluster through a mid-run bandwidth drop, and compare the
// static plan with AutoPipe (analytic predictor + threshold arbiter — no
// pre-trained networks needed) re-partitioning on the fly.
//
//   ./examples/quickstart
#include <iostream>

#include "common/units.hpp"
#include "models/zoo.hpp"
#include "scenario/world.hpp"
#include "sim/trace.hpp"

using namespace autopipe;

namespace {

/// VGG16 on the paper's testbed (5 servers x 2 P100 at 25 Gbps), starting
/// from PipeDream's one-shot plan. Every NIC drops to 10 Gbps at iteration
/// 40; the speed is measured over the last 40 of 90 iterations.
void train(const char* label, bool autopipe) {
  scenario::Spec spec;
  spec.cluster.nic_bandwidth = gbps(25);
  spec.job.model = models::vgg16();
  if (autopipe) spec.job.controller = scenario::default_controller();
  spec.job.iterations = 90;
  spec.job.warmup = 50;
  scenario::World world(std::move(spec));

  sim::ResourceTrace trace;
  trace.at_iteration(40, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  world.set_resource_trace(&trace);
  const scenario::Summary summary = world.run();
  std::cout << label << ": " << summary.throughput
            << " img/sec after the bandwidth drop (switches: "
            << summary.switches << ")\n"
            << "  partition: "
            << world.executor().current_partition().to_string() << "\n";
}

}  // namespace

int main() {
  train("static PipeDream plan", false);
  train("with AutoPipe", true);
  return 0;
}
