// Dynamic shared-cluster walkthrough: train ResNet50 while other tenants
// come and go (scripted and stochastic), with the full AutoPipe loop —
// profiler, resource monitor, re-planner, fine-grained switching — narrated
// iteration by iteration.
//
//   ./examples/dynamic_cluster [seed]
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "models/zoo.hpp"
#include "scenario/world.hpp"
#include "sim/background.hpp"
#include "sim/trace.hpp"

using namespace autopipe;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                      : 2024;

  // A 25 Gbps testbed with stochastic background churn on top of two
  // scripted events.
  scenario::Spec spec;
  spec.cluster.nic_bandwidth = gbps(25);
  spec.job.model = models::resnet50();
  spec.job.controller = scenario::default_controller();
  spec.job.iterations = 90;
  spec.job.warmup = 10;
  scenario::World world(std::move(spec));

  sim::BackgroundWorkloadConfig churn;
  churn.gpu_job_rate = 0.01;
  churn.net_job_rate = 0.01;
  churn.horizon = 120.0;
  sim::BackgroundWorkload background(churn, Rng(seed));
  background.install(world.simulator(), world.cluster());
  std::cout << "background churn: " << background.gpu_jobs()
            << " GPU jobs, " << background.net_jobs() << " network jobs\n";

  world.launch();
  std::cout << "initial plan: " << world.plan()->partition.to_string()
            << "\n\n";
  pipeline::PipelineExecutor& executor = world.executor();

  // Two scripted events on top of the stochastic churn.
  sim::ResourceTrace trace;
  trace.at_iteration(30, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  for (sim::WorkerId w : {0u, 1u, 2u, 3u})
    trace.at_iteration(60, sim::ResourceTrace::add_gpu_job(w));
  world.set_resource_trace(&trace);

  std::size_t last_switches = 0;
  TextTable timeline({"iteration", "img/s (5-iter window)", "partition",
                      "event"});
  std::vector<Seconds> end_times;
  world.set_iteration_observer([&](std::size_t iters) {
    end_times.push_back(world.simulator().now());
    if (iters % 10 == 0 && end_times.size() >= 6) {
      const double window =
          5.0 * executor.batch_size() /
          (end_times.back() - end_times[end_times.size() - 6]);
      std::string event;
      if (iters == 30) event = "bandwidth 25G -> 10G";
      if (iters == 60) event = "+1 job on workers 0-3";
      if (executor.switches_performed() > last_switches) {
        event += (event.empty() ? "" : "; ");
        event += "switched partition";
        last_switches = executor.switches_performed();
      }
      timeline.add_row({std::to_string(iters), TextTable::num(window, 1),
                        executor.current_partition().to_string(), event});
    }
  });

  const scenario::Summary summary = world.run();
  const core::AutoPipeController& controller = *world.controller();
  timeline.print(std::cout, "training timeline");
  std::cout << "\noverall: " << TextTable::num(summary.throughput, 1)
            << " img/s, " << summary.switches << " partition switches, "
            << controller.stats().changes_detected
            << " resource changes detected, decision loop cost "
            << TextTable::num(
                   controller.stats().total_decision_wall_seconds * 1e3, 2)
            << " ms host time\n";
  return 0;
}
