// AutoPipe as an enhancement layer for other pipeline systems (the Fig 13
// usage): run BERT-48 under the DAPPLE, Chimera and PipeDream-2BW schedules
// with and without the AutoPipe controller attached, in a shared cluster
// that degrades mid-run.
//
//   ./examples/enhance_pipeline
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "models/zoo.hpp"
#include "partition/partition.hpp"
#include "scenario/world.hpp"
#include "sim/trace.hpp"

using namespace autopipe;

namespace {

double run(pipeline::ScheduleMode mode, bool enhanced) {
  scenario::Spec spec;
  spec.cluster.nic_bandwidth = gbps(100);
  spec.job.model = models::bert48();
  // These systems target structurally uniform models and split evenly.
  spec.job.partition = partition::Partition::even_split(
      spec.job.model.num_layers(), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  spec.job.executor.mode = mode;
  spec.job.executor.micro_batches = 8;
  if (enhanced) spec.job.controller = scenario::default_controller();
  spec.job.iterations = 80;
  spec.job.warmup = 30;
  scenario::World world(std::move(spec));

  sim::ResourceTrace trace;
  trace.at_iteration(12, sim::ResourceTrace::set_nic_bandwidth(0, gbps(25)));
  trace.at_iteration(12, sim::ResourceTrace::set_nic_bandwidth(1, gbps(25)));
  for (sim::WorkerId w : {4u, 5u, 6u, 7u})
    trace.at_iteration(24, sim::ResourceTrace::add_gpu_job(w));
  world.set_resource_trace(&trace);
  return world.run().throughput;
}

}  // namespace

int main() {
  TextTable table({"schedule", "vanilla (seq/s)", "AutoPipe-enhanced",
                   "gain"});
  const std::pair<const char*, pipeline::ScheduleMode> systems[] = {
      {"DAPPLE", pipeline::ScheduleMode::kDapple},
      {"Chimera", pipeline::ScheduleMode::kChimera},
      {"PipeDream-2BW", pipeline::ScheduleMode::kTwoBW},
  };
  for (const auto& [name, mode] : systems) {
    const double vanilla = run(mode, false);
    const double enhanced = run(mode, true);
    table.add_row({name, TextTable::num(vanilla, 1),
                   TextTable::num(enhanced, 1),
                   TextTable::num((enhanced / vanilla - 1.0) * 100.0, 1) +
                       "%"});
  }
  table.print(std::cout,
              "AutoPipe-enhanced pipeline systems (BERT-48, dynamic shared "
              "cluster)");
  return 0;
}
