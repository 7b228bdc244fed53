// Ablation: fine-grained state switching (§4.4) vs the stop-the-world
// straw-man of §3.1. Same partitions, same switch points; only the
// migration mechanism differs. Fine-grained keeps the pipeline running by
// migrating the stash-ordered weight copies while training continues.
#include <iostream>

#include "bench_common.hpp"

using namespace autopipe;

namespace {

struct Outcome {
  double throughput = 0.0;
  double stall = 0.0;
};

Outcome run_with(pipeline::PipelineExecutor::SwitchMode mode,
                 const std::string& label) {
  bench::Testbed t = bench::make_testbed(25);
  scenario::Job job;
  job.model = models::vgg16();
  job.controller = scenario::default_controller();
  job.controller->decision_interval = 3;
  job.controller->switch_mode = mode;
  job.iterations = 50;
  job.warmup = 8;

  sim::ResourceTrace trace;
  trace.at_iteration(10, sim::ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  trace.at_iteration(30, sim::ResourceTrace::set_all_nic_bandwidth(gbps(40)));
  const auto& report = bench::run_job(t, std::move(job), &trace, label);
  return Outcome{report.throughput, report.switch_stall};
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  const Outcome fine = run_with(
      pipeline::PipelineExecutor::SwitchMode::kFineGrained, "fine_grained");
  const Outcome stop = run_with(
      pipeline::PipelineExecutor::SwitchMode::kStopTheWorld, "stop_the_world");

  TextTable table({"switching", "throughput (img/s)",
                   "injection stall (s)"});
  table.add_row({"fine-grained (AutoPipe)", TextTable::num(fine.throughput, 1),
                 TextTable::num(fine.stall, 3)});
  table.add_row({"stop-the-world", TextTable::num(stop.throughput, 1),
                 TextTable::num(stop.stall, 3)});
  table.print(std::cout,
              "Ablation — state-switching mechanism (VGG16, two bandwidth "
              "changes)");
  std::cout << "\nFine-grained switching avoids the drain + refill bubble: "
            << TextTable::num(bench::speedup_pct(fine.throughput,
                                                 stop.throughput), 1)
            << "% higher throughput here.\n";
  return bench::exit_status();
}
