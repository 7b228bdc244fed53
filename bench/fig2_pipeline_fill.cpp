// Fig 2: PipeDream's ideal pipeline fill — startup state vs steady state —
// and the paper's Observation 3 that the ideal needs assumptions that fail
// in practice: (1) negligible communication, (2) uniform layer times,
// (3) FP exactly half of BP. We run the figure's 4-worker uniform pipeline
// in the ideal regime and then with realistic inter-stage communication,
// printing startup time, steady-state period and utilization at PipeDream's
// NOW and above it.
#include <iostream>

#include "bench_common.hpp"
#include "partition/analytic_eval.hpp"

using namespace autopipe;

namespace {

models::ModelSpec fig2_model() {
  // Four uniform layers; BP costs exactly twice FP, as drawn in the figure.
  std::vector<models::LayerSpec> specs;
  for (int l = 0; l < 4; ++l) {
    models::LayerSpec s;
    s.name = "layer" + std::to_string(l);
    s.fwd_flops_per_sample = 1e9;
    s.bwd_flops_per_sample = 2e9;
    s.activation_bytes_per_sample = 256.0 * 1024.0;  // 4 MiB per batch of 16
    s.param_bytes = 1e6;
    specs.push_back(std::move(s));
  }
  return models::ModelSpec("fig2-uniform", 16, std::move(specs));
}

void fill_table(double bandwidth_gbps, const std::string& title) {
  const auto model = fig2_model();
  const auto partition = partition::Partition::even_split(4, {0, 2, 4, 6});
  TextTable table({"in-flight", "startup time (s)", "steady period (s)",
                   "steady img/s", "utilization"});
  for (std::size_t in_flight : {4u, 5u, 6u}) {
    bench::Testbed testbed = bench::make_testbed(bandwidth_gbps);
    scenario::Job job;
    job.model = model;
    job.partition = partition;
    job.executor.framework.per_layer_overhead = 0.0;
    job.executor.framework.comm_efficiency = 1.0;
    job.executor.framework.compute_efficiency = 1.0;
    job.executor.in_flight = in_flight;
    job.iterations = 40;
    job.warmup = 20;
    const auto& report = bench::run_job(
        testbed, std::move(job), nullptr,
        std::to_string(static_cast<int>(bandwidth_gbps)) + "gbps_inflight" +
            std::to_string(in_flight));
    const double startup = report.iteration_end_times.empty()
                               ? 0.0
                               : report.iteration_end_times.front();
    double steady_gap = 0.0;
    if (report.iteration_end_times.size() >= 2) {
      steady_gap =
          report.iteration_end_times.back() -
          report.iteration_end_times[report.iteration_end_times.size() - 2];
    }
    table.add_row({std::to_string(in_flight), TextTable::num(startup, 4),
                   TextTable::num(steady_gap, 4),
                   TextTable::num(report.throughput, 1),
                   TextTable::num(report.worker_utilization, 3)});
  }
  table.print(std::cout, title);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  fill_table(100,
             "Fig 2 (ideal) — 4 workers, FP = BP/2, negligible communication "
             "(100 Gbps)");
  std::cout << '\n';
  fill_table(5,
             "Fig 2 (practice) — same pipeline with real inter-stage "
             "communication (5 Gbps)");
  std::cout
      << "\nObservation 3: the ideal fill needs negligible communication, "
         "uniform layers and\nFP = BP/2. With real transfer times the steady "
         "period stretches beyond the compute\nbottleneck and utilization "
         "drops — extra in-flight batches recover only part of it.\n";
  return bench::exit_status();
}
