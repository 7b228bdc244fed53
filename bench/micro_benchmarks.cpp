// Google-benchmark micro-benchmarks for the hot paths: the event engine,
// max-min re-rating, the DP planner, neighbourhood enumeration, meta-network
// inference and one executor iteration. These bound the runtime overhead
// AutoPipe adds to a training job (the paper reports < 1% CPU).
#include <benchmark/benchmark.h>

#include "autopipe/features.hpp"
#include "common/profile.hpp"
#include "autopipe/meta_network.hpp"
#include "models/zoo.hpp"
#include "partition/neighborhood.hpp"
#include "partition/pipedream_planner.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"
#include "sim/flow_network.hpp"

using namespace autopipe;

namespace {

void BM_SimulatorEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i)
      sim.at(static_cast<Seconds>(i) * 1e-3, [&fired] { ++fired; });
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_SimulatorEventChurn);

void BM_SimulatorFatCaptureChurn(benchmark::State& state) {
  // Captures past std::function's ~16-byte SBO but inside the simulator's
  // 48-byte inline budget — the case the small-buffer callback exists for.
  for (auto _ : state) {
    sim::Simulator sim;
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) {
      const double a = i * 1.0, b = i * 2.0, c = i * 3.0, d = i * 4.0;
      sim.at(static_cast<Seconds>(i) * 1e-3,
             [&acc, a, b, c, d] { acc += a + b + c + d; });
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SimulatorFatCaptureChurn);

void BM_EventQueueWheel(benchmark::State& state) {
  // Queue-only churn: isolates push/pop cost from Simulator bookkeeping
  // and callback execution. Steady-state mix — a warm backlog of 256
  // events, then interleaved push/pop pairs walking time forward.
  for (auto _ : state) {
    sim::TimingWheelEventQueue q;
    std::uint64_t seq = 0;
    for (int i = 0; i < 256; ++i)
      q.push(sim::SimEvent{static_cast<Seconds>(i) * 1e-3, seq++, {}, nullptr});
    Seconds horizon = 0.256;
    for (int i = 0; i < 1000; ++i) {
      const sim::SimEvent ev = q.pop();
      benchmark::DoNotOptimize(ev.time);
      q.push(sim::SimEvent{horizon, seq++, {}, nullptr});
      horizon += 1e-3;
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().time);
  }
}
BENCHMARK(BM_EventQueueWheel);

void BM_FlowNetworkRerate(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  sim::FlowNetwork net(sim);
  std::vector<sim::ResourceId> resources;
  for (int i = 0; i < 10; ++i)
    resources.push_back(net.add_resource("r", 1e9));
  for (std::size_t f = 0; f < flows; ++f) {
    net.start_flow({{resources[f % 10], resources[(f + 3) % 10]}, 1e15,
                    nullptr});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    // Each capacity change triggers a full max-min re-rate.
    net.set_capacity(resources[i % 10], (i % 2) ? 5e8 : 1e9);
    ++i;
  }
  state.SetLabel(std::to_string(flows) + " flows");
}
BENCHMARK(BM_FlowNetworkRerate)->Arg(8)->Arg(32)->Arg(128);

void BM_PipeDreamPlanner(benchmark::State& state) {
  const auto model = models::resnet50();
  partition::EnvironmentView env;
  env.worker_speed.assign(10, tflops(4));
  env.worker_bandwidth.assign(10, gbps(25));
  for (auto _ : state) {
    partition::PipeDreamPlanner planner(model, env, 128);
    benchmark::DoNotOptimize(planner.plan(10));
  }
}
BENCHMARK(BM_PipeDreamPlanner);

void BM_NeighborhoodEnumeration(benchmark::State& state) {
  const auto model = models::resnet50();
  const auto p = partition::Partition::even_split(
      model.num_layers(), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::two_worker_candidates(p));
  }
}
BENCHMARK(BM_NeighborhoodEnumeration);

void BM_MetaNetworkPredict(benchmark::State& state) {
  const core::FeatureEncoder encoder;
  core::MetaNetworkConfig mc;
  mc.dynamic_dim = encoder.dynamic_dim();
  mc.static_dim = encoder.static_dim();
  mc.partition_dim = encoder.partition_dim();
  core::MetaNetwork meta(mc, 1);
  const std::vector<std::vector<double>> seq(
      8, std::vector<double>(encoder.dynamic_dim(), 0.4));
  const std::vector<double> st(encoder.static_dim(), 0.4);
  const std::vector<double> pf(encoder.partition_dim(), 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(meta.predict(seq, st, pf));
  }
}
BENCHMARK(BM_MetaNetworkPredict);

void BM_ProfilerSpanOverhead(benchmark::State& state) {
  // The cost of leaving PROF_SPAN in a hot path. Arg(0) measures the
  // disabled case — one relaxed load and a branch, the ≤2 ns budget quoted
  // in docs/TELEMETRY.md — and Arg(1) the full record path. The recording
  // buffer is drained periodically so the enabled case measures appends,
  // not allocation-driven regrowth of an unbounded vector.
  const bool enabled = state.range(0) != 0;
  prof::reset();
  prof::set_enabled(enabled);
  std::size_t recorded = 0;
  for (auto _ : state) {
    {
      PROF_SPAN("bench/span_overhead");
    }
    if (enabled && ++recorded >= 65536) {
      state.PauseTiming();
      prof::reset();
      recorded = 0;
      state.ResumeTiming();
    }
  }
  prof::set_enabled(false);
  prof::reset();
  state.SetLabel(enabled ? "enabled" : "disabled");
}
BENCHMARK(BM_ProfilerSpanOverhead)->Arg(0)->Arg(1);

void BM_ProfilerAggOverhead(benchmark::State& state) {
  // PROF_SPAN_AGG is the flavour meant for per-event paths (queue push/pop):
  // constant memory, so no periodic drain is needed even when enabled.
  const bool enabled = state.range(0) != 0;
  prof::reset();
  prof::set_enabled(enabled);
  for (auto _ : state) {
    PROF_SPAN_AGG("bench/agg_overhead");
  }
  prof::set_enabled(false);
  prof::reset();
  state.SetLabel(enabled ? "enabled" : "disabled");
}
BENCHMARK(BM_ProfilerAggOverhead)->Arg(0)->Arg(1);

void BM_ExecutorIteration(benchmark::State& state) {
  const auto model = models::alexnet();
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    sim::ClusterConfig cc;
    cc.nic_bandwidth = gbps(25);
    sim::Cluster cluster(sim, cc);
    const auto env = partition::EnvironmentView::from_cluster(
        cluster, comm::pytorch_profile(), comm::SyncScheme::kRing);
    partition::PipeDreamPlanner planner(model, env, 256);
    const auto plan = planner.plan(10);
    pipeline::PipelineExecutor executor(cluster, model, plan.partition,
                                        pipeline::ExecutorConfig{});
    state.ResumeTiming();
    benchmark::DoNotOptimize(executor.run(10, 2));
  }
}
BENCHMARK(BM_ExecutorIteration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
