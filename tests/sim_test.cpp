// Tests for the discrete-event substrate: event ordering, the max-min fair
// flow network (including a property sweep), the GPU executor under
// contention changes, the cluster topology and resource traces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/background.hpp"
#include "sim/cluster.hpp"
#include "sim/flow_network.hpp"
#include "sim/gpu.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace autopipe::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(2.0, [&] { order.push_back(2); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, TieBreakIsFifo) {
  Simulator sim;
  std::vector<int> order;
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunUntilAdvancesClock) {
  Simulator sim;
  bool fired = false;
  sim.at(5.0, [&] { fired = true; });
  sim.run_until(3.0);
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run_until(6.0);
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 6.0);
}

TEST(Simulator, RunUntilRunsEventsScheduledAtExactlyT) {
  // An event firing at t may schedule more work at exactly t; run_until(t)
  // must drain that cascade before pinning the clock, or the events would be
  // stranded in the past.
  Simulator sim;
  int fired = 0;
  sim.at(2.0, [&] {
    ++fired;
    sim.at(2.0, [&] {
      ++fired;
      sim.after(0.0, [&] { ++fired; });
    });
  });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(sim.empty());
  EXPECT_NEAR(sim.now(), 2.0, 1e-12);
}

TEST(Simulator, RunUntilToleratesFloatDriftAtBoundary) {
  // 0.1 * 3 != 0.3 in binary floating point; an event whose time was built
  // by repeated addition must still count as "no later than" run_until(0.3).
  Simulator sim;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 3) sim.after(0.1, tick);
  };
  sim.after(0.1, tick);
  sim.run_until(0.1 + 0.1);  // fires events 1 and 2
  EXPECT_EQ(fired, 2);
  sim.run_until(0.3);  // event 3 sits a few ulps past 0.3
  EXPECT_EQ(fired, 3);
  // And the pinned clock must not break a subsequent run_until at the same
  // nominal time.
  sim.run_until(0.3);
  EXPECT_NEAR(sim.now(), 0.3, 1e-9);
}

TEST(Simulator, CallbacksCanSchedule) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.after(1.0, tick);
  };
  sim.after(1.0, tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.at(1.0, [] {}), contract_error);
}

// ---------------------------------------------------------------------------
// Flow network
// ---------------------------------------------------------------------------

TEST(FlowNetwork, SingleFlowTakesBytesOverCapacity) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);  // 100 B/s
  Seconds done_at = -1;
  net.start_flow({{r}, 500.0, [&] { done_at = sim.now(); }});
  sim.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);
  EXPECT_NEAR(net.total_bytes_delivered(), 500.0, 1e-6);
}

TEST(FlowNetwork, TwoFlowsShareFairly) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  Seconds t1 = -1, t2 = -1;
  net.start_flow({{r}, 100.0, [&] { t1 = sim.now(); }});
  net.start_flow({{r}, 100.0, [&] { t2 = sim.now(); }});
  sim.run();
  // Each gets 50 B/s: both finish at t=2.
  EXPECT_NEAR(t1, 2.0, 1e-9);
  EXPECT_NEAR(t2, 2.0, 1e-9);
}

TEST(FlowNetwork, ShortFlowFinishesThenLongSpeedsUp) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  Seconds t_short = -1, t_long = -1;
  net.start_flow({{r}, 50.0, [&] { t_short = sim.now(); }});
  net.start_flow({{r}, 150.0, [&] { t_long = sim.now(); }});
  sim.run();
  // Shared 50/50 until t=1 (short done, long has 100 left), then full rate:
  // long finishes at 1 + 100/100 = 2.
  EXPECT_NEAR(t_short, 1.0, 1e-9);
  EXPECT_NEAR(t_long, 2.0, 1e-9);
}

TEST(FlowNetwork, MaxMinRespectsPerFlowBottleneck) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto wide = net.add_resource("wide", 100.0);
  const auto narrow = net.add_resource("narrow", 10.0);
  // Flow A crosses both; flow B only the wide one.
  const auto a = net.start_flow({{wide, narrow}, 1000.0, nullptr});
  const auto b = net.start_flow({{wide}, 1000.0, nullptr});
  // A is pinned to 10 by the narrow link; B picks up the slack: 90.
  EXPECT_NEAR(net.flow_rate(a), 10.0, 1e-9);
  EXPECT_NEAR(net.flow_rate(b), 90.0, 1e-9);
}

TEST(FlowNetwork, CapacityChangeReratesInFlight) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  Seconds done_at = -1;
  net.start_flow({{r}, 200.0, [&] { done_at = sim.now(); }});
  sim.at(1.0, [&] { net.set_capacity(r, 50.0); });
  sim.run();
  // 100 bytes in the first second, the rest at 50 B/s: 1 + 100/50 = 3.
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(FlowNetwork, ZeroCapacityStallsUntilRestored) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  Seconds done_at = -1;
  net.start_flow({{r}, 100.0, [&] { done_at = sim.now(); }});
  sim.at(0.5, [&] { net.set_capacity(r, 0.0); });
  sim.at(2.5, [&] { net.set_capacity(r, 100.0); });
  sim.run();
  // 50 bytes by 0.5, stalled 2 seconds, 50 more in 0.5: done at 3.0.
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(FlowNetwork, CancelPreventsCompletion) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  bool fired = false;
  const auto id = net.start_flow({{r}, 100.0, [&] { fired = true; }});
  sim.at(0.5, [&] { net.cancel_flow(id); });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_flow_count(), 0u);
}

TEST(FlowNetwork, ZeroByteFlowCompletesImmediately) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  bool fired = false;
  net.start_flow({{r}, 0.0, [&] { fired = true; }});
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(FlowNetwork, DuplicateResourceInPathThrows) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto r = net.add_resource("link", 100.0);
  EXPECT_THROW(net.start_flow({{r, r}, 10.0, nullptr}), contract_error);
}

TEST(FlowNetwork, PathValidationScansTheWholePath) {
  Simulator sim;
  FlowNetwork net(sim);
  const auto a = net.add_resource("nic0", 100.0);
  const auto b = net.add_resource("link", 100.0);
  const auto c = net.add_resource("nic1", 100.0);
  // A repeat that is not adjacent, and a resource the network never added.
  EXPECT_THROW(net.start_flow({{a, b, c, a}, 10.0, nullptr}), contract_error);
  EXPECT_THROW(net.start_flow({{a, b, c + 1}, 10.0, nullptr}), contract_error);
  EXPECT_NO_THROW(net.start_flow({{a, b, c}, 10.0, nullptr}));
}

/// Property sweep: for random topologies and flow sets, the max-min
/// allocation must (a) never oversubscribe a resource and (b) leave no flow
/// below a share it could claim without displacing anyone (max-min
/// feasibility: every flow is bottlenecked by some saturated resource).
class FlowNetworkProperty : public ::testing::TestWithParam<int> {};

TEST_P(FlowNetworkProperty, MaxMinAllocationIsFeasibleAndSaturating) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Simulator sim;
  FlowNetwork net(sim);
  const std::size_t R = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  std::vector<ResourceId> resources;
  for (std::size_t i = 0; i < R; ++i)
    resources.push_back(
        net.add_resource("r" + std::to_string(i), rng.uniform(10.0, 200.0)));

  const std::size_t F = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
  std::vector<FlowId> flows;
  std::vector<std::vector<ResourceId>> paths;
  for (std::size_t f = 0; f < F; ++f) {
    std::vector<ResourceId> path;
    for (ResourceId r : resources)
      if (rng.chance(0.5)) path.push_back(r);
    if (path.empty()) path.push_back(resources[0]);
    paths.push_back(path);
    flows.push_back(net.start_flow({path, 1e9, nullptr}));
  }

  // (a) No resource oversubscribed.
  for (ResourceId r : resources)
    EXPECT_LE(net.resource_load(r), net.capacity(r) + 1e-6);
  // (b) Every flow is limited by at least one saturated resource.
  for (std::size_t f = 0; f < F; ++f) {
    bool bottlenecked = false;
    for (ResourceId r : paths[f]) {
      if (net.resource_load(r) >= net.capacity(r) - 1e-6) bottlenecked = true;
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f << " rate "
                              << net.flow_rate(flows[f]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, FlowNetworkProperty,
                         ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// GPU executor
// ---------------------------------------------------------------------------

TEST(GpuExecutor, TaskDurationMatchesThroughput) {
  Simulator sim;
  GpuExecutor gpu(sim, GpuSpec{"test", 100.0, gib(16)});  // 100 FLOP/s
  Seconds done_at = -1;
  gpu.submit(500.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);
  EXPECT_NEAR(gpu.total_flops_done(), 500.0, 1e-6);
  EXPECT_NEAR(gpu.busy_time(), 5.0, 1e-9);
}

TEST(GpuExecutor, FifoOrdering) {
  Simulator sim;
  GpuExecutor gpu(sim, GpuSpec{"test", 100.0, gib(16)});
  std::vector<int> order;
  gpu.submit(100.0, [&] { order.push_back(1); });
  gpu.submit(100.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(GpuExecutor, PriorityOvertakesQueuedWork) {
  Simulator sim;
  GpuExecutor gpu(sim, GpuSpec{"test", 100.0, gib(16)});
  std::vector<int> order;
  gpu.submit(100.0, [&] { order.push_back(1); });       // runs first
  gpu.submit(100.0, [&] { order.push_back(2); });       // queued normal
  gpu.submit_prioritized(100.0, 0.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(GpuExecutor, TenantChangeMidTaskRescales) {
  Simulator sim;
  GpuExecutor gpu(sim, GpuSpec{"test", 100.0, gib(16)});
  Seconds done_at = -1;
  gpu.submit(200.0, [&] { done_at = sim.now(); });
  sim.at(1.0, [&] { gpu.set_tenant_count(2); });  // half speed from t=1
  sim.run();
  // 100 FLOPs by t=1; remaining 100 at 50 FLOP/s: done at 3.0.
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(GpuExecutor, FixedOverheadUnaffectedByTenancy) {
  Simulator sim;
  GpuExecutor gpu(sim, GpuSpec{"test", 100.0, gib(16)});
  gpu.set_tenant_count(4);
  Seconds done_at = -1;
  gpu.submit(100.0, 2.0, [&] { done_at = sim.now(); });
  sim.run();
  // 2s fixed + 100 FLOPs at 25 FLOP/s = 2 + 4 = 6.
  EXPECT_NEAR(done_at, 6.0, 1e-9);
}

TEST(GpuExecutor, ThroughputScale) {
  Simulator sim;
  GpuExecutor gpu(sim, GpuSpec{"test", 100.0, gib(16)});
  gpu.set_throughput_scale(0.5);
  EXPECT_DOUBLE_EQ(gpu.effective_throughput(), 50.0);
}

TEST(GpuExecutor, PresetSpecsOrdered) {
  EXPECT_LT(p100_spec().throughput, v100_spec().throughput);
  EXPECT_LT(v100_spec().throughput, a100_spec().throughput);
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

TEST(Cluster, TopologyAndPaths) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  EXPECT_EQ(cluster.num_workers(), 10u);
  EXPECT_EQ(cluster.server_of(0), 0u);
  EXPECT_EQ(cluster.server_of(1), 0u);
  EXPECT_EQ(cluster.server_of(2), 1u);
  // Same-server pair: single PCIe hop.
  EXPECT_EQ(cluster.path(0, 1).size(), 1u);
  // Cross-server: tx + rx.
  EXPECT_EQ(cluster.path(0, 2).size(), 2u);
  // Same worker: free.
  EXPECT_TRUE(cluster.path(3, 3).empty());
}

TEST(Cluster, CrossServerTransferUsesNicBandwidth) {
  Simulator sim;
  ClusterConfig config;
  config.nic_bandwidth = 100.0;  // 100 B/s for easy arithmetic
  Cluster cluster(sim, config);
  Seconds done_at = -1;
  cluster.transfer(0, 2, 300.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(Cluster, SameWorkerTransferIsFree) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  Seconds done_at = -1;
  cluster.transfer(4, 4, 1e12, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(Cluster, BackgroundJobsChangeTenancy) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  EXPECT_EQ(cluster.gpu(3).tenant_count(), 1);
  cluster.add_background_job(3);
  EXPECT_EQ(cluster.gpu(3).tenant_count(), 2);
  cluster.remove_background_job(3);
  EXPECT_EQ(cluster.gpu(3).tenant_count(), 1);
  EXPECT_THROW(cluster.remove_background_job(3), contract_error);
}

TEST(Cluster, NicBandwidthUpdates) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  cluster.set_nic_bandwidth(1, gbps(10));
  EXPECT_DOUBLE_EQ(cluster.nic_bandwidth(1), gbps(10));
  cluster.set_all_nic_bandwidth(gbps(40));
  for (std::size_t s = 0; s < cluster.num_servers(); ++s)
    EXPECT_DOUBLE_EQ(cluster.nic_bandwidth(s), gbps(40));
}

TEST(Cluster, PerWorkerGpuSpecs) {
  Simulator sim;
  ClusterConfig config;
  config.num_servers = 1;
  config.gpus_per_server = 2;
  config.gpu_specs = {p100_spec(), v100_spec()};
  Cluster cluster(sim, config);
  EXPECT_EQ(cluster.gpu(0).spec().name, "P100");
  EXPECT_EQ(cluster.gpu(1).spec().name, "V100");
}


TEST(Cluster, TwoTierTopologyRouting) {
  Simulator sim;
  ClusterConfig config;
  config.num_servers = 4;
  config.gpus_per_server = 1;
  config.servers_per_rack = 2;  // racks {0,1} and {2,3}
  config.nic_bandwidth = 100.0;
  config.rack_uplink_bandwidth = 100.0;
  Cluster cluster(sim, config);
  EXPECT_EQ(cluster.num_racks(), 2u);
  EXPECT_EQ(cluster.rack_of_server(1), 0u);
  EXPECT_EQ(cluster.rack_of_server(2), 1u);
  // Intra-rack: nic tx + nic rx only.
  EXPECT_EQ(cluster.path(0, 1).size(), 2u);
  // Cross-rack: nic tx + uplink tx + uplink rx + nic rx.
  EXPECT_EQ(cluster.path(0, 2).size(), 4u);
}

TEST(Cluster, OversubscribedUplinkBottlenecksCrossRackFlows) {
  // 2 servers per rack, NICs at 100 B/s, uplink at 100 B/s: two concurrent
  // cross-rack flows share the uplink (50 each) while two intra-rack flows
  // would run at full NIC rate.
  Simulator sim;
  ClusterConfig config;
  config.num_servers = 4;
  config.gpus_per_server = 1;
  config.servers_per_rack = 2;
  config.nic_bandwidth = 100.0;
  config.rack_uplink_bandwidth = 100.0;
  Cluster cluster(sim, config);
  Seconds t_a = -1, t_b = -1;
  cluster.transfer(0, 2, 100.0, [&] { t_a = sim.now(); });
  cluster.transfer(1, 3, 100.0, [&] { t_b = sim.now(); });
  sim.run();
  // Both bottlenecked by the shared 100 B/s uplink: 2 s each.
  EXPECT_NEAR(t_a, 2.0, 1e-9);
  EXPECT_NEAR(t_b, 2.0, 1e-9);
}

TEST(Cluster, IntraRackUnaffectedByUplink) {
  Simulator sim;
  ClusterConfig config;
  config.num_servers = 4;
  config.gpus_per_server = 1;
  config.servers_per_rack = 2;
  config.nic_bandwidth = 100.0;
  config.rack_uplink_bandwidth = 1.0;  // nearly dead uplink
  Cluster cluster(sim, config);
  Seconds done = -1;
  cluster.transfer(0, 1, 100.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 1.0, 1e-9);  // full NIC rate inside the rack
}

// ---------------------------------------------------------------------------
// Traces and background workload
// ---------------------------------------------------------------------------

TEST(ResourceTrace, TimeAnchoredEventsApply) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  ResourceTrace trace;
  trace.at_time(1.0, ResourceTrace::set_all_nic_bandwidth(gbps(10)));
  trace.at_time(2.0, ResourceTrace::add_gpu_job(0));
  int fired = 0;
  trace.install(sim, cluster, [&](const TraceEvent&) { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(cluster.nic_bandwidth(0), gbps(10));
  EXPECT_EQ(cluster.gpu(0).tenant_count(), 2);
}

TEST(ResourceTrace, IterationAnchoredEventsApplyOnce) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  ResourceTrace trace;
  trace.at_iteration(20, ResourceTrace::add_job_all_gpus());
  EXPECT_EQ(trace.apply_iteration(19, cluster), 0u);
  EXPECT_EQ(trace.apply_iteration(20, cluster), 1u);
  for (WorkerId w = 0; w < cluster.num_workers(); ++w)
    EXPECT_EQ(cluster.gpu(w).tenant_count(), 2);
}

TEST(ResourceTrace, DescribeIsHumanReadable) {
  const auto ev = ResourceTrace::set_all_nic_bandwidth(gbps(25));
  EXPECT_NE(ev.describe().find("25"), std::string::npos);
}

TEST(BackgroundWorkload, DeterministicAndBalanced) {
  Simulator sim;
  Cluster cluster(sim, ClusterConfig{});
  BackgroundWorkloadConfig config;
  config.horizon = 100.0;
  BackgroundWorkload workload(config, Rng(123));
  workload.install(sim, cluster);
  EXPECT_GT(workload.gpu_jobs() + workload.net_jobs(), 0u);
  sim.run();
  // Every arrival paired with a departure: tenancy returns to 1.
  for (WorkerId w = 0; w < cluster.num_workers(); ++w)
    EXPECT_EQ(cluster.gpu(w).tenant_count(), 1);
  for (std::size_t s = 0; s < cluster.num_servers(); ++s)
    EXPECT_NEAR(cluster.nic_bandwidth(s), gbps(100), 1.0);
}

// ---------------------------------------------------------------------------
// Timing-wheel semantics: exact timestamps despite bucketed placement.
// ---------------------------------------------------------------------------

TEST(SimulatorWheel, RunUntilPinsClockInsideABucket) {
  // 0.01000 and 0.01005 share one wheel tick (tick width 1/1024 s ≈
  // 0.977 ms). run_until at a point between them must fire only the first,
  // pin the clock to *exactly* the requested time — not a bucket edge —
  // and leave the later same-bucket event pending.
  Simulator sim;
  std::vector<double> fired;
  sim.at(0.01000, [&] { fired.push_back(sim.now()); });
  sim.at(0.01005, [&] { fired.push_back(sim.now()); });
  sim.run_until(0.01002);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 0.01000);
  EXPECT_EQ(sim.now(), 0.01002);  // bit-exact, not rounded to a tick
  EXPECT_FALSE(sim.empty());
  sim.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], 0.01005);
  EXPECT_EQ(sim.now(), 0.01005);
}

TEST(SimulatorWheel, NonTickAlignedTimesFireExactly) {
  // 1/3 s is not representable as a tick multiple; the event must still
  // fire at the exact double it was scheduled at.
  Simulator sim;
  const Seconds t = 1.0 / 3.0;
  Seconds observed = -1.0;
  sim.at(t, [&] { observed = sim.now(); });
  sim.run();
  EXPECT_EQ(observed, t);  // ==, not NEAR
}

TEST(SimulatorWheel, WatchdogStyleCadenceKeepsExactInstants) {
  // An EMA-watchdog-style self-rescheduling cadence: fires at k * dt with
  // dt a non-tick-aligned period. Accumulated drift must stay within the
  // simulator's own float-slack model — each firing lands on the exact
  // double the previous callback computed.
  Simulator sim;
  const Seconds dt = 0.0007;  // sub-tick period: many events per bucket
  std::vector<Seconds> scheduled;
  std::vector<Seconds> observed;
  std::function<void()> tick = [&] {
    observed.push_back(sim.now());
    if (observed.size() < 50) {
      const Seconds next = sim.now() + dt;
      scheduled.push_back(next);
      sim.after(dt, [&] { tick(); }, "watchdog");
    }
  };
  scheduled.push_back(0.001);
  sim.at(0.001, [&] { tick(); }, "watchdog");
  sim.run();
  ASSERT_EQ(observed.size(), 50u);
  for (std::size_t i = 0; i < observed.size(); ++i)
    EXPECT_EQ(observed[i], scheduled[i]) << "@" << i;
}

TEST(SimulatorWheel, ZeroProgressGuardTripsOnSameInstantSpin) {
  Simulator sim;
  sim.set_zero_progress_bound(64);
  std::function<void()> loop = [&] {
    sim.at(sim.now(), [&] { loop(); }, "spin");
  };
  sim.at(1.0, [&] { loop(); }, "spin");
  EXPECT_THROW(sim.run(), contract_error);
}

TEST(SimulatorWheel, LegitimateSameInstantCascadeStaysUnderGuard) {
  // A same-timestamp cascade shorter than the bound must complete: the
  // guard keys on exact event timestamps, not on wheel bucket occupancy
  // (many distinct timestamps share one bucket and must not count as one
  // instant).
  Simulator sim;
  sim.set_zero_progress_bound(64);
  int chained = 0;
  std::function<void()> chain = [&] {
    if (++chained < 40) sim.at(sim.now(), [&] { chain(); });
  };
  sim.at(1.0, [&] { chain(); });
  // Distinct-but-same-bucket timestamps: each resets the instant counter.
  for (int i = 0; i < 200; ++i)
    sim.at(2.0 + static_cast<Seconds>(i) * 1e-6, [] {});
  sim.run();
  EXPECT_EQ(chained, 40);
}

TEST(SimulatorWheel, QueueNameIsWheel) {
  const Simulator sim;
  EXPECT_STREQ(sim.queue_name(), "wheel");
}

// ---------------------------------------------------------------------------
// Flow rating under membership churn and capacity changes
// ---------------------------------------------------------------------------

/// Shared fig3/fig9-style workload: staggered cross-resource transfers with
/// a mid-run capacity drop and recovery. Returns the completion time of the
/// last flow and the total bytes delivered at a fixed probe instant.
struct FlowWorkloadOutcome {
  Seconds last_completion = 0.0;
  Bytes delivered_at_probe = 0.0;
};

FlowWorkloadOutcome run_flow_workload(BytesPerSec bandwidth) {
  Simulator sim;
  FlowNetwork net(sim);
  const ResourceId nic_a = net.add_resource("a.nic", bandwidth);
  const ResourceId nic_b = net.add_resource("b.nic", bandwidth);

  FlowWorkloadOutcome out;
  // 24 staggered transfers; odd ones traverse both NICs (fig9's
  // cross-server contention), even ones only the first.
  for (int i = 0; i < 24; ++i) {
    const Seconds start = static_cast<Seconds>(i) * 0.02;
    sim.at(start, [&net, &out, &sim, nic_a, nic_b, i, bandwidth] {
      FlowSpec spec;
      spec.path = (i % 2 == 0) ? std::vector<ResourceId>{nic_a}
                               : std::vector<ResourceId>{nic_a, nic_b};
      spec.bytes = bandwidth * 0.05;  // ≈50 ms of solo wire time each
      spec.on_complete = [&out, &sim] { out.last_completion = sim.now(); };
      net.start_flow(std::move(spec));
    });
  }
  // fig3's mid-run fluctuation: capacity halves, then recovers.
  sim.at(0.3, [&net, nic_a, bandwidth] {
    net.set_capacity(nic_a, bandwidth * 0.5);
  });
  sim.at(0.8, [&net, nic_a, bandwidth] {
    net.set_capacity(nic_a, bandwidth);
  });
  sim.at(0.6, [&net, &out] { out.delivered_at_probe = net.total_bytes_delivered(); });
  sim.run();
  return out;
}

class FlowWorkloadGrid : public ::testing::TestWithParam<double> {};

TEST_P(FlowWorkloadGrid, CompletesThroughCapacityDrop) {
  const FlowWorkloadOutcome out = run_flow_workload(gbps(GetParam()));
  EXPECT_GT(out.last_completion, 0.0);
  EXPECT_GT(out.delivered_at_probe, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Fig3Bandwidths, FlowWorkloadGrid,
                         ::testing::Values(1.0, 5.0, 10.0, 25.0, 50.0,
                                           100.0));

TEST(FlowNetwork, WorkloadRunsAreDeterministic) {
  const FlowWorkloadOutcome a = run_flow_workload(gbps(10));
  const FlowWorkloadOutcome b = run_flow_workload(gbps(10));
  EXPECT_EQ(a.last_completion, b.last_completion);
  EXPECT_EQ(a.delivered_at_probe, b.delivered_at_probe);
}

TEST(FlowNetwork, RatingSaturatesWithoutOversubscribing) {
  // Progressive filling after every membership change: the allocation is
  // exactly feasible and saturates the shared resource.
  Simulator sim;
  FlowNetwork net(sim);
  const ResourceId r = net.add_resource("r", 100.0);
  std::vector<FlowId> flows;
  for (int i = 0; i < 8; ++i) {
    flows.push_back(net.start_flow(FlowSpec{{r}, 1e4, nullptr}));
    EXPECT_LE(net.resource_load(r), 100.0 * (1.0 + 1e-9)) << "after flow " << i;
    EXPECT_NEAR(net.resource_load(r), 100.0, 1e-6) << "after flow " << i;
  }
  for (const FlowId f : flows) net.cancel_flow(f);
  EXPECT_DOUBLE_EQ(net.resource_load(r), 0.0);
}

// ---------------------------------------------------------------------------
// Fault instants under the wheel: exact timestamps, not bucket edges
// ---------------------------------------------------------------------------

TEST(SimulatorWheel, FaultInstantsFireAtExactTimestamps) {
  // 0.123456 s is far from any tick edge. The worker-state callback must
  // observe the transition at that exact double.
  Simulator sim;
  ClusterConfig config;
  config.num_servers = 2;
  config.gpus_per_server = 1;
  Cluster cluster(sim, config);
  std::vector<std::pair<Seconds, bool>> transitions;
  cluster.set_worker_state_callback(
      [&](WorkerId, bool up) { transitions.emplace_back(sim.now(), up); });
  sim.at(0.123456, [&] { cluster.set_worker_down(0); });
  sim.at(0.654321, [&] { cluster.set_worker_up(0); });
  sim.run();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].first, 0.123456);
  EXPECT_FALSE(transitions[0].second);
  EXPECT_EQ(transitions[1].first, 0.654321);
  EXPECT_TRUE(transitions[1].second);
}

}  // namespace
}  // namespace autopipe::sim
