// Crash-point injection for the staged switch protocol. Where FaultPlan
// anchors faults in absolute simulated time, a SwitchFaultPlan anchors them
// at *protocol phase boundaries* of pipeline::PipelineExecutor's
// Prepare → Drain → Transfer → Commit state machine: it observes switch
// attempts and, when an armed crash point matches the attempt and phase,
// schedules a fault (GPU preemption, link failure, straggler, profiler
// dropout) against a deterministically chosen participant of that very
// attempt. This is what the bench/chaos_switch matrix drives: every
// (phase × fault kind) combination, byte-reproducible per seed.
//
// Injection is indirect on purpose: phase observers run synchronously
// inside the executor's switch path, so the plan never mutates the cluster
// from the callback — it schedules the fault through the simulator (with an
// optional extra delay), so the fault joins the deterministic (time, seq)
// event order and the run replays byte-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault_plan.hpp"
#include "pipeline/executor.hpp"

namespace autopipe::faults {

/// One armed crash point: fire `kind` when switch attempt `nth_attempt`
/// reaches `phase`.
struct SwitchCrashPoint {
  pipeline::SwitchPhase phase = pipeline::SwitchPhase::kTransfer;
  FaultEvent::Kind kind = FaultEvent::Kind::kGpuDown;
  /// 1-based attempt id to target; 0 fires on every matching attempt.
  std::uint64_t nth_attempt = 1;
  /// With nth_attempt == 0, cap the total injections from this point
  /// (0 = unlimited). Commit-phase outages need this: every recovery leads
  /// to a readmission switch whose own commit would re-trigger the point,
  /// and an uncapped loop never lets the run finish.
  std::uint64_t max_shots = 0;
  /// Extra simulated delay between the phase boundary and the fault.
  Seconds delay = 0.0;
  /// Outage duration; the paired recovery event (gpu_up / link_up /
  /// straggler_end / profiler_restore) is scheduled this much later.
  /// <= 0 injects the fault with no recovery.
  Seconds recover_after = 0.2;
  /// Throughput scale for kStragglerBegin points.
  double straggler_scale = 0.3;
};

/// Audit record of one injected fault.
struct SwitchFaultShot {
  std::uint64_t attempt_id = 0;
  pipeline::SwitchPhase phase = pipeline::SwitchPhase::kIdle;
  FaultEvent event;
  Seconds at = 0.0;  ///< simulated instant the fault applied
};

class SwitchFaultPlan {
 public:
  /// Registers a phase observer on `executor`; unregisters on destruction.
  /// Both references must outlive the plan.
  SwitchFaultPlan(sim::Cluster& cluster,
                  pipeline::PipelineExecutor& executor);
  ~SwitchFaultPlan();

  SwitchFaultPlan(const SwitchFaultPlan&) = delete;
  SwitchFaultPlan& operator=(const SwitchFaultPlan&) = delete;

  SwitchFaultPlan& add(SwitchCrashPoint point);

  /// Faults actually injected, in firing order.
  const std::vector<SwitchFaultShot>& fired() const { return fired_; }

 private:
  void on_switch_event(const pipeline::PipelineExecutor::SwitchAttempt& a);
  /// Deterministic victim among the attempt's participants.
  std::size_t pick_target(const pipeline::PipelineExecutor::SwitchAttempt& a,
                          FaultEvent::Kind kind) const;

  sim::Cluster& cluster_;
  pipeline::PipelineExecutor& executor_;
  std::uint64_t observer_token_ = 0;
  std::vector<SwitchCrashPoint> points_;
  /// Injections scheduled per point, parallel to points_ (max_shots cap).
  std::vector<std::uint64_t> scheduled_;
  std::vector<SwitchFaultShot> fired_;
  /// Stragglers currently applied (worker ids), so a recovery is never
  /// scheduled for a tenant that another point already removed.
  std::vector<std::size_t> active_stragglers_;
};

}  // namespace autopipe::faults
