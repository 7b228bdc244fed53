// The AutoPipe controller: the closed loop of §4. Every iteration it takes
// a non-intrusive profile; on resource change (or a periodic fallback) it
// enumerates the two-worker candidate neighbourhood, predicts each
// candidate's speed with the meta-network (or the analytic model, for the
// ablation), asks the arbiter whether the best candidate is worth the
// switching cost, and if so performs a fine-grained switch on the running
// executor. Measured outcomes flow back as RL rewards and, when a
// meta-network is supplied, as online-adaptation samples for it.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autopipe/features.hpp"
#include "autopipe/meta_network.hpp"
#include "common/ledger.hpp"
#include "autopipe/profiler.hpp"
#include "autopipe/resource_monitor.hpp"
#include "autopipe/switch_cost.hpp"
#include "pipeline/executor.hpp"
#include "rl/dqn.hpp"

namespace autopipe::core {

struct ControllerConfig {
  enum class ArbiterMode {
    kRl,            ///< the paper's learned arbiter
    kAlwaysSwitch,  ///< straw-man: adopt every improving candidate
    kNeverSwitch,   ///< static configuration (PipeDream behaviour)
    kThreshold,     ///< switch when the predicted gain clears a fixed
                    ///< threshold and pays back its cost (controller.cpp)
  };
  ArbiterMode arbiter_mode = ArbiterMode::kRl;
  pipeline::PipelineExecutor::SwitchMode switch_mode =
      pipeline::PipelineExecutor::SwitchMode::kFineGrained;
  /// false: score candidates with the analytic integrated model instead of
  /// the meta-network (predictor ablation).
  bool use_meta_network = true;
  /// No decisions before this many completed iterations: the pipeline is
  /// filling and the profiler is converging, so early periods and speeds
  /// are not representative.
  std::size_t min_history_iterations = 10;
  /// Periodic re-evaluation interval (iterations) when no change detected.
  std::size_t decision_interval = 5;
  /// Minimum predicted relative gain for a candidate to be considered.
  double candidate_gain_floor = 0.01;
  /// Explore (epsilon-greedy) in the RL arbiter — on for offline training
  /// episodes, off for deployment.
  bool arbiter_explore = false;
  /// Measured-feedback validation: after a switch, compare the measured
  /// speed over a short post-switch window with the pre-switch speed; on
  /// regression, revert to the previous partition and hold off further
  /// decisions for `revert_cooldown` iterations. This is the deployment
  /// safety net around predictor error (the RL reward plays the same role
  /// during training).
  bool validate_switches = true;
  std::size_t revert_cooldown = 6;
  /// Ceiling on the consecutive-revert exponential backoff: the decision
  /// cooldown after the n-th straight revert is
  /// `revert_cooldown << min(n, max_revert_backoff_shift)` iterations, so
  /// many successive reverts saturate at a bounded pause (with the defaults,
  /// 6 << 6 = 384 iterations) instead of overflowing the shift or freezing
  /// planning forever. See revert_backoff_iterations().
  std::size_t max_revert_backoff_shift = 6;
  /// On a detected resource change, compute a full re-plan against the
  /// profiled environment and adopt it in one fine-grained switch when it
  /// predicts a clear relative gain. Between changes, the two-worker
  /// neighbourhood fine-tunes gradually (§4.2).
  bool replan_on_change = true;
  /// The fault-recovery watchdog: a simulator-scheduled tick that declares
  /// the pipeline wedged and answers with an emergency re-plan over the
  /// reachable workers (policy constants in controller.cpp).
  bool enable_watchdog = true;
  /// First backoff of the interruptible-switch retry policy: a switch
  /// attempt aborted by a fault mid-protocol is retried after this many
  /// simulated seconds, doubling per attempt up to a fixed attempt budget
  /// (see controller.cpp).
  Seconds switch_retry_base_interval = 0.05;

  // --- Co-tenancy (multi-job clusters) ---
  /// 1-based job id stamped on this controller's ledger decision records.
  /// 0 — the single-tenant default — leaves records untagged so legacy
  /// ledgers stay byte-identical.
  std::uint64_t job_id = 0;
  /// The cluster workers this controller's job owns. Empty (the default)
  /// means the whole cluster, which is the historical single-tenant
  /// behaviour. When set, planning, watchdog reachability and recovery all
  /// confine themselves to these workers; the JobManager adjusts the set at
  /// runtime through set_owned_workers() as the arbiter grants and revokes
  /// GPUs.
  std::vector<sim::WorkerId> owned_workers;
};

class AutoPipeController {
 public:
  /// `meta` and `agent` may be null: a null meta falls back to the analytic
  /// predictor; a null agent is only legal for non-RL arbiter modes.
  AutoPipeController(sim::Cluster& cluster,
                     pipeline::PipelineExecutor& executor,
                     ControllerConfig config, MetaNetwork* meta,
                     rl::DqnAgent* agent,
                     FeatureEncoder encoder = FeatureEncoder{});
  ~AutoPipeController();

  /// Register as the executor's iteration callback. Call once.
  void attach();

  /// The per-iteration hook (public so tests can drive it directly).
  void on_iteration(std::size_t completed_iterations);

  struct Stats {
    std::size_t decisions = 0;
    std::size_t switches_requested = 0;
    std::size_t candidates_evaluated = 0;
    Seconds total_decision_wall_seconds = 0.0;  // host wall clock (Fig 12)
    Seconds last_decision_wall_seconds = 0.0;
    std::size_t changes_detected = 0;
    // Fault-recovery counters.
    std::size_t wedges_detected = 0;
    std::size_t emergency_replans = 0;
    std::size_t readmissions = 0;
    std::size_t recovery_giveups = 0;
    // Interruptible-switch retry policy.
    std::size_t switch_retries = 0;
    std::size_t switch_abandonments = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Decision cooldown (iterations) after `reverts` consecutive reverted
  /// switches: `revert_cooldown << min(reverts, max_revert_backoff_shift)`,
  /// with the shift additionally clamped below the word width so no
  /// configuration can overflow. Public so tests can pin the ceiling.
  std::size_t revert_backoff_iterations(std::size_t reverts) const;

  const FeatureEncoder& encoder() const { return encoder_; }

  /// Workers excluded by the last emergency re-plan and not yet readmitted.
  const std::vector<sim::WorkerId>& excluded_workers() const {
    return excluded_workers_;
  }

  /// The watchdog's wedge verdict (public so tests can observe it).
  bool wedged() const { return wedged_; }

  /// Replace the job's owned-worker set (sorted, deduplicated internally).
  /// The resource monitor is deliberately NOT reset: its next update sees a
  /// changed worker population, reports "worker population changed" and
  /// re-primes — exactly the resource-change signal that triggers a re-plan
  /// onto the new set.
  void set_owned_workers(std::vector<sim::WorkerId> workers);
  const std::vector<sim::WorkerId>& owned_workers() const { return owned_; }

 private:
  void evaluate_and_decide(const ProfileSnapshot& snapshot,
                           bool after_change);
  /// Full re-plan against the profiled environment `env` of `snapshot`
  /// (DP + short descent). Returns the plan and its analytic speed
  /// prediction.
  std::pair<partition::Partition, double> replan(
      const ProfileSnapshot& snapshot, const partition::EnvironmentView& env);
  /// Predicted samples/s of `candidate`; `env` is the profiled environment
  /// of `snapshot`, built once per planning round.
  double predict_speed(const ProfileSnapshot& snapshot,
                       const partition::EnvironmentView& env,
                       const partition::Partition& candidate);
  /// True when `p` was measured worse than predicted in this regime.
  bool is_rejected(const partition::Partition& p) const;
  /// Add `p` to the rejected list (once).
  void reject(const partition::Partition& p);
  void settle_pending_reward(const ProfileSnapshot& snapshot);
  /// Median of the recent iteration periods.
  double baseline_period() const;
  /// True when every worker of `p` is up and its server's link is up.
  bool partition_reachable(const partition::Partition& p) const;
  void arm_watchdog();
  void watchdog_tick();
  /// One emergency-recovery attempt: re-plan over the reachable workers and
  /// adopt it through the executor's emergency path. Bounded retries with
  /// exponential backoff; gives up after a fixed retry budget.
  void attempt_recovery(Seconds now);
  /// Fold returned excluded workers back in with a full-width re-plan.
  /// Returns true if a switch was requested.
  bool maybe_readmit(const ProfileSnapshot& snapshot);

  // --- Decision-ledger plumbing (no-ops while the ledger is disabled) ---
  trace::DecisionLedger& ledger();
  /// FNV-1a hex digest of the resource snapshot a decision was taken under.
  std::string snapshot_digest(const ProfileSnapshot& snapshot) const;
  /// Resolve record `id` and feed the live calibration series in metrics().
  void ledger_resolve(std::uint64_t id, trace::OutcomeStatus status,
                      double realized, int window, std::string reason);
  /// Advance every open realized-speed probe by one completed iteration.
  void advance_probes();
  /// Terminal-state every open probe: the regime changed under it.
  void supersede_probes(const std::string& reason);
  /// Resolve the record attached to the active validation window, if any.
  void resolve_validation_record(trace::OutcomeStatus status, double realized,
                                 int window, const std::string& reason);

  // --- Interruptible-switch tracking (retry / backoff / abandonment) ---
  /// Executor phase-observer hook: arms validation on Commit, schedules a
  /// backed-off retry (or abandons) on a fault Abort.
  void on_switch_event(const pipeline::PipelineExecutor::SwitchAttempt& a);
  /// Schedule the next retry of the tracked switch, or abandon it once the
  /// attempt budget is spent.
  void schedule_switch_retry();
  /// Terminal failure: resolve the ledger record to aborted_<phase>,
  /// blacklist the target for this regime, emit `switch.abandoned`.
  void abandon_tracked_switch();
  /// A newer decision (or recovery) supersedes the tracked switch.
  void drop_tracked_switch(const std::string& reason);

  /// Owned-worker subselection helpers for co-tenancy: owned_ is always the
  /// authoritative sorted set (the whole cluster when config_.owned_workers
  /// is empty), and job_scoped() says whether it is a strict subset.
  bool job_scoped() const { return owned_.size() < cluster_.num_workers(); }
  /// Profile snapshot restricted to the owned workers (identity when not
  /// job-scoped): dense [0, owned) id space for the DP planner and the
  /// resource monitor.
  ProfileSnapshot scoped_snapshot(const ProfileSnapshot& snapshot) const;

  sim::Cluster& cluster_;
  pipeline::PipelineExecutor& executor_;
  ControllerConfig config_;
  MetaNetwork* meta_;
  rl::DqnAgent* agent_;
  FeatureEncoder encoder_;
  Profiler profiler_;
  ResourceMonitor monitor_;

  std::deque<std::vector<double>> dynamic_history_;
  std::vector<double> static_features_;

  struct PendingDecision {
    std::vector<double> state;
    int action = 0;
    double cost_if_switched = 0.0;
  };
  std::optional<PendingDecision> pending_;
  std::size_t last_switch_iteration_ = 0;

  struct Validation {
    partition::Partition previous;
    /// Mean seconds/iteration before the switch (lower is better).
    double period_before = 0.0;
    std::size_t switch_iteration = 0;
    /// Simulated instant the post-switch window opened.
    double window_start = -1.0;
    std::size_t samples = 0;
    /// Ledger record whose outcome this window decides (ledger enabled only).
    std::optional<std::uint64_t> ledger_id;
  };
  std::optional<Validation> validation_;

  /// A decided switch being shepherded through the executor's staged
  /// protocol. Armed before request_switch so a synchronous Commit sees it;
  /// cleared on Commit (validation/probe arming moves there — an aborted
  /// attempt must not be validated) or on abandonment/supersession.
  struct TrackedSwitch {
    TrackedSwitch(partition::Partition t, partition::Partition prev,
                  double period = 0.0, bool arm = false)
        : target(std::move(t)),
          previous(std::move(prev)),
          period_before(period),
          arm_validation(arm) {}
    partition::Partition target;
    partition::Partition previous;   ///< revert destination if validated out
    double period_before = 0.0;
    bool arm_validation = false;
    std::size_t attempts = 1;        ///< request_switch calls issued so far
    bool retry_scheduled = false;
    std::optional<std::uint64_t> ledger_id;
    pipeline::SwitchPhase last_abort_phase =
        pipeline::SwitchPhase::kIdle;
  };
  std::optional<TrackedSwitch> tracked_switch_;
  std::uint64_t switch_observer_token_ = 0;
  /// Bumped whenever tracked_switch_ is consumed; orphans scheduled retries.
  std::uint64_t retry_epoch_ = 0;

  std::size_t cooldown_until_ = 0;
  /// Consecutive reverted switches; drives exponential decision backoff so
  /// a mispredicting predictor cannot thrash a stable environment.
  std::size_t consecutive_reverts_ = 0;
  /// Rolling window of recent iteration periods (seconds), the baseline a
  /// switch is validated against.
  std::deque<double> recent_period_;
  /// Partitions that measured worse than predicted after adoption; skipped
  /// until the environment changes again. A regime change clears the list,
  /// so it stays short and is searched with ==.
  std::vector<partition::Partition> rejected_;

  std::vector<SpeedSample> adaptation_buffer_;
  Stats stats_;

  /// Open realized-speed measurement windows for ledger records: every hold
  /// decision, and switches that could not arm a validation window. Resolved
  /// after a validation window of completed iterations, or superseded when
  /// the regime changes underneath them. Only populated while the ledger is
  /// enabled; a hold decision does NOT supersede earlier holds (the regime
  /// is unchanged), so a few probes overlap when decision_interval is
  /// shorter than the window.
  struct LedgerProbe {
    std::uint64_t id = 0;
    bool switched = false;
    std::size_t decision_iteration = 0;
    double window_start = -1.0;
    std::size_t samples = 0;
  };
  std::vector<LedgerProbe> probes_;

  // --- Watchdog / fault-recovery state ---
  bool watchdog_armed_ = false;
  /// Whether a tick has ever observed the executor running (distinguishes
  /// "run() not started yet" from "training finished").
  bool watchdog_saw_running_ = false;
  bool wedged_ = false;
  bool recovery_given_up_ = false;
  /// EMA of iteration periods (simulated seconds), the stall yardstick.
  double ema_period_ = 0.0;
  Seconds last_iteration_at_ = -1.0;
  Seconds last_progress_time_ = 0.0;
  std::size_t last_progress_iterations_ = 0;
  std::size_t recovery_attempts_ = 0;
  Seconds next_recovery_at_ = 0.0;
  std::vector<sim::WorkerId> excluded_workers_;
  /// Last good per-worker samples, substituted while the profiler feed for
  /// a worker is muted (fault-injected dropout).
  std::vector<BytesPerSec> held_bw_;
  std::vector<FlopsPerSec> held_speed_;
  std::vector<std::vector<Seconds>> held_fp_;
  std::vector<std::vector<Seconds>> held_bp_;
  std::vector<BytesPerSec> held_nic_bw_;
  /// Sorted owned-worker set (see set_owned_workers); every worker of the
  /// cluster when the config left owned_workers empty.
  std::vector<sim::WorkerId> owned_;
};

}  // namespace autopipe::core
