#include "autopipe/controller.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/expect.hpp"
#include "common/log.hpp"
#include "common/profile.hpp"
#include "partition/analytic_eval.hpp"
#include "partition/neighborhood.hpp"
#include "partition/pipedream_planner.hpp"
#include "partition/rebalance.hpp"

namespace autopipe::core {

namespace {

// Decision-loop policy constants. No caller varies them; they are named
// here so each value carries its rationale.

/// Gain threshold of ArbiterMode::kThreshold.
constexpr double kThresholdGain = 0.05;
/// The estimated switching cost must pay back within this many iterations
/// of the predicted gain for the threshold arbiter to act.
constexpr double kPaybackHorizonIterations = 25.0;
/// Measured speeds feed back into the meta-network online, in batches of
/// this many samples (§4.3 "online adapting").
constexpr std::size_t kAdaptationBatch = 16;
/// Measured-feedback validation window: completed iterations after a
/// switch (or a ledger decision) over which the realized speed is measured.
constexpr std::size_t kValidationWindow = 8;
/// A switch survives validation only if the measured period improves by at
/// least this fraction; otherwise it is reverted and blacklisted.
constexpr double kRegressionTolerance = 0.005;
/// A re-plan on a detected change is adopted when it predicts at least this
/// relative gain.
constexpr double kReplanGainThreshold = 0.10;

// --- Fault-recovery watchdog (robustness layer) ---
/// A simulator-scheduled tick declares the pipeline wedged when no
/// iteration completes within kWatchdogFactor x the EMA iteration period
/// and either a worker is unreachable or the stall outlasts
/// kWatchdogFillGrace; the response is an emergency re-plan over the
/// reachable workers only.
constexpr double kWatchdogFactor = 4.0;
/// Tick-interval floor; also the base unit of the recovery backoff.
constexpr Seconds kWatchdogMinInterval = 0.25;
/// Allowance for pipeline fill, long stop-the-world drains, and slow first
/// iterations: with every worker reachable, a stall shorter than this is
/// never treated as a fault.
constexpr Seconds kWatchdogFillGrace = 10.0;
/// Recovery attempts before the watchdog gives up and lets the executor's
/// deadlock detection surface the failure.
constexpr std::size_t kRecoveryMaxRetries = 6;
/// Backoff multiplier between consecutive recovery attempts.
constexpr double kRecoveryBackoffBase = 2.0;

// --- Interruptible-switch retry policy ---
/// A switch attempt aborted by a fault mid-protocol (the executor rolls the
/// partial migration back) is retried after an exponential backoff of
/// `switch_retry_base_interval * kSwitchRetryBackoff^(n-1)` simulated
/// seconds. After kSwitchRetryMax total attempts the target is abandoned:
/// its ledger record resolves to the aborted_<phase> outcome of the last
/// attempt and the partition is blacklisted for the regime.
constexpr std::size_t kSwitchRetryMax = 3;
constexpr double kSwitchRetryBackoff = 2.0;

/// Partition::to_string() with the spaces removed, so the string fits the
/// ledger's space-separated key=value lines.
std::string compact_partition(const partition::Partition& p) {
  std::string s = p.to_string();
  s.erase(std::remove(s.begin(), s.end(), ' '), s.end());
  return s;
}

}  // namespace

AutoPipeController::AutoPipeController(sim::Cluster& cluster,
                                       pipeline::PipelineExecutor& executor,
                                       ControllerConfig config,
                                       MetaNetwork* meta, rl::DqnAgent* agent,
                                       FeatureEncoder encoder)
    : cluster_(cluster),
      executor_(executor),
      config_(config),
      meta_(meta),
      agent_(agent),
      encoder_(std::move(encoder)),
      profiler_(executor.model(), executor.batch_size()) {
  AUTOPIPE_EXPECT_MSG(
      agent_ != nullptr ||
          config_.arbiter_mode != ControllerConfig::ArbiterMode::kRl,
      "RL arbiter mode requires an agent");
  if (config_.use_meta_network) {
    AUTOPIPE_EXPECT_MSG(meta_ != nullptr,
                        "use_meta_network requires a MetaNetwork");
  }
  set_owned_workers(config_.owned_workers);
  ledger().set_run_info(static_cast<int>(executor_.batch_size()),
                        static_cast<int>(cluster_.num_workers()),
                        executor_.model().name());
  // Observe the executor's staged switch protocol: validation arms on
  // Commit, fault aborts feed the retry/backoff/abandonment policy.
  switch_observer_token_ = executor_.add_switch_observer(
      [this](const pipeline::PipelineExecutor::SwitchAttempt& a) {
        on_switch_event(a);
      });
}

AutoPipeController::~AutoPipeController() {
  executor_.remove_switch_observer(switch_observer_token_);
}

void AutoPipeController::set_owned_workers(
    std::vector<sim::WorkerId> workers) {
  if (workers.empty()) {
    // The historical single-tenant contract: the whole cluster is ours.
    owned_.resize(cluster_.num_workers());
    for (sim::WorkerId w = 0; w < cluster_.num_workers(); ++w) owned_[w] = w;
    return;
  }
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  for (sim::WorkerId w : workers)
    AUTOPIPE_EXPECT_MSG(w < cluster_.num_workers(),
                        "owned worker " << w << " outside cluster of "
                                        << cluster_.num_workers());
  owned_ = std::move(workers);
}

ProfileSnapshot AutoPipeController::scoped_snapshot(
    const ProfileSnapshot& snapshot) const {
  if (!job_scoped()) return snapshot;
  ProfileSnapshot scoped = snapshot;
  scoped.num_workers = owned_.size();
  scoped.worker_bandwidth.clear();
  scoped.worker_speed.clear();
  scoped.fp_time.clear();
  scoped.bp_time.clear();
  for (sim::WorkerId w : owned_) {
    if (w < snapshot.worker_bandwidth.size())
      scoped.worker_bandwidth.push_back(snapshot.worker_bandwidth[w]);
    if (w < snapshot.worker_speed.size())
      scoped.worker_speed.push_back(snapshot.worker_speed[w]);
    if (w < snapshot.fp_time.size())
      scoped.fp_time.push_back(snapshot.fp_time[w]);
    if (w < snapshot.bp_time.size())
      scoped.bp_time.push_back(snapshot.bp_time[w]);
  }
  return scoped;
}

void AutoPipeController::attach() {
  executor_.set_iteration_callback(
      [this](std::size_t iters) { on_iteration(iters); });
  arm_watchdog();
}

void AutoPipeController::on_iteration(std::size_t completed_iterations) {
  // Progress bookkeeping for the stall watchdog: a completed iteration is
  // the definition of forward progress.
  const Seconds now_s = cluster_.simulator().now();
  if (last_iteration_at_ >= 0.0 && now_s > last_iteration_at_) {
    const double period = now_s - last_iteration_at_;
    ema_period_ =
        ema_period_ > 0.0 ? 0.25 * period + 0.75 * ema_period_ : period;
  }
  last_iteration_at_ = now_s;
  last_progress_iterations_ = completed_iterations;
  last_progress_time_ = now_s;
  if (wedged_) {
    wedged_ = false;
    recovery_attempts_ = 0;
    next_recovery_at_ = 0.0;
    recovery_given_up_ = false;
    cluster_.simulator().metrics().add("controller.recoveries");
    if (cluster_.simulator().tracer().enabled()) {
      cluster_.simulator().tracer().instant(
          trace::Category::kFault, "pipeline_recovered", now_s,
          trace::kPidControl, 1,
          {trace::arg("iterations", completed_iterations)});
    }
    arm_watchdog();  // the give-up path stops the ticks; progress restarts them
  }

  ProfileSnapshot snapshot = profiler_.snapshot(executor_, cluster_);

  // Profiler dropouts: a muted worker's readings would simply be absent in
  // a real deployment, so the controller holds that worker's last good
  // sample instead of consuming whatever the counters happen to report.
  if (held_speed_.size() != snapshot.worker_speed.size()) {
    held_bw_ = snapshot.worker_bandwidth;
    held_speed_ = snapshot.worker_speed;
    held_fp_ = snapshot.fp_time;
    held_bp_ = snapshot.bp_time;
  }
  for (sim::WorkerId w = 0; w < snapshot.num_workers; ++w) {
    if (cluster_.profiler_muted(w)) {
      snapshot.worker_bandwidth[w] = held_bw_[w];
      snapshot.worker_speed[w] = held_speed_[w];
      snapshot.fp_time[w] = held_fp_[w];
      snapshot.bp_time[w] = held_bp_[w];
    } else {
      held_bw_[w] = snapshot.worker_bandwidth[w];
      held_speed_[w] = snapshot.worker_speed[w];
      held_fp_[w] = snapshot.fp_time[w];
      held_bp_[w] = snapshot.bp_time[w];
    }
  }

  if (static_features_.empty())
    static_features_ = encoder_.static_features(snapshot);
  dynamic_history_.push_back(encoder_.dynamic_features(snapshot));
  while (dynamic_history_.size() > kHistoryWindow)
    dynamic_history_.pop_front();

  settle_pending_reward(snapshot);

  if (snapshot.iteration_time > 0.0) {
    recent_period_.push_back(snapshot.iteration_time);
    while (recent_period_.size() > 2 * kValidationWindow)
      recent_period_.pop_front();
  }

  // Online adaptation: the measured speed of the *current* partition is a
  // free labelled sample for the meta-network.
  if (meta_ && snapshot.iteration_time > 0.0) {
    SpeedSample sample;
    sample.dynamic_seq.assign(dynamic_history_.begin(),
                              dynamic_history_.end());
    sample.static_feat = static_features_;
    sample.partition_feat = encoder_.partition_features(
        executor_.current_partition(), snapshot.num_layers);
    sample.target = encoder_.normalize_throughput(
        static_cast<double>(executor_.batch_size()) /
        snapshot.iteration_time);
    adaptation_buffer_.push_back(std::move(sample));
    if (adaptation_buffer_.size() >= kAdaptationBatch) {
      meta_->train_batch(adaptation_buffer_);
      adaptation_buffer_.clear();
    }
  }

  // Change detection runs on link-level bandwidth (what NIC/switch counters
  // report) rather than per-flow achieved rates: the latter shift with the
  // job's own traffic pattern and would alias as phantom resource events.
  ProfileSnapshot monitor_view = snapshot;
  if (held_nic_bw_.size() != monitor_view.worker_bandwidth.size()) {
    held_nic_bw_.resize(monitor_view.worker_bandwidth.size());
    for (sim::WorkerId w = 0; w < monitor_view.num_workers; ++w)
      held_nic_bw_[w] = cluster_.nic_bandwidth(cluster_.server_of(w));
  }
  for (sim::WorkerId w = 0; w < monitor_view.num_workers; ++w) {
    if (cluster_.profiler_muted(w)) {
      monitor_view.worker_bandwidth[w] = held_nic_bw_[w];
    } else {
      held_nic_bw_[w] = cluster_.nic_bandwidth(cluster_.server_of(w));
      monitor_view.worker_bandwidth[w] = held_nic_bw_[w];
    }
  }
  // Job-scoped controllers watch only their owned workers: a sibling job's
  // bandwidth shift must not trigger a replan here, while a change in the
  // owned population itself (an arbiter grant or revocation) reports as
  // "worker population changed" and does.
  if (job_scoped()) monitor_view = scoped_snapshot(monitor_view);
  const ResourceChange change = monitor_.update(monitor_view);
  if (change.changed) {
    ++stats_.changes_detected;
    cluster_.simulator().metrics().add("controller.changes");
    if (cluster_.simulator().tracer().enabled()) {
      cluster_.simulator().tracer().instant(
          trace::Category::kControl, "change_detected",
          cluster_.simulator().now(), trace::kPidControl, 1,
          {trace::arg("what", change.description)});
    }
    // A shifted environment invalidates earlier measured rejections and
    // resets the exploration backoff. Open ledger probes were measuring the
    // old regime; close them out rather than mix measurements across it.
    rejected_.clear();
    consecutive_reverts_ = 0;
    cooldown_until_ = 0;
    supersede_probes("regime_change");
    LOG_DEBUG("resource change detected: " << change.description);
  }

  if (executor_.switch_in_progress()) return;
  advance_probes();

  // Re-admission: a worker excluded by an emergency re-plan has come back —
  // fold it in with a full-width plan over every reachable worker.
  if (!excluded_workers_.empty() && !wedged_) {
    const bool any_back = std::any_of(
        excluded_workers_.begin(), excluded_workers_.end(),
        [this](sim::WorkerId w) { return cluster_.worker_reachable(w); });
    if (any_back && maybe_readmit(snapshot)) return;
  }

  // While any worker is unreachable — or its measured bandwidth/speed has
  // not yet recovered to a positive value after an outage — the normal
  // planning paths are meaningless: planners and the analytic model assume
  // every worker is usable, and a zero-bandwidth snapshot entry would trip
  // their contracts. The watchdog's emergency path owns reconfiguration
  // until the topology heals; once a returned worker is re-admitted
  // (above) the regular optimization loop resumes.
  for (sim::WorkerId w : owned_) {
    if (!cluster_.worker_reachable(w)) return;
    if (w < snapshot.num_workers && (snapshot.worker_bandwidth[w] <= 0.0 ||
                                     snapshot.worker_speed[w] <= 0.0))
      return;
  }

  // Measured-feedback validation of the last switch: compare mean
  // seconds/iteration over a post-switch window against the pre-switch
  // baseline, on elapsed simulated time (robust to completion bursts).
  if (validation_ && config_.validate_switches &&
      completed_iterations > validation_->switch_iteration) {
    if (validation_->window_start < 0.0) {
      validation_->window_start = cluster_.simulator().now();
      if (cluster_.simulator().tracer().enabled()) {
        cluster_.simulator().tracer().instant(
            trace::Category::kControl, "validation_start",
            cluster_.simulator().now(), trace::kPidControl, 1,
            {trace::arg("round",
                        validation_->ledger_id ? *validation_->ledger_id : 0),
             trace::arg("period_before", validation_->period_before)});
      }
    } else {
      ++validation_->samples;
      if (validation_->samples >= kValidationWindow) {
        const double after_period =
            (cluster_.simulator().now() - validation_->window_start) /
            static_cast<double>(validation_->samples);
        const bool regressed =
            after_period > validation_->period_before *
                               (1.0 - kRegressionTolerance);
        if (cluster_.simulator().tracer().enabled()) {
          cluster_.simulator().tracer().instant(
              trace::Category::kControl, "validation_end",
              cluster_.simulator().now(), trace::kPidControl, 1,
              {trace::arg("round",
                          validation_->ledger_id ? *validation_->ledger_id
                                                 : 0),
               trace::arg("period_after", after_period),
               trace::arg("verdict", regressed ? "regressed" : "validated")});
        }
        // Keep the new partition only if it is measurably better; an
        // equal-or-worse measurement sends it back (and into rejected_).
        if (regressed) {
          LOG_DEBUG("switch regressed (period "
                    << validation_->period_before << " -> " << after_period
                    << "); reverting");
          if (!partition_reachable(validation_->previous)) {
            // A fault took out part of the old placement: nothing to revert
            // to. Keep the current partition and move on.
            resolve_validation_record(
                trace::OutcomeStatus::kExecuted,
                static_cast<double>(executor_.batch_size()) / after_period,
                static_cast<int>(validation_->samples), "revert_unreachable");
            validation_.reset();
            return;
          }
          reject(executor_.current_partition());
          // The revert is itself a staged switch: track it so a fault
          // mid-revert retries with backoff (but never re-validates it).
          drop_tracked_switch("revert");
          tracked_switch_ = TrackedSwitch(validation_->previous,
                                          executor_.current_partition());
          if (!executor_.request_switch(validation_->previous,
                                        config_.switch_mode,
                                        validation_->ledger_id
                                            ? *validation_->ledger_id
                                            : 0)) {
            tracked_switch_.reset();
            ++retry_epoch_;
            return;  // switch engine busy: retry the revert next iteration
          }
          resolve_validation_record(
              trace::OutcomeStatus::kReverted,
              static_cast<double>(executor_.batch_size()) / after_period,
              static_cast<int>(validation_->samples), "regressed");
          supersede_probes("revert");
          cluster_.simulator().metrics().add("controller.reverts");
          if (cluster_.simulator().tracer().enabled()) {
            cluster_.simulator().tracer().instant(
                trace::Category::kControl, "revert",
                cluster_.simulator().now(), trace::kPidControl, 1,
                {trace::arg("period_before", validation_->period_before),
                 trace::arg("period_after", after_period)});
          }
          consecutive_reverts_ = std::min<std::size_t>(
              consecutive_reverts_ + 1, config_.max_revert_backoff_shift);
          cooldown_until_ = completed_iterations +
                            revert_backoff_iterations(consecutive_reverts_);
        } else {
          consecutive_reverts_ = 0;  // the switch held up under measurement
          resolve_validation_record(
              trace::OutcomeStatus::kExecuted,
              static_cast<double>(executor_.batch_size()) / after_period,
              static_cast<int>(validation_->samples), "validated");
        }
        validation_.reset();
        return;
      }
    }
  }

  if (completed_iterations < config_.min_history_iterations) return;
  if (!change.changed && completed_iterations < cooldown_until_) return;
  const bool periodic =
      config_.decision_interval > 0 &&
      completed_iterations % config_.decision_interval == 0;
  if (!change.changed && !periodic) return;
  if (dynamic_history_.size() < 2) return;  // nothing to learn from yet

  evaluate_and_decide(snapshot, change.changed);
}

double AutoPipeController::predict_speed(
    const ProfileSnapshot& snapshot, const partition::EnvironmentView& env,
    const partition::Partition& candidate) {
  PROF_SPAN_AGG("predictor/infer");
  if (meta_ && config_.use_meta_network) {
    const std::vector<std::vector<double>> seq(dynamic_history_.begin(),
                                               dynamic_history_.end());
    const double normalized = meta_->predict(
        seq, static_features_,
        encoder_.partition_features(candidate, snapshot.num_layers));
    return encoder_.denormalize_throughput(normalized);
  }
  // Analytic integrated model on the profiled environment.
  return partition::analytic_throughput(executor_.model(), candidate, env,
                                        executor_.batch_size());
}

bool AutoPipeController::is_rejected(const partition::Partition& p) const {
  return std::find(rejected_.begin(), rejected_.end(), p) != rejected_.end();
}

void AutoPipeController::reject(const partition::Partition& p) {
  if (!is_rejected(p)) rejected_.push_back(p);
}

double AutoPipeController::baseline_period() const {
  AUTOPIPE_EXPECT(!recent_period_.empty());
  std::vector<double> sorted(recent_period_.begin(), recent_period_.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2];  // median: robust to fill-phase spikes
}

std::size_t AutoPipeController::revert_backoff_iterations(
    std::size_t reverts) const {
  // Hard clamp below the word width so even a pathological configuration
  // (max_revert_backoff_shift >= 64) cannot shift into undefined behaviour;
  // the config ceiling is what bounds the pause in practice.
  const std::size_t shift = std::min<std::size_t>(
      std::min(reverts, config_.max_revert_backoff_shift), 48);
  return config_.revert_cooldown << shift;
}

std::pair<partition::Partition, double> AutoPipeController::replan(
    const ProfileSnapshot& snapshot, const partition::EnvironmentView& env) {
  PROF_SPAN("planner/replan");
  // The DP planner plans over a dense [0, N) worker space. A job-scoped
  // controller plans over its owned subset (dense via scoped_snapshot) and
  // maps the result back onto its real cluster worker ids; the descent and
  // rebalance below evaluate with the full-cluster env, which indexes by
  // real id and never leaves the owned set (a two-worker move only
  // permutes workers already in the partition).
  partition::PlanResult plan = [&] {
    if (!job_scoped()) {
      partition::PipeDreamPlanner planner(
          executor_.model(), env, executor_.batch_size(),
          partition::PipeDreamPlanner::Mode::kCurrentEnvironment);
      return planner.plan(env.num_workers());
    }
    const ProfileSnapshot scoped = scoped_snapshot(snapshot);
    const auto scoped_env = profiler_.environment(
        scoped, executor_.config().framework, executor_.config().sync_scheme);
    partition::PipeDreamPlanner planner(
        executor_.model(), scoped_env, executor_.batch_size(),
        partition::PipeDreamPlanner::Mode::kCurrentEnvironment);
    partition::PlanResult scoped_plan = planner.plan(scoped_env.num_workers());
    scoped_plan.partition =
        partition::remap_workers(scoped_plan.partition, owned_);
    return scoped_plan;
  }();
  // Refine with a short neighbourhood descent under the integrated model.
  partition::Descent refined =
      partition::descend(executor_.model(), std::move(plan.partition), env,
                         executor_.batch_size(), 20);
  // Heterogeneity-aware alternative: keep the current stage structure but
  // re-draw the layer boundaries in proportion to the profiled speeds. This
  // escapes the multi-slow-stage local optimum the count-based DP and the
  // two-worker neighbourhood both miss.
  partition::Partition rebalanced = partition::speed_proportional_rebalance(
      executor_.model(), executor_.current_partition(), env,
      executor_.batch_size());
  const Seconds rebalanced_time = partition::analytic_batch_time(
      executor_.model(), rebalanced, env, executor_.batch_size());
  if (rebalanced_time < refined.batch_time) {
    refined = {std::move(rebalanced), rebalanced_time};
  }
  return {std::move(refined.partition),
          static_cast<double>(executor_.batch_size()) / refined.batch_time};
}

void AutoPipeController::evaluate_and_decide(const ProfileSnapshot& snapshot,
                                             bool after_change) {
  PROF_SPAN("planner/decide_round");
  const auto wall0 = std::chrono::steady_clock::now();
  ++stats_.decisions;

  const partition::Partition& current = executor_.current_partition();
  const auto env = profiler_.environment(snapshot,
                                         executor_.config().framework,
                                         executor_.config().sync_scheme);
  const double current_speed = predict_speed(snapshot, env, current);

  // One ledger record per planning round. Only simulated-time quantities
  // land in it — never the wall-clock timings below — so same-seed runs
  // serialize byte-identical ledgers.
  const bool ledger_on = ledger().enabled();
  trace::DecisionRecord rec;
  const auto init_record = [&] {
    rec = trace::DecisionRecord{};
    rec.job = config_.job_id;
    rec.time = cluster_.simulator().now();
    rec.iteration = executor_.completed_iterations();
    rec.kind = "neighborhood";
    rec.digest = snapshot_digest(snapshot);
    rec.num_workers = static_cast<int>(snapshot.num_workers);
    rec.iteration_time = snapshot.iteration_time;
    rec.current = compact_partition(current);
    rec.current_pred = current_speed;
  };
  // Re-plan adoption is this round's single candidate; fill before the
  // switch request so `current` is still the pre-switch partition.
  const auto fill_replan = [&](const partition::Partition& plan,
                               double plan_speed) {
    rec.kind = "replan";
    const SwitchCostEstimate cost = analytic_switch_cost(
        executor_.model(), current, plan, env,
        snapshot.iteration_time > 0.0 ? snapshot.iteration_time : 0.1,
        partition::optimal_in_flight(current),
        executor_.config().switch_overhead_per_layer);
    trace::CandidateScore cs;
    cs.partition = compact_partition(plan);
    cs.predicted_speed = plan_speed;
    cs.cost_fine = cost.fine_grained;
    cs.cost_stw = cost.stop_the_world;
    rec.action = trace::DecisionAction::kSwitch;
    rec.target = cs.partition;
    rec.chosen_pred = plan_speed;
    rec.best_pred = plan_speed;
    rec.cost_seconds = cost_for_mode(
        cost, config_.switch_mode ==
                  pipeline::PipelineExecutor::SwitchMode::kFineGrained);
    rec.arbiter = "replan";
    rec.candidates.push_back(std::move(cs));
  };
  if (ledger_on) init_record();

  // On a real environment shift, the two-worker neighbourhood may be too
  // local: consult the full re-plan first.
  if (after_change && config_.replan_on_change) {
    auto [plan, plan_speed] = replan(snapshot, env);
    if (plan_speed > current_speed * (1.0 + kReplanGainThreshold) &&
        !(plan == current) && !is_rejected(plan) &&
        partition_reachable(plan)) {
      LOG_DEBUG("re-plan adoption: " << plan.to_string() << " (predicted "
                                     << current_speed << " -> " << plan_speed
                                     << ")");
      if (ledger_on) fill_replan(plan, plan_speed);
      // Arm the tracked switch (and its ledger record) *before* the request:
      // an empty-pipeline attempt can run Prepare → Commit synchronously,
      // and the Commit observer is what arms the validation window.
      const bool arm_validation =
          config_.validate_switches && !recent_period_.empty();
      drop_tracked_switch("new_decision");
      tracked_switch_ =
          TrackedSwitch(plan, current,
                        arm_validation ? baseline_period() : 0.0,
                        arm_validation);
      if (ledger_on) {
        resolve_validation_record(trace::OutcomeStatus::kSuperseded, -1.0, 0,
                                  "new_decision");
        supersede_probes("new_decision");
        tracked_switch_->ledger_id = ledger().add(std::move(rec));
      }
      if (executor_.request_switch(plan, config_.switch_mode,
                                   tracked_switch_->ledger_id
                                       ? *tracked_switch_->ledger_id
                                       : 0)) {
        cluster_.simulator().metrics().add("controller.replans");
        if (cluster_.simulator().tracer().enabled()) {
          cluster_.simulator().tracer().instant(
              trace::Category::kControl, "replan_adopt",
              cluster_.simulator().now(), trace::kPidControl, 1,
              {trace::arg("predicted_current", current_speed),
               trace::arg("predicted_plan", plan_speed)});
        }
        ++stats_.switches_requested;
        last_switch_iteration_ = executor_.completed_iterations();
        return;
      }
      // Switch engine busy: the verdict never took effect. Fall through to
      // the neighbourhood round with a fresh record.
      if (tracked_switch_) {
        if (tracked_switch_->ledger_id) {
          ledger_resolve(*tracked_switch_->ledger_id,
                         trace::OutcomeStatus::kSuperseded, -1.0, 0,
                         "engine_busy");
        }
        tracked_switch_.reset();
        ++retry_epoch_;
      }
      if (ledger_on) init_record();
    }
  }

  const auto moves = partition::two_worker_moves(current);
  stats_.candidates_evaluated += moves.size();
  // A move only permutes the workers already in `current`, so every
  // candidate is exactly as reachable as `current`.
  const bool reachable = partition_reachable(current);
  const bool check_rejected = config_.validate_switches && !rejected_.empty();
  // The analytic predictor prices a move without building its partition.
  const bool learned = meta_ != nullptr && config_.use_meta_network;
  std::optional<partition::MoveScorer> scorer;
  if (!learned) {
    scorer.emplace(executor_.model(), current, env, executor_.batch_size());
  }

  // Per-candidate switch costs are estimated only for the ledger; the
  // decision itself still gates on the best candidate's estimate below.
  double best_speed = 0.0;
  const partition::Move* best_move = nullptr;
  for (const partition::Move& move : moves) {
    // The whole partition, built on first use by the readers that need one:
    // the rejected set, the ledger row and the learned predictor.
    std::optional<partition::Partition> built;
    const auto candidate = [&]() -> const partition::Partition& {
      if (!built) built = partition::apply_move(current, move);
      return *built;
    };
    const bool skipped =
        !reachable ||  // faulted destination
        // measured worse than predicted earlier in this regime
        (check_rejected && is_rejected(candidate()));
    if (skipped) {
      if (ledger_on) {
        trace::CandidateScore cs;
        cs.partition = compact_partition(candidate());
        cs.skipped = true;
        rec.candidates.push_back(std::move(cs));
      }
      continue;
    }
    double speed = 0.0;
    if (learned) {
      speed = predict_speed(snapshot, env, candidate());
    } else {
      PROF_SPAN_AGG("predictor/infer");
      speed = scorer->throughput(move);
    }
    if (ledger_on) {
      const SwitchCostEstimate cost = analytic_switch_cost(
          executor_.model(), current, candidate(), env,
          snapshot.iteration_time > 0.0 ? snapshot.iteration_time : 0.1,
          partition::optimal_in_flight(current),
          executor_.config().switch_overhead_per_layer);
      trace::CandidateScore cs;
      cs.partition = compact_partition(candidate());
      cs.predicted_speed = speed;
      cs.cost_fine = cost.fine_grained;
      cs.cost_stw = cost.stop_the_world;
      rec.candidates.push_back(std::move(cs));
    }
    if (cluster_.simulator().tracer().enabled()) {
      cluster_.simulator().tracer().instant(
          trace::Category::kControl, "predict", cluster_.simulator().now(),
          trace::kPidControl, 1, {trace::arg("speed", speed)});
    }
    if (best_move == nullptr || speed > best_speed) {
      best_speed = speed;
      best_move = &move;
    }
  }
  std::optional<partition::Partition> best;
  if (best_move != nullptr) best = partition::apply_move(current, *best_move);

  const auto wall1 = std::chrono::steady_clock::now();
  stats_.last_decision_wall_seconds =
      std::chrono::duration<double>(wall1 - wall0).count();
  stats_.total_decision_wall_seconds += stats_.last_decision_wall_seconds;

  // Non-RL arbiters only consider candidates above the gain floor. The RL
  // arbiter sees every best-of-neighbourhood proposal — learning to decline
  // unprofitable switches is precisely its job, and declined proposals
  // still produce reward observations.
  const bool below_floor =
      !best ||
      best_speed <= current_speed * (1.0 + config_.candidate_gain_floor);
  if (below_floor &&
      (config_.arbiter_mode != ControllerConfig::ArbiterMode::kRl ||
       !best)) {
    if (ledger_on) {
      // No candidate cleared the gain floor: an implicit hold, recorded so
      // the round still joins to a realized (status-quo) speed.
      rec.action = trace::DecisionAction::kHold;
      rec.chosen_pred = current_speed;
      rec.best_pred = best ? best_speed : current_speed;
      rec.arbiter = "floor";
      const std::uint64_t id = ledger().add(std::move(rec));
      probes_.push_back(
          LedgerProbe{id, false, executor_.completed_iterations(), -1.0, 0});
    }
    return;
  }

  // Cost of adopting the best candidate.
  const SwitchCostEstimate cost = analytic_switch_cost(
      executor_.model(), current, *best, env,
      snapshot.iteration_time > 0.0 ? snapshot.iteration_time : 0.1,
      partition::optimal_in_flight(current),
      executor_.config().switch_overhead_per_layer);
  const Seconds cost_seconds =
      config_.switch_mode ==
              pipeline::PipelineExecutor::SwitchMode::kFineGrained
          ? cost.fine_grained
          : cost.stop_the_world;

  // Arbiter: is the predicted gain worth the cost?
  int action = 0;
  std::vector<double> state = encoder_.arbiter_state(
      snapshot, current_speed, best_speed, cost_seconds,
      static_cast<double>(executor_.completed_iterations() -
                          last_switch_iteration_));
  switch (config_.arbiter_mode) {
    case ControllerConfig::ArbiterMode::kRl: {
      rl::DqnAgent::DecisionInfo info =
          agent_->decide(state, config_.arbiter_explore);
      action = info.action;
      if (ledger_on) {
        rec.q_values = std::move(info.q);
        rec.explored = info.explored;
      }
      break;
    }
    case ControllerConfig::ArbiterMode::kAlwaysSwitch:
      action = 1;
      break;
    case ControllerConfig::ArbiterMode::kNeverSwitch:
      action = 0;
      break;
    case ControllerConfig::ArbiterMode::kThreshold: {
      const bool gain_ok =
          best_speed > current_speed * (1.0 + kThresholdGain);
      // Cost-aware gate: the migration must pay back within the horizon.
      const double gain_per_iteration =
          (best_speed / std::max(current_speed, 1e-9) - 1.0) *
          std::max(snapshot.iteration_time, 1e-6);
      const bool payback_ok =
          cost_seconds <
          gain_per_iteration * kPaybackHorizonIterations;
      action = (gain_ok && payback_ok) ? 1 : 0;
      break;
    }
  }

  cluster_.simulator().metrics().add(action == 1 ? "arbiter.accept"
                                                 : "arbiter.reject");
  if (cluster_.simulator().tracer().enabled()) {
    cluster_.simulator().tracer().instant(
        trace::Category::kControl,
        action == 1 ? "arbiter_accept" : "arbiter_reject",
        cluster_.simulator().now(), trace::kPidControl, 1,
        {trace::arg("current_speed", current_speed),
         trace::arg("best_speed", best_speed),
         trace::arg("cost_seconds", cost_seconds),
         trace::arg("candidates", moves.size())});
  }

  if (agent_) {
    // Normalized switching cost: the training speed lost to the switch,
    // expressed in the same units as the speed reward (§4.3's "normalized
    // switching cost"): current normalized speed times the cost expressed
    // in iterations.
    const double cost_normalized =
        action == 1 ? encoder_.normalize_throughput(
                          static_cast<double>(executor_.batch_size()) /
                          std::max(snapshot.iteration_time, 1e-6)) *
                          (cost_seconds /
                           std::max(snapshot.iteration_time, 1e-6))
                    : 0.0;
    pending_ = PendingDecision{std::move(state), action, cost_normalized};
  }

  if (ledger_on) {
    rec.action = action == 1 ? trace::DecisionAction::kSwitch
                             : trace::DecisionAction::kHold;
    if (action == 1) rec.target = compact_partition(*best);
    rec.chosen_pred = action == 1 ? best_speed : current_speed;
    rec.best_pred = best_speed;
    rec.cost_seconds = cost_seconds;
    switch (config_.arbiter_mode) {
      case ControllerConfig::ArbiterMode::kRl:
        rec.arbiter = "rl";
        break;
      case ControllerConfig::ArbiterMode::kAlwaysSwitch:
        rec.arbiter = "always";
        break;
      case ControllerConfig::ArbiterMode::kNeverSwitch:
        rec.arbiter = "never";
        break;
      case ControllerConfig::ArbiterMode::kThreshold:
        rec.arbiter = "threshold";
        break;
    }
  }

  if (action == 1) {
    // Tracked switch (and ledger record) armed before the request so a
    // synchronous Commit finds them; validation arms only when the staged
    // protocol commits, never for an attempt that aborts mid-flight.
    const bool arm_validation =
        config_.validate_switches && !recent_period_.empty();
    drop_tracked_switch("new_decision");
    tracked_switch_ =
        TrackedSwitch(*best, executor_.current_partition(),
                      arm_validation ? baseline_period() : 0.0,
                      arm_validation);
    if (ledger_on) {
      resolve_validation_record(trace::OutcomeStatus::kSuperseded, -1.0, 0,
                                "new_decision");
      // An adopted switch opens a new regime: earlier probes stop here.
      supersede_probes("new_decision");
      tracked_switch_->ledger_id = ledger().add(std::move(rec));
    }
    if (executor_.request_switch(*best, config_.switch_mode,
                                 tracked_switch_->ledger_id
                                     ? *tracked_switch_->ledger_id
                                     : 0)) {
      ++stats_.switches_requested;
      last_switch_iteration_ = executor_.completed_iterations();
      LOG_DEBUG("switching to " << best->to_string()
                                << " (predicted " << current_speed << " -> "
                                << best_speed << " samples/s)");
    } else if (tracked_switch_) {
      // The switch engine was busy: the verdict never took effect.
      if (tracked_switch_->ledger_id) {
        ledger_resolve(*tracked_switch_->ledger_id,
                       trace::OutcomeStatus::kSuperseded, -1.0, 0,
                       "engine_busy");
      }
      tracked_switch_.reset();
      ++retry_epoch_;
    }
  } else if (ledger_on) {
    const std::uint64_t id = ledger().add(std::move(rec));
    probes_.push_back(
        LedgerProbe{id, false, executor_.completed_iterations(), -1.0, 0});
  }
}

// ---------------------------------------------------------------------------
// Stall watchdog and emergency recovery
// ---------------------------------------------------------------------------

bool AutoPipeController::partition_reachable(
    const partition::Partition& p) const {
  for (const partition::StageAssignment& stage : p.stages())
    for (sim::WorkerId w : stage.workers)
      if (!cluster_.worker_reachable(w)) return false;
  return true;
}

void AutoPipeController::arm_watchdog() {
  if (!config_.enable_watchdog || watchdog_armed_ || recovery_given_up_)
    return;
  watchdog_armed_ = true;
  const Seconds interval =
      std::max(kWatchdogMinInterval, ema_period_);
  cluster_.simulator().after(
      interval, [this] { watchdog_tick(); }, "watchdog");
}

void AutoPipeController::watchdog_tick() {
  watchdog_armed_ = false;
  auto& sim = cluster_.simulator();
  const Seconds now = sim.now();
  if (!executor_.running()) {
    // Either training finished (stop ticking so the event queue can drain)
    // or run() has not started yet (keep waiting, without counting the idle
    // span as a stall).
    if (watchdog_saw_running_ || executor_.completed_iterations() > 0) return;
    last_progress_time_ = now;
    arm_watchdog();
    return;
  }
  watchdog_saw_running_ = true;

  const std::size_t iters = executor_.completed_iterations();
  if (iters != last_progress_iterations_) {
    last_progress_iterations_ = iters;
    last_progress_time_ = now;
  } else {
    // The EMA yardstick; a stop-the-world drain legitimately spans many
    // iteration periods, so in-progress switches get the fill grace.
    Seconds threshold =
        ema_period_ > 0.0
            ? std::max(kWatchdogFactor * ema_period_,
                       kWatchdogMinInterval)
            : kWatchdogFillGrace;
    if (executor_.switch_in_progress())
      threshold = std::max(threshold, kWatchdogFillGrace);
    const Seconds stall = now - last_progress_time_;
    if (stall > threshold) {
      bool worker_down = false;
      for (sim::WorkerId w : owned_)
        if (!cluster_.worker_reachable(w)) { worker_down = true; break; }
      // With every worker reachable, a slow patch is not a fault: only a
      // stall past the hard grace bound (and outside a switch, whose drain
      // is deterministic) triggers recovery.
      const bool hard_stall = ema_period_ > 0.0 &&
                              !executor_.switch_in_progress() &&
                              stall > std::max(threshold,
                                               kWatchdogFillGrace);
      if (worker_down || hard_stall) {
        if (!wedged_) {
          wedged_ = true;
          ++stats_.wedges_detected;
          sim.metrics().add("controller.wedges");
          if (sim.tracer().enabled()) {
            sim.tracer().instant(
                trace::Category::kFault, "pipeline_wedged", now,
                trace::kPidControl, 1,
                {trace::arg("stalled_seconds", stall),
                 trace::arg("iterations", iters)});
          }
        }
        if (now >= next_recovery_at_) attempt_recovery(now);
      }
    }
  }
  arm_watchdog();
}

void AutoPipeController::attempt_recovery(Seconds now) {
  auto& sim = cluster_.simulator();
  if (recovery_attempts_ >= kRecoveryMaxRetries) {
    if (!recovery_given_up_) {
      recovery_given_up_ = true;
      ++stats_.recovery_giveups;
      sim.metrics().add("controller.recovery_giveups");
      if (sim.tracer().enabled()) {
        sim.tracer().instant(trace::Category::kFault, "watchdog_giveup", now,
                             trace::kPidControl, 1,
                             {trace::arg("attempts", recovery_attempts_)});
      }
    }
    return;
  }
  ++recovery_attempts_;
  next_recovery_at_ =
      now + kWatchdogMinInterval *
                std::pow(kRecoveryBackoffBase,
                         static_cast<double>(recovery_attempts_));

  std::vector<sim::WorkerId> alive;
  std::vector<sim::WorkerId> dead;
  for (sim::WorkerId w : owned_)
    (cluster_.worker_reachable(w) ? alive : dead).push_back(w);
  ProfileSnapshot snapshot = profiler_.snapshot(executor_, cluster_);
  if (alive.size() > snapshot.num_layers) alive.resize(snapshot.num_layers);
  if (alive.empty()) return;  // nowhere to land; back off and retry

  std::optional<partition::Partition> plan;
  try {
    const auto env = profiler_.environment(snapshot,
                                           executor_.config().framework,
                                           executor_.config().sync_scheme);
    plan = partition::speed_proportional_rebalance(
        executor_.model(),
        partition::Partition::even_split(snapshot.num_layers, alive), env,
        executor_.batch_size());
  } catch (const std::exception&) {
    // A half-transitioned environment (e.g. a link that dropped between the
    // reachability scan and the snapshot) can violate planner contracts;
    // treat it like any other failed attempt and let the backoff retry.
    return;
  }
  // A fault racing this call (e.g. a second preemption mid-migration) makes
  // the adopt fail; the backoff schedule retries with a fresh alive set.
  if (!executor_.emergency_adopt(std::move(*plan))) return;
  ++stats_.emergency_replans;
  sim.metrics().add("controller.emergency_replans");
  excluded_workers_ = std::move(dead);
  // The emergency plan invalidates every piece of steady-state decision
  // context (an in-flight switch was already aborted through the staged
  // protocol by emergency_adopt; its tracked state resolved there).
  drop_tracked_switch("fault");
  resolve_validation_record(trace::OutcomeStatus::kSuperseded, -1.0, 0,
                            "fault");
  supersede_probes("fault");
  validation_.reset();
  rejected_.clear();
  cooldown_until_ = 0;
  consecutive_reverts_ = 0;
  pending_.reset();
  monitor_.reset();
}

bool AutoPipeController::maybe_readmit(const ProfileSnapshot& snapshot) {
  std::vector<sim::WorkerId> alive;
  for (sim::WorkerId w : owned_)
    if (cluster_.worker_reachable(w)) alive.push_back(w);
  if (alive.size() > snapshot.num_layers) alive.resize(snapshot.num_layers);
  if (alive.empty()) return false;

  std::optional<partition::Partition> plan;
  try {
    const auto env = profiler_.environment(snapshot,
                                           executor_.config().framework,
                                           executor_.config().sync_scheme);
    plan = partition::speed_proportional_rebalance(
        executor_.model(),
        partition::Partition::even_split(snapshot.num_layers, alive), env,
        executor_.batch_size());
  } catch (const std::exception&) {
    return false;  // environment still unsettled; retry next iteration
  }
  const auto drop_returned = [this] {
    excluded_workers_.erase(
        std::remove_if(
            excluded_workers_.begin(), excluded_workers_.end(),
            [this](sim::WorkerId w) { return cluster_.worker_reachable(w); }),
        excluded_workers_.end());
  };
  if (*plan == executor_.current_partition()) {
    drop_returned();
    return false;
  }
  drop_tracked_switch("readmit");
  tracked_switch_ =
      TrackedSwitch(*plan, executor_.current_partition());
  if (!executor_.request_switch(*plan, config_.switch_mode)) {
    tracked_switch_.reset();
    ++retry_epoch_;
    return false;
  }
  ++stats_.readmissions;
  ++stats_.switches_requested;
  last_switch_iteration_ = executor_.completed_iterations();
  cluster_.simulator().metrics().add("controller.readmissions");
  if (cluster_.simulator().tracer().enabled()) {
    cluster_.simulator().tracer().instant(
        trace::Category::kFault, "worker_readmit",
        cluster_.simulator().now(), trace::kPidControl, 1,
        {trace::arg("workers", alive.size())});
  }
  drop_returned();
  resolve_validation_record(trace::OutcomeStatus::kSuperseded, -1.0, 0,
                            "readmit");
  supersede_probes("readmit");
  validation_.reset();
  rejected_.clear();
  return true;
}

// ---------------------------------------------------------------------------
// Interruptible-switch tracking: retry / backoff / abandonment
// ---------------------------------------------------------------------------

namespace {

trace::OutcomeStatus aborted_outcome(
    pipeline::SwitchPhase phase) {
  using SwitchPhase = pipeline::SwitchPhase;
  switch (phase) {
    case SwitchPhase::kDrain:
      return trace::OutcomeStatus::kAbortedDrain;
    case SwitchPhase::kTransfer:
      return trace::OutcomeStatus::kAbortedTransfer;
    default:
      return trace::OutcomeStatus::kAbortedPrepare;
  }
}

}  // namespace

void AutoPipeController::on_switch_event(
    const pipeline::PipelineExecutor::SwitchAttempt& a) {
  using SwitchPhase = pipeline::SwitchPhase;
  auto& sim = cluster_.simulator();
  if (a.phase == SwitchPhase::kCommit) {
    if (!tracked_switch_) return;  // e.g. an emergency adoption's own switch
    TrackedSwitch tracked = std::move(*tracked_switch_);
    tracked_switch_.reset();
    ++retry_epoch_;
    // Validation arms only now: an attempt that aborted never changed the
    // running configuration, so there is nothing to measure or revert.
    if (tracked.arm_validation) {
      validation_ =
          Validation{std::move(tracked.previous), tracked.period_before,
                     executor_.completed_iterations(), -1.0, 0,
                     tracked.ledger_id};
    } else if (tracked.ledger_id) {
      probes_.push_back(LedgerProbe{*tracked.ledger_id, true,
                                    executor_.completed_iterations(), -1.0,
                                    0});
    }
    return;
  }
  if (a.phase != SwitchPhase::kAborted) return;

  // Switch-cost accounting for aborted work: the attempt consumed wall
  // time (and, mid-Transfer, network bytes — counted by the executor as
  // switch.rollback_bytes) without delivering a new configuration.
  sim.metrics().add("controller.aborted_switch_seconds",
                    sim.now() - a.requested_at);

  if (a.abort_reason == "emergency") {
    // attempt_recovery owns the aftermath; the decided target is moot.
    if (tracked_switch_) {
      if (tracked_switch_->ledger_id) {
        ledger_resolve(*tracked_switch_->ledger_id,
                       trace::OutcomeStatus::kSuperseded, -1.0, 0, "fault");
      }
      tracked_switch_.reset();
      ++retry_epoch_;
    }
    return;
  }

  if (a.abort_reason == "tenant_contention" ||
      a.abort_reason == "job_finished") {
    // Terminal aborts from the cluster co-tenancy layer. "tenant_contention":
    // the arbiter denied this job the contested worker — final until the
    // ownership map changes again, so the retry policy must NOT adopt the
    // attempt (re-requesting the same target would route batches through
    // another tenant's GPU). "job_finished": the run target was reached with
    // a switch still staged; retrying would reconfigure onto workers the job
    // has already released.
    if (tracked_switch_) {
      if (tracked_switch_->ledger_id) {
        ledger_resolve(*tracked_switch_->ledger_id,
                       aborted_outcome(a.aborted_in), -1.0, 0,
                       a.abort_reason);
      }
      if (a.abort_reason == "tenant_contention")
        reject(tracked_switch_->target);
      tracked_switch_.reset();
      ++retry_epoch_;
    }
    return;
  }

  if (!tracked_switch_) {
    // An attempt this controller did not issue (harness- or test-driven):
    // adopt it so the retry policy covers every aborted switch.
    if (!a.target) return;
    tracked_switch_ =
        TrackedSwitch(*a.target, executor_.current_partition());
  }
  tracked_switch_->last_abort_phase = a.aborted_in;
  schedule_switch_retry();
}

void AutoPipeController::schedule_switch_retry() {
  AUTOPIPE_EXPECT(tracked_switch_.has_value());
  TrackedSwitch& t = *tracked_switch_;
  if (t.retry_scheduled) return;
  if (t.attempts >= kSwitchRetryMax) {
    abandon_tracked_switch();
    return;
  }
  t.retry_scheduled = true;
  const Seconds delay =
      config_.switch_retry_base_interval *
      std::pow(kSwitchRetryBackoff,
               static_cast<double>(t.attempts - 1));
  const std::uint64_t epoch = retry_epoch_;
  cluster_.simulator().after(
      delay,
      [this, epoch] {
        if (epoch != retry_epoch_ || !tracked_switch_) return;
        TrackedSwitch& tr = *tracked_switch_;
        tr.retry_scheduled = false;
        if (tr.target == executor_.current_partition()) {
          // Someone (a rejoin repair, another decision) already landed the
          // configuration; nothing left to retry.
          drop_tracked_switch("target_reached");
          return;
        }
        if (executor_.switch_in_progress() ||
            !partition_reachable(tr.target)) {
          // Engine busy or the target still routes through an unreachable
          // worker: burn one attempt and back off again, so a permanently
          // dead worker leads to abandonment rather than eternal polling.
          ++tr.attempts;
          schedule_switch_retry();
          return;
        }
        ++tr.attempts;
        if (executor_.request_switch(
                tr.target, config_.switch_mode,
                tr.ledger_id ? *tr.ledger_id : 0)) {
          ++stats_.switch_retries;
          auto& sim = cluster_.simulator();
          sim.metrics().add("switch.retries");
          if (sim.tracer().enabled()) {
            sim.tracer().instant(trace::Category::kControl, "switch_retry",
                                 sim.now(), trace::kPidControl, 1,
                                 {trace::arg("attempt", tr.attempts)});
          }
        } else {
          schedule_switch_retry();
        }
      },
      "switch_retry");
}

void AutoPipeController::abandon_tracked_switch() {
  TrackedSwitch t = std::move(*tracked_switch_);
  tracked_switch_.reset();
  ++retry_epoch_;
  ++stats_.switch_abandonments;
  auto& sim = cluster_.simulator();
  sim.metrics().add("switch.abandoned");
  if (sim.tracer().enabled()) {
    sim.tracer().instant(
        trace::Category::kControl, "switch_abandon", sim.now(),
        trace::kPidControl, 1,
        {trace::arg("attempts", t.attempts),
         trace::arg("phase",
                    pipeline::switch_phase_name(t.last_abort_phase))});
  }
  if (t.ledger_id) {
    ledger_resolve(*t.ledger_id, aborted_outcome(t.last_abort_phase), -1.0,
                   0, "abandoned");
  }
  // Repeated fault pressure on this exact move: skip it until the
  // environment changes again.
  reject(t.target);
}

void AutoPipeController::drop_tracked_switch(const std::string& reason) {
  if (!tracked_switch_) return;
  if (tracked_switch_->ledger_id) {
    ledger_resolve(*tracked_switch_->ledger_id,
                   trace::OutcomeStatus::kSuperseded, -1.0, 0, reason);
  }
  tracked_switch_.reset();
  ++retry_epoch_;
}

// ---------------------------------------------------------------------------
// Decision-ledger plumbing
// ---------------------------------------------------------------------------

trace::DecisionLedger& AutoPipeController::ledger() {
  return cluster_.simulator().ledger();
}

std::string AutoPipeController::snapshot_digest(
    const ProfileSnapshot& snapshot) const {
  // FNV-1a over the bit patterns of the planner-relevant snapshot fields:
  // two snapshots hash equal iff the controller saw the same environment.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_double = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(snapshot.num_workers));
  mix_double(snapshot.iteration_time);
  for (sim::WorkerId w = 0; w < snapshot.num_workers; ++w) {
    mix_double(snapshot.worker_bandwidth[w]);
    mix_double(snapshot.worker_speed[w]);
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return std::string(buf);
}

void AutoPipeController::ledger_resolve(std::uint64_t id,
                                        trace::OutcomeStatus status,
                                        double realized, int window,
                                        std::string reason) {
  auto& lg = ledger();
  if (!lg.enabled() || id >= lg.size()) return;
  auto& metrics = cluster_.simulator().metrics();
  metrics.add(std::string("ledger.") + trace::outcome_status_name(status));
  // Live calibration: relative prediction error of the chosen action and
  // hindsight regret against the best candidate, as rolling series. The
  // offline report (src/analysis/calibration.*) recomputes the same
  // quantities from the serialized ledger.
  const trace::DecisionRecord& record = lg.records()[id];
  if (realized > 0.0) {
    if (record.chosen_pred > 0.0) {
      const double rel = (record.chosen_pred - realized) / realized;
      metrics.observe("calibration.predictor_ape", std::abs(rel));
      metrics.observe("calibration.predictor_bias", rel);
    }
    if (record.best_pred > 0.0) {
      metrics.observe("calibration.regret",
                      std::max(0.0, record.best_pred - realized) / realized);
    }
  }
  trace::DecisionOutcome outcome;
  outcome.status = status;
  outcome.realized_speed = realized;
  outcome.window_iterations = window;
  outcome.reason = std::move(reason);
  lg.resolve(id, std::move(outcome));
}

void AutoPipeController::advance_probes() {
  if (probes_.empty()) return;
  const double now = cluster_.simulator().now();
  const std::size_t iters = executor_.completed_iterations();
  for (std::size_t i = 0; i < probes_.size();) {
    LedgerProbe& p = probes_[i];
    if (iters <= p.decision_iteration) {
      ++i;
      continue;
    }
    if (p.window_start < 0.0) {
      p.window_start = now;  // first iteration after the decision: open
      ++i;
      continue;
    }
    ++p.samples;
    if (p.samples >= kValidationWindow && now > p.window_start) {
      const double realized = static_cast<double>(executor_.batch_size()) *
                              static_cast<double>(p.samples) /
                              (now - p.window_start);
      ledger_resolve(p.id,
                     p.switched ? trace::OutcomeStatus::kExecuted
                                : trace::OutcomeStatus::kRejected,
                     realized, static_cast<int>(p.samples), "measured");
      probes_.erase(probes_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void AutoPipeController::supersede_probes(const std::string& reason) {
  if (probes_.empty()) return;
  const double now = cluster_.simulator().now();
  for (const LedgerProbe& p : probes_) {
    if (p.samples > 0 && now > p.window_start) {
      // Enough of a window to salvage a short measurement.
      const double realized = static_cast<double>(executor_.batch_size()) *
                              static_cast<double>(p.samples) /
                              (now - p.window_start);
      ledger_resolve(p.id,
                     p.switched ? trace::OutcomeStatus::kExecuted
                                : trace::OutcomeStatus::kRejected,
                     realized, static_cast<int>(p.samples),
                     "partial_" + reason);
    } else {
      ledger_resolve(p.id, trace::OutcomeStatus::kSuperseded, -1.0, 0,
                     reason);
    }
  }
  probes_.clear();
}

void AutoPipeController::resolve_validation_record(trace::OutcomeStatus status,
                                                   double realized, int window,
                                                   const std::string& reason) {
  if (!validation_ || !validation_->ledger_id) return;
  ledger_resolve(*validation_->ledger_id, status, realized, window, reason);
  validation_->ledger_id.reset();
}

void AutoPipeController::settle_pending_reward(
    const ProfileSnapshot& snapshot) {
  if (!agent_ || !pending_) return;
  // Reward: the training speed of the iteration following the decision,
  // net of the normalized switching cost (§4.3's reward function).
  const double speed =
      snapshot.iteration_time > 0.0
          ? static_cast<double>(executor_.batch_size()) /
                snapshot.iteration_time
          : 0.0;
  rl::Transition t;
  t.state = pending_->state;
  t.action = pending_->action;
  t.reward = encoder_.normalize_throughput(speed) -
             (pending_->action == 1 ? pending_->cost_if_switched : 0.0);
  // Next state: the same encoding re-evaluated now, with no candidate yet.
  t.next_state = encoder_.arbiter_state(snapshot, speed, speed, 0.0,
                                        static_cast<double>(
                                            executor_.completed_iterations() -
                                            last_switch_iteration_));
  t.terminal = false;
  agent_->observe(std::move(t));
  pending_.reset();
}

}  // namespace autopipe::core
