#include "scenario/harness.hpp"

#include <stdexcept>
#include <utility>

#include "nn/model_zoo.hpp"
#include "util/strings.hpp"

namespace cmdare::scenario {
namespace {

train::SessionConfig session_config(const ScenarioSpec& spec,
                                    ckpt::CheckpointPlane* plane) {
  train::SessionConfig config;
  config.ps_count = spec.ps_count;
  config.checkpoint_interval_steps = spec.checkpoint_interval_steps;
  config.checkpoint_max_retries = spec.checkpoint_max_retries;
  config.max_steps = spec.max_steps;
  config.mode = spec.ft_mode;
  config.ps_region = spec.ps_region;
  config.plane = plane;
  return config;
}

std::vector<train::WorkerSpec> expand_workers(const ScenarioSpec& spec) {
  std::vector<train::WorkerSpec> workers;
  for (const WorkerGroup& group : spec.workers) {
    for (int i = 0; i < group.count; ++i) {
      train::WorkerSpec worker;
      worker.gpu = group.gpu;
      worker.region = group.region;
      worker.transient = group.transient;
      worker.label = spec.model;
      workers.push_back(worker);
    }
  }
  return workers;
}

}  // namespace

util::Table ScenarioResult::table() const {
  util::Table table({"field", "value"});
  table.add_row({"finished", finished ? "true" : "false"});
  table.add_row({"completed_steps", std::to_string(completed_steps)});
  table.add_row({"elapsed", util::format_duration(elapsed_seconds)});
  table.add_row({"cost_usd", util::format_double(cost_usd, 4)});
  table.add_row({"revocations", std::to_string(revocations)});
  table.add_row({"replacements", std::to_string(replacements)});
  table.add_row({"restarts", std::to_string(restarts)});
  table.add_row({"launch_retries", std::to_string(launch_retries)});
  table.add_row({"fallbacks", std::to_string(fallbacks)});
  table.add_row({"slots_abandoned", std::to_string(slots_abandoned)});
  table.add_row({"notices", std::to_string(notices)});
  table.add_row({"abrupt_kills", std::to_string(abrupt_kills)});
  table.add_row({"checkpoint_blobs", std::to_string(checkpoint_blobs)});
  table.add_row({"last_checkpoint_step", std::to_string(last_checkpoint_step)});
  table.add_row({"faults_injected", std::to_string(faults_injected)});
  table.add_row({"detections", std::to_string(detections)});
  table.add_row({"false_detections", std::to_string(false_detections)});
  table.add_row({"detection_latency_p50",
                 util::format_double(detection_latency_p50, 2)});
  table.add_row({"detection_latency_p99",
                 util::format_double(detection_latency_p99, 2)});
  table.add_row({"detection_latency_mean",
                 util::format_double(detection_latency_mean, 2)});
  table.add_row({"interval_retunes", std::to_string(interval_retunes)});
  table.add_row({"fenced_workers", std::to_string(fenced_workers)});
  table.add_row({"hedges_cancelled", std::to_string(hedges_cancelled)});
  table.add_row({"mean_recovery_seconds",
                 util::format_double(mean_recovery_seconds, 2)});
  if (elastic_shrinks > 0 || elastic_grows > 0 || breaker_transitions > 0) {
    table.add_row({"elastic_shrinks", std::to_string(elastic_shrinks)});
    table.add_row({"elastic_grows", std::to_string(elastic_grows)});
    table.add_row(
        {"breaker_transitions", std::to_string(breaker_transitions)});
    table.add_row({"breaker_opens", std::to_string(breaker_opens)});
  }
  if (outage_revocations > 0 || outage_denials > 0) {
    table.add_row(
        {"outage_revocations", std::to_string(outage_revocations)});
    table.add_row({"outage_denials", std::to_string(outage_denials)});
  }
  if (ckpt_base_writes > 0 || ckpt_delta_writes > 0 ||
      ckpt_quarantines > 0 || ckpt_cold_restarts > 0) {
    table.add_row({"ckpt_base_writes", std::to_string(ckpt_base_writes)});
    table.add_row({"ckpt_delta_writes", std::to_string(ckpt_delta_writes)});
    table.add_row({"ckpt_compactions", std::to_string(ckpt_compactions)});
    table.add_row({"ckpt_quarantines", std::to_string(ckpt_quarantines)});
    table.add_row(
        {"ckpt_verified_restores", std::to_string(ckpt_verified_restores)});
    table.add_row(
        {"ckpt_cold_restarts", std::to_string(ckpt_cold_restarts)});
    table.add_row(
        {"ckpt_tier_cost_usd", util::format_double(ckpt_tier_cost_usd, 4)});
  }
  if (tenants > 0) {
    table.add_row({"tenants", std::to_string(tenants)});
    table.add_row({"tenants_finished", std::to_string(tenants_finished)});
    table.add_row(
        {"deadline_hit_rate", util::format_double(deadline_hit_rate, 3)});
    table.add_row({"placements", std::to_string(placements)});
    table.add_row({"evictions_reclaim", std::to_string(evictions_reclaim)});
    table.add_row(
        {"evictions_priceout", std::to_string(evictions_priceout)});
    table.add_row({"migrations", std::to_string(migrations)});
    table.add_row({"usd_per_kstep", util::format_double(usd_per_kstep, 4)});
  }
  return table;
}

SimHarness::SimHarness(ScenarioSpec spec)
    : SimHarness(spec, util::Rng(spec.seed)) {}

SimHarness::SimHarness(ScenarioSpec spec, const util::Rng& root)
    : spec_(std::move(spec)),
      root_(root),
      owned_telemetry_(spec_.telemetry && !obs::enabled()
                           ? std::make_unique<obs::ScopedTelemetry>()
                           : nullptr),
      injector_(spec_.faults, root_.fork("faults")),
      provider_(sim_, root_.fork("cloud"), spec_.utc_start_hour),
      store_(sim_, root_.fork("store")) {
  std::vector<std::string> errors = validate(spec_);
  if (!errors.empty()) {
    throw std::invalid_argument("SimHarness: invalid spec: " +
                                util::join(errors, "; "));
  }
  build();
}

void SimHarness::build() {
  provider_.set_fault_injector(&injector_);
  store_.set_fault_injector(&injector_);
  if (spec_.ckpt.enabled) {
    store_.set_tiers(spec_.store_tiers);
    plane_ = std::make_unique<ckpt::CheckpointPlane>(sim_, store_, spec_.ckpt,
                                                     &injector_);
  }
  const nn::CnnModel& model = nn::model_by_name(spec_.model);

  switch (spec_.kind) {
    case HarnessKind::kRun: {
      core::RunConfig config;
      config.session = session_config(spec_, plane_.get());
      config.workers = expand_workers(spec_);
      config.auto_replace = spec_.auto_replace;
      config.replacement_context = spec_.replacement_context;
      config.resilience = spec_.resilience;
      config.supervision = spec_.supervision;
      run_ = std::make_unique<core::TransientTrainingRun>(
          provider_, model, std::move(config), root_.fork("run"), &store_);
      break;
    }
    case HarnessKind::kSession: {
      session_ = std::make_unique<train::TrainingSession>(
          sim_, model, session_config(spec_, plane_.get()),
          root_.fork("session"), &store_);
      for (const train::WorkerSpec& worker : expand_workers(spec_)) {
        session_->add_worker(worker);
      }
      break;
    }
    case HarnessKind::kSync: {
      sync_ = std::make_unique<train::SyncTrainingSession>(
          sim_, model, spec_.ps_count, spec_.max_steps, root_.fork("sync"));
      for (const train::WorkerSpec& worker : expand_workers(spec_)) {
        sync_->add_worker(worker);
      }
      break;
    }
    case HarnessKind::kCloud:
      // Provider-only scenarios drive request_instance() themselves
      // through the provider() accessor before calling run().
      break;
    case HarnessKind::kFleet:
      fleet_ = std::make_unique<fleet::FleetSim>(
          sim_, provider_, spec_.fleet, model, root_.fork("fleet"));
      break;
  }
}

train::TrainingSession* SimHarness::session() {
  if (run_) return &run_->session();
  return session_.get();
}

ScenarioResult SimHarness::run() {
  if (ran_) {
    throw std::logic_error("SimHarness::run: scenario already ran");
  }
  ran_ = true;

  switch (spec_.kind) {
    case HarnessKind::kRun:
      run_->start();
      break;
    case HarnessKind::kSync:
      sync_->start();
      break;
    case HarnessKind::kFleet:
      fleet_->start();
      break;
    case HarnessKind::kSession:
    case HarnessKind::kCloud:
      break;  // sessions self-start on add_worker; cloud is caller-driven
  }

  if (spec_.horizon_hours > 0.0) {
    sim_.run_until(spec_.horizon_hours * 3600.0);
  } else {
    sim_.run();
  }

  result_ = collect();
  return result_;
}

const ScenarioResult& SimHarness::result() const {
  if (!ran_) {
    throw std::logic_error("SimHarness::result: run() has not been called");
  }
  return result_;
}

ScenarioResult SimHarness::collect() {
  // Close the books before reading them: bill still-running instances
  // (and the open PS segment) up to now, so a horizon-limited run's
  // ledger carries every billed second exactly once.
  if (obs::ledger()) {
    if (spec_.kind == HarnessKind::kRun && run_) run_->record_billing_tick();
    if (spec_.kind == HarnessKind::kRun ||
        spec_.kind == HarnessKind::kCloud ||
        spec_.kind == HarnessKind::kFleet) {
      provider_.record_billing_ticks();
    }
  }
  // Final market snapshot so horizon-limited fleet runs expose the
  // end-state capacity/price gauges.
  if (spec_.kind == HarnessKind::kFleet) provider_.export_market_gauges();

  ScenarioResult result;
  result.sim_now = sim_.now();
  result.checkpoint_blobs = store_.blob_count();
  result.faults_injected = injector_.injected_total();
  if (plane_) {
    result.ckpt_base_writes = plane_->base_writes();
    result.ckpt_delta_writes = plane_->delta_writes();
    result.ckpt_compactions = plane_->compactions();
    result.ckpt_quarantines = plane_->quarantines();
    result.ckpt_verified_restores = plane_->verified_restores();
    result.ckpt_cold_restarts = plane_->cold_restarts();
    result.ckpt_tier_cost_usd = plane_->tier_cost_usd();
  }
  result.outage_revocations = provider_.outage_revocations();
  result.outage_denials = provider_.outage_denials();

  switch (spec_.kind) {
    case HarnessKind::kRun: {
      const core::TransientTrainingRun& run = *run_;
      result.finished = run.finished();
      result.completed_steps = run.completed_steps();
      result.elapsed_seconds = run.finished() ? run.elapsed_seconds()
                                              : sim_.now();
      result.cost_usd = run.cost_so_far();
      result.revocations = run.revocations_seen();
      result.replacements = run.replacements_requested();
      result.restarts = run.restarts();
      result.launch_retries = run.launch_retries();
      result.fallbacks = run.fallbacks_taken();
      result.slots_abandoned = run.slots_abandoned();
      result.notices = run.notices_seen();
      result.abrupt_kills = run.abrupt_kills_seen();
      result.last_checkpoint_step = run.session().last_checkpoint_step();
      if (const supervise::Supervisor* supervisor = run.supervisor()) {
        result.detections = supervisor->detections();
        result.false_detections = supervisor->false_positives();
        result.detection_latency_p50 =
            supervisor->detection_latency_quantile(0.50);
        result.detection_latency_p99 =
            supervisor->detection_latency_quantile(0.99);
        result.detection_latency_mean = supervisor->detection_latency_mean();
        result.interval_retunes = supervisor->controller().retunes();
        result.fenced_workers = run.fenced_workers();
        result.hedges_cancelled = run.hedges_cancelled();
        result.mean_recovery_seconds = run.mean_recovery_seconds();
        result.elastic_shrinks = run.elastic_shrinks();
        result.elastic_grows = run.elastic_grows();
        result.breaker_transitions = supervisor->breaker().transitions();
        result.breaker_opens = supervisor->breaker().opens();
      }
      break;
    }
    case HarnessKind::kSession:
      result.finished = session_->finished();
      result.completed_steps = session_->global_step();
      result.elapsed_seconds = sim_.now();
      result.last_checkpoint_step = session_->last_checkpoint_step();
      break;
    case HarnessKind::kSync:
      result.finished = sync_->finished();
      result.completed_steps = sync_->global_step();
      result.elapsed_seconds = sim_.now();
      break;
    case HarnessKind::kCloud: {
      result.finished = true;
      result.elapsed_seconds = sim_.now();
      result.cost_usd = provider_.total_cost();
      for (const cloud::InstanceRecord& record : provider_.records()) {
        if (record.state == cloud::InstanceState::kRevoked) {
          ++result.revocations;
          if (record.abrupt_kill) ++result.abrupt_kills;
        }
      }
      break;
    }
    case HarnessKind::kFleet: {
      const fleet::FleetStats stats = fleet_->stats();
      result.finished = fleet_->all_done();
      result.completed_steps = static_cast<long>(stats.completed_steps);
      result.elapsed_seconds = sim_.now();
      result.cost_usd = stats.cost_usd;
      result.revocations = static_cast<int>(stats.evictions_total());
      result.tenants = stats.tenants;
      result.tenants_finished = stats.finished;
      result.deadline_hit_rate = stats.deadline_hit_rate();
      result.placements = stats.placements;
      result.evictions_reclaim = stats.evictions_reclaim;
      result.evictions_priceout = stats.evictions_priceout;
      result.migrations = stats.migrations;
      result.usd_per_kstep = stats.usd_per_step() * 1000.0;
      break;
    }
  }
  return result;
}

}  // namespace cmdare::scenario
