#include "scenario/catalog.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "cloud/revocation.hpp"
#include "scenario/harness.hpp"
#include "stats/descriptive.hpp"
#include "util/strings.hpp"

namespace cmdare::scenario {

namespace {

/// The paper's measurement grids share six axes, in a CSV column order
/// the catalog goldens pin: region, gpu, model, cluster_size,
/// launch_hour, fault_rate. `model` and `fault_rate` are spec keys; these
/// four are factors the replica reads from the cell (values spelled as
/// the CSV prints them: "us-central1", "K80", "4", "9").
const std::vector<std::string> kGridFactors = {"region", "gpu", "cluster_size",
                                               "launch_hour"};

std::vector<std::string> all_region_names() {
  std::vector<std::string> names;
  for (const cloud::Region region : cloud::kAllRegions) {
    names.emplace_back(cloud::region_name(region));
  }
  return names;
}

std::vector<std::string> all_gpu_names() {
  std::vector<std::string> names;
  for (const cloud::GpuType gpu : cloud::kAllGpuTypes) {
    names.emplace_back(cloud::gpu_name(gpu));
  }
  return names;
}

int int_setting(const ScenarioCell& cell, std::string_view key) {
  int value = 0;
  if (!util::parse_number(cell.setting(key), &value)) {
    throw std::invalid_argument("cell " + std::to_string(cell.index) + ": " +
                                std::string(key) + " = \"" +
                                cell.setting(key) + "\" is not an integer");
  }
  return value;
}

cloud::Region cell_region(const ScenarioCell& cell) {
  return cloud::region_from_name(cell.setting("region"));
}

cloud::GpuType cell_gpu(const ScenarioCell& cell) {
  return cloud::gpu_from_name(cell.setting("gpu"));
}

/// The cell's spec with its one worker group built from the factors:
/// cluster_size transient GPUs of the cell's type in the cell's region.
ScenarioSpec with_cell_workers(const ScenarioCell& cell) {
  ScenarioSpec spec = cell.spec;
  spec.workers = {{int_setting(cell, "cluster_size"), cell_gpu(cell),
                   cell_region(cell), true}};
  return spec;
}

/// Draws `samples` revocation ages for the cell's (region, GPU, launch
/// hour) and hands each (nullopt = survived the 24 h cap) to `observe`.
/// Pairs the paper did not measure draw nothing.
template <typename Observe>
void sample_revocation_ages(const ScenarioCell& cell, int samples,
                            util::Rng& rng, Observe observe) {
  const cloud::Region region = cell_region(cell);
  const cloud::GpuType gpu = cell_gpu(cell);
  if (!cloud::gpu_offered_in_region(region, gpu)) return;
  const double hour = int_setting(cell, "launch_hour");
  const cloud::RevocationModel& hazard = cloud::RevocationModel::calibrated();
  for (int i = 0; i < samples; ++i) {
    observe(hazard.sample_revocation_age_seconds(region, gpu, hour, rng));
  }
}

}  // namespace

ScenarioReplicaFn lifetime_replica(int samples_per_replica) {
  return [samples_per_replica](const ScenarioCell& cell, int /*replica*/,
                               util::Rng& rng, obs::Telemetry* /*telemetry*/) {
    exp::ReplicaResult result;
    sample_revocation_ages(
        cell, samples_per_replica, rng, [&](std::optional<double> age) {
          const double hours =
              age.value_or(cloud::kMaxTransientLifetimeSeconds) / 3600.0;
          result.observe("lifetime_h", hours);
          result.observe("revoked", age ? 1.0 : 0.0);
        });
    return result;
  };
}

ScenarioReplicaFn launch_replica(double duration_hours,
                                 int samples_per_replica) {
  return [duration_hours, samples_per_replica](
             const ScenarioCell& cell, int /*replica*/, util::Rng& rng,
             obs::Telemetry* /*telemetry*/) {
    exp::ReplicaResult result;
    sample_revocation_ages(
        cell, samples_per_replica, rng, [&](std::optional<double> age) {
          result.observe("revoked_in_job",
                         age && *age <= duration_hours * 3600.0 ? 1.0 : 0.0);
        });
    return result;
  };
}

exp::ReplicaResult speed_replica(const ScenarioCell& cell, int /*replica*/,
                                 util::Rng& rng,
                                 obs::Telemetry* /*telemetry*/) {
  const long steps = cell.spec.max_steps;
  const long discard = std::min<long>(100, steps / 4);

  SimHarness harness(with_cell_workers(cell), rng);
  harness.run();
  const train::TrainingSession& session = *harness.session();

  exp::ReplicaResult result;
  result.observe("steps_per_s", session.trace().mean_speed(discard, steps));
  const auto intervals = session.trace().worker_step_intervals(0, discard);
  if (!intervals.empty()) {
    result.observe("step_ms", 1000.0 * stats::mean(intervals));
  }
  return result;
}

exp::ReplicaResult resilience_replica(const ScenarioCell& cell,
                                      int /*replica*/, util::Rng& rng,
                                      obs::Telemetry* /*telemetry*/) {
  exp::ReplicaResult result;
  ScenarioSpec spec = with_cell_workers(cell);
  const WorkerGroup group = spec.workers.front();
  if (!cloud::gpu_offered_in_region(group.region, group.gpu)) return result;

  // The adversarial cloud: the fault_rate axis sets one uniform rate
  // across every injection site; a faulty cell also gets one early
  // capacity stockout for its (region, GPU), long enough that backoff
  // alone cannot wait it out (stockouts_before_fallback retries reach the
  // ladder first).
  if (spec.faults.launch_error_rate > 0.0) {
    faults::StockoutWindow window;
    window.region = group.region;
    window.gpu = group.gpu;
    window.start_s = 300.0;
    window.end_s = window.start_s + 1800.0;
    spec.faults.stockouts.push_back(window);
  }

  SimHarness harness(std::move(spec), rng);
  const ScenarioResult outcome = harness.run();

  result.observe("completed", outcome.finished ? 1.0 : 0.0);
  if (outcome.finished) result.observe("makespan_s", outcome.elapsed_seconds);
  result.observe("cost_usd", outcome.cost_usd);
  result.observe("launch_retries", static_cast<double>(outcome.launch_retries));
  result.observe("fallbacks", static_cast<double>(outcome.fallbacks));
  result.observe("slots_abandoned",
                 static_cast<double>(outcome.slots_abandoned));
  result.observe("revocations", static_cast<double>(outcome.revocations));
  result.observe("abrupt_kills", static_cast<double>(outcome.abrupt_kills));
  result.observe("checkpoints",
                 static_cast<double>(outcome.checkpoint_blobs));
  result.observe("faults_injected",
                 static_cast<double>(outcome.faults_injected));
  return result;
}

ScenarioSpec detection_scenario() {
  ScenarioSpec spec;
  spec.name = "detection";
  spec.kind = HarnessKind::kRun;
  spec.seed = 2031;
  spec.model = "resnet-15";
  // europe-west1 K80s are the paper's die-young pool (>50% revoked within
  // two hours), so a multi-hour run observes revocations without any
  // injected hazard inflation; abrupt_kill_rate strips the notices.
  spec.workers = {{3, cloud::GpuType::kK80, cloud::Region::kEuropeWest1,
                   true}};
  spec.max_steps = 200000;
  spec.checkpoint_interval_steps = 2000;
  spec.horizon_hours = 24.0;
  spec.faults.abrupt_kill_rate = 1.0;
  spec.supervision.enabled = true;
  spec.supervision.heartbeat.period_s = 15.0;
  spec.supervision.heartbeat.timeout_s = 120.0;
  return spec;
}

exp::ReplicaResult detection_replica(const ScenarioCell& cell,
                                     int /*replica*/, util::Rng& rng,
                                     obs::Telemetry* /*telemetry*/) {
  SimHarness harness(cell.spec, rng);
  const ScenarioResult outcome = harness.run();

  exp::ReplicaResult result;
  result.observe("finished", outcome.finished ? 1.0 : 0.0);
  result.observe("steps", static_cast<double>(outcome.completed_steps));
  result.observe("revocations", static_cast<double>(outcome.revocations));
  result.observe("abrupt_kills", static_cast<double>(outcome.abrupt_kills));
  result.observe("detections", static_cast<double>(outcome.detections));
  result.observe("false_detections",
                 static_cast<double>(outcome.false_detections));
  if (outcome.detections > 0) {
    result.observe("detection_latency_s", outcome.detection_latency_p99);
    result.observe("detection_latency_p50_s", outcome.detection_latency_p50);
    result.observe("detection_latency_mean_s", outcome.detection_latency_mean);
  }
  // Recovery spans revocation -> replacement running; for abrupt kills it
  // includes the heartbeat detection latency, which is the quantity the
  // timeout axis trades against false-positive risk.
  if (outcome.mean_recovery_seconds > 0.0) {
    result.observe("ttr_s", outcome.mean_recovery_seconds);
  }
  return result;
}

ScenarioSpec fleet_scenario() {
  ScenarioSpec spec;
  spec.name = "fleet";
  spec.kind = HarnessKind::kFleet;
  spec.seed = 2020;
  spec.model = "resnet-15";
  spec.horizon_hours = 12.0;
  spec.fleet.tenants = 256;
  spec.fleet.workers_per_tenant = 2;
  spec.fleet.min_steps = 20000;
  spec.fleet.max_steps = 80000;
  spec.fleet.checkpoint_interval_steps = 2000;
  spec.fleet.checkpoint_seconds = 10.0;
  spec.fleet.restore_seconds = 30.0;
  spec.fleet.deadline_hours = 8.0;
  spec.fleet.model_mix = true;
  spec.fleet.capacity_per_pool = 24;
  spec.fleet.scheduler = fleet::SchedulerPolicy::kCostOptimal;
  return spec;
}

exp::ReplicaResult fleet_replica(const ScenarioCell& cell, int /*replica*/,
                                 util::Rng& rng,
                                 obs::Telemetry* /*telemetry*/) {
  SimHarness harness(cell.spec, rng);
  const ScenarioResult outcome = harness.run();

  exp::ReplicaResult result;
  result.observe("finished", outcome.finished ? 1.0 : 0.0);
  result.observe("tenants_finished",
                 static_cast<double>(outcome.tenants_finished));
  result.observe("deadline_hit_rate", outcome.deadline_hit_rate);
  result.observe("usd_per_kstep", outcome.usd_per_kstep);
  result.observe("cost_usd", outcome.cost_usd);
  result.observe("steps", static_cast<double>(outcome.completed_steps));
  result.observe("placements", static_cast<double>(outcome.placements));
  result.observe("evictions_reclaim",
                 static_cast<double>(outcome.evictions_reclaim));
  result.observe("evictions_priceout",
                 static_cast<double>(outcome.evictions_priceout));
  result.observe("evictions_total", static_cast<double>(outcome.revocations));
  result.observe("migrations", static_cast<double>(outcome.migrations));
  return result;
}

ScenarioSpec storm_scenario() {
  ScenarioSpec spec;
  spec.name = "storm";
  spec.kind = HarnessKind::kRun;
  spec.seed = 909;
  spec.model = "resnet-15";
  spec.workers = {{4, cloud::GpuType::kK80, cloud::Region::kUsCentral1,
                   true}};
  // ~32 steps/s at full strength: the storm lands mid-run and the
  // post-tail regrow window still matters before the target is hit.
  spec.max_steps = 600000;
  spec.checkpoint_interval_steps = 10000;
  spec.horizon_hours = 12.0;

  // One correlated storm an hour in: a mass-revocation burst followed by
  // a 90-minute stockout tail with inflated hazard and slowed startups.
  // The sweep's `storms` axis overrides this with its intensity grid.
  faults::OutageStorm storm;
  storm.region = cloud::Region::kUsCentral1;
  storm.gpu = cloud::GpuType::kK80;
  storm.start_s = 3600.0;
  storm.end_s = 9000.0;
  storm.kill_fraction = 0.6;
  storm.hazard_multiplier = 4.0;
  storm.startup_slowdown = 2.0;
  spec.faults.storms.push_back(storm);

  // No fallback ladder: the study isolates membership policy, so a
  // stockout either retries into the struck pool (1-for-1 arm, which
  // exhausts max_launch_attempts and abandons the slot) or defers the
  // slot through the breaker (elastic arm).
  spec.resilience.allow_region_fallback = false;
  spec.resilience.allow_gpu_fallback = false;
  spec.resilience.allow_on_demand_fallback = false;

  spec.supervision.enabled = true;
  spec.supervision.heartbeat.period_s = 15.0;
  spec.supervision.heartbeat.timeout_s = 120.0;
  // Elastic off in the base; the sweep axis flips it. The knobs below
  // are shared by both arms so the axis isolates the policy itself.
  spec.supervision.elastic.enabled = false;
  spec.supervision.elastic.min_workers = 1;
  spec.supervision.elastic.grow_hysteresis_s = 120.0;
  spec.supervision.elastic.futility_threshold = 0.5;
  return spec;
}

exp::ReplicaResult storm_replica(const ScenarioCell& cell, int /*replica*/,
                                 util::Rng& rng,
                                 obs::Telemetry* /*telemetry*/) {
  SimHarness harness(cell.spec, rng);
  const ScenarioResult outcome = harness.run();

  exp::ReplicaResult result;
  result.observe("finished", outcome.finished ? 1.0 : 0.0);
  result.observe("steps", static_cast<double>(outcome.completed_steps));
  // elapsed_seconds is the makespan when finished and the horizon
  // otherwise, so it is directly the time-to-target objective (lower is
  // better; unfinished runs saturate at the deadline).
  result.observe("time_to_target_s", outcome.elapsed_seconds);
  result.observe("cost_usd", outcome.cost_usd);
  if (outcome.completed_steps > 0) {
    result.observe("usd_per_kstep",
                   1000.0 * outcome.cost_usd /
                       static_cast<double>(outcome.completed_steps));
  }
  result.observe("revocations", static_cast<double>(outcome.revocations));
  result.observe("outage_revocations",
                 static_cast<double>(outcome.outage_revocations));
  result.observe("outage_denials",
                 static_cast<double>(outcome.outage_denials));
  result.observe("launch_retries",
                 static_cast<double>(outcome.launch_retries));
  result.observe("slots_abandoned",
                 static_cast<double>(outcome.slots_abandoned));
  result.observe("elastic_shrinks",
                 static_cast<double>(outcome.elastic_shrinks));
  result.observe("elastic_grows",
                 static_cast<double>(outcome.elastic_grows));
  result.observe("breaker_opens",
                 static_cast<double>(outcome.breaker_opens));
  result.observe("breaker_transitions",
                 static_cast<double>(outcome.breaker_transitions));
  return result;
}

ScenarioSpec ckpt_scenario() {
  ScenarioSpec spec;
  spec.name = "ckpt_tiers";
  spec.kind = HarnessKind::kRun;
  spec.seed = 1111;
  spec.model = "resnet-15";
  spec.workers = {{3, cloud::GpuType::kK80, cloud::Region::kUsCentral1,
                   true}};
  // Short enough that one replica stays cheap, long enough that several
  // checkpoint generations accumulate and revocations force restores
  // through the verify/fallback path.
  spec.max_steps = 200000;
  spec.checkpoint_interval_steps = 8000;
  spec.horizon_hours = 8.0;
  // Vanilla TF so chief revocations force rollbacks to the newest
  // *restorable* checkpoint — the exact moment the plane's end-to-end
  // verification and generational fallback earn their keep.
  spec.ft_mode = train::FaultToleranceMode::kVanillaTf;

  // Cloud faults drive restores; storage faults decide whether the
  // restored bytes can be trusted. The sweep's ckpt.bit_rot_rate axis
  // overrides the rot pressure per cell.
  spec.faults = faults::FaultPlan::uniform(0.1);
  spec.faults.bit_rot_rate = 0.02;
  spec.faults.torn_write_rate = 0.02;

  // One correlated burst an hour in guarantees chief-killing revocations
  // (and therefore restores) at every replica; the natural K80 hazard
  // alone leaves short runs untouched at many seeds.
  faults::OutageStorm storm;
  storm.region = cloud::Region::kUsCentral1;
  storm.gpu = cloud::GpuType::kK80;
  storm.start_s = 3600.0;
  storm.end_s = 5400.0;
  storm.kill_fraction = 0.7;
  storm.hazard_multiplier = 2.0;
  storm.startup_slowdown = 1.5;
  spec.faults.storms.push_back(storm);

  // A mid-run regional outage: bases live on the regional tier, so
  // restores inside the window must skip (not quarantine) the newest
  // generation and either fall back or retry after the window.
  faults::TierOutageWindow outage;
  outage.tier = cloud::StorageTier::kRegional;
  outage.start_s = 7200.0;
  outage.end_s = 10800.0;
  spec.faults.tier_outages.push_back(outage);

  spec.ckpt.enabled = true;
  spec.ckpt.delta_ratio = 0.12;
  spec.ckpt.max_delta_chain = 4;
  spec.ckpt.max_generations = 3;
  return spec;
}

exp::ReplicaResult ckpt_replica(const ScenarioCell& cell, int /*replica*/,
                                util::Rng& rng,
                                obs::Telemetry* /*telemetry*/) {
  SimHarness harness(cell.spec, rng);
  const ScenarioResult outcome = harness.run();

  exp::ReplicaResult result;
  result.observe("finished", outcome.finished ? 1.0 : 0.0);
  result.observe("steps", static_cast<double>(outcome.completed_steps));
  result.observe("cost_usd", outcome.cost_usd);
  result.observe("restarts", static_cast<double>(outcome.restarts));
  result.observe("revocations", static_cast<double>(outcome.revocations));
  result.observe("ckpt_base_writes",
                 static_cast<double>(outcome.ckpt_base_writes));
  result.observe("ckpt_delta_writes",
                 static_cast<double>(outcome.ckpt_delta_writes));
  result.observe("ckpt_compactions",
                 static_cast<double>(outcome.ckpt_compactions));
  result.observe("ckpt_quarantines",
                 static_cast<double>(outcome.ckpt_quarantines));
  result.observe("ckpt_verified_restores",
                 static_cast<double>(outcome.ckpt_verified_restores));
  result.observe("ckpt_cold_restarts",
                 static_cast<double>(outcome.ckpt_cold_restarts));
  result.observe("ckpt_tier_cost_usd", outcome.ckpt_tier_cost_usd);
  return result;
}

const std::vector<NamedScenarioSweep>& named_sweeps() {
  static const std::vector<NamedScenarioSweep> sweeps = [] {
    std::vector<NamedScenarioSweep> list;

    // The hazard-sampling studies draw from the calibrated revocation
    // model only: a cloud-kind base with no step budget.
    ScenarioSpec hazard_base;
    hazard_base.kind = HarnessKind::kCloud;
    hazard_base.max_steps = 0;

    {
      NamedScenarioSweep s;
      s.name = "lifetime";
      s.description =
          "Fig. 8 / Table V: transient lifetimes and 24 h revocation "
          "fractions over every measured (region, GPU) pair";
      s.sweep.name = s.name;
      s.sweep.base = hazard_base;
      s.sweep.axes = {
          {"region", all_region_names()},
          {"gpu", all_gpu_names()},
          {"model", {"resnet-15"}},
          {"cluster_size", {"1"}},
          {"launch_hour",
           {std::to_string(
               static_cast<int>(cloud::kReferenceLaunchLocalHour))}},
          {"fault_rate", {"0.00"}},
      };
      s.sweep.factors = kGridFactors;
      s.sweep.replicas = 64;
      s.sweep.seed = 8;
      s.replica = lifetime_replica(50);
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "launch";
      s.description =
          "Section V-C ablation grid: P(revoked within an 8 h job) over "
          "(region, GPU, local launch hour)";
      s.sweep.name = s.name;
      s.sweep.base = hazard_base;
      s.sweep.axes = {
          {"region", all_region_names()},
          {"gpu", all_gpu_names()},
          {"model", {"resnet-15"}},
          {"cluster_size", {"1"}},
          {"launch_hour", {"0", "4", "8", "12", "16", "20"}},
          {"fault_rate", {"0.00"}},
      };
      s.sweep.factors = kGridFactors;
      s.sweep.replicas = 64;
      s.sweep.seed = 1000;
      s.replica = launch_replica(8.0, 25);
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "speed";
      s.description =
          "Tables I/III: training speed distributions per (GPU, cluster "
          "size) for ResNet-15/32, one PS";
      s.sweep.name = s.name;
      s.sweep.base.kind = HarnessKind::kSession;
      s.sweep.base.max_steps = 800;
      // Replaced per cell from the region/gpu/cluster_size factors.
      s.sweep.base.workers = {
          {1, cloud::GpuType::kK80, cloud::Region::kUsCentral1, true}};
      s.sweep.axes = {
          {"region", {"us-central1"}},
          {"gpu", all_gpu_names()},
          {"model", {"resnet-15", "resnet-32"}},
          {"cluster_size", {"1", "4"}},
          {"launch_hour", {"9"}},
          {"fault_rate", {"0.00"}},
      };
      s.sweep.factors = kGridFactors;
      s.sweep.replicas = 16;
      s.sweep.seed = 42;
      s.replica = speed_replica;
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "resilience";
      s.description =
          "Degradation curves under injected cloud faults: completion "
          "rate, makespan, cost and retry/fallback counts vs fault rate";
      s.sweep.name = s.name;
      s.sweep.base.kind = HarnessKind::kRun;
      s.sweep.base.max_steps = 400;
      s.sweep.base.checkpoint_interval_steps = 100;
      s.sweep.base.horizon_hours = 48.0;
      // Replaced per cell from the region/gpu/cluster_size factors.
      s.sweep.base.workers = {
          {2, cloud::GpuType::kK80, cloud::Region::kUsCentral1, true}};
      s.sweep.axes = {
          {"region", {"us-central1"}},
          {"gpu", {"K80"}},
          {"model", {"resnet-15"}},
          {"cluster_size", {"2"}},
          {"launch_hour", {"9"}},
          {"fault_rate", {"0.00", "0.05", "0.10", "0.20"}},
      };
      s.sweep.factors = kGridFactors;
      s.sweep.replicas = 8;
      s.sweep.seed = 77;
      s.replica = resilience_replica;
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "detection";

      s.description =
          "Supervision study: time-to-recovery and detection latency vs "
          "heartbeat timeout under notice-less revocations";
      s.sweep.name = s.name;
      s.sweep.base = detection_scenario();
      s.sweep.axes = {
          {"supervise.heartbeat_timeout_s", {"60", "300", "900"}},
          {"abrupt_kill_rate", {"0.5", "1"}},
      };
      s.sweep.replicas = 6;
      s.sweep.seed = 505;
      s.replica = detection_replica;
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "fleet";
      s.description =
          "Fleet market study: $/step, deadline hit rate and endogenous "
          "eviction mix vs tenant count, demand intensity and scheduler "
          "policy";
      s.sweep.name = s.name;
      s.sweep.base = fleet_scenario();
      s.sweep.axes = {
          {"fleet.tenants", {"128", "256"}},
          {"fleet.demand", {"0.5", "1", "2"}},
          {"fleet.scheduler", {"round-robin", "cost-optimal"}},
      };
      s.sweep.replicas = 3;
      s.sweep.seed = 2020;
      s.replica = fleet_replica;
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "storm";
      s.description =
          "Correlated-failure study: $/kstep and time-to-target for "
          "elastic degraded-mode training vs 1-for-1 replacement under "
          "outage storms of rising intensity";
      s.sweep.name = s.name;
      s.sweep.base = storm_scenario();
      s.sweep.axes = {
          {"storms",
           {"us-central1/K80 @ 3600..9000 kill=0.5 hazard=4 slow=2",
            "us-central1/K80 @ 3600..9000 kill=0.9 hazard=4 slow=2"}},
          {"supervise.elastic.enabled", {"false", "true"}},
      };
      s.sweep.replicas = 3;
      s.sweep.seed = 909;
      s.replica = storm_replica;
      list.push_back(std::move(s));
    }

    {
      NamedScenarioSweep s;
      s.name = "ckpt";
      s.description =
          "Checkpoint data-plane study: quarantine / fallback / "
          "cold-restart mix and tier spend for the generational plane vs "
          "flat checkpoints as silent-corruption pressure rises";
      s.sweep.name = s.name;
      s.sweep.base = ckpt_scenario();
      s.sweep.axes = {
          {"ckpt.enabled", {"false", "true"}},
          {"ckpt.bit_rot_rate", {"0", "0.05", "0.2"}},
      };
      s.sweep.replicas = 4;
      s.sweep.seed = 1111;
      s.replica = ckpt_replica;
      list.push_back(std::move(s));
    }

    return list;
  }();
  return sweeps;
}

const NamedScenarioSweep& sweep_by_name(const std::string& name) {
  for (const NamedScenarioSweep& s : named_sweeps()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("sweep_by_name: unknown sweep " + name);
}

}  // namespace cmdare::scenario
