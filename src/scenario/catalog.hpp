// Named Monte-Carlo campaigns: the paper's measurement studies expressed
// as scenario sweeps over the one grid engine (exp::run_grid).
//
// Each entry pairs a ScenarioSweep with the replica function that
// realizes one independent sample of the study. The paper's grids — the
// Figure 8 / Table V lifetime census, the launch-placement sweep behind
// the Section V-C ablation, the cluster training-speed sweeps of Tables
// I/III and the fault-injection degradation curves — share six axes,
// region x gpu x model x cluster_size x launch_hour x fault_rate. `model`
// and `fault_rate` are spec keys; the other four are sweep factors the
// replica reads from the cell to build its worker group or pick its
// hazard cell. Their cell order, replica streams and CSV columns are the
// ones these studies have always had (tests/scenario_harness_test.cpp
// pins them). The later studies (detection, fleet, storm, ckpt) sweep
// spec keys only. `scenario_runner <name>` runs any entry; bench_fig8 and
// bench_ablation_launch build their statistics on the same replica
// functions.
#pragma once

#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

namespace cmdare::scenario {

/// A catalog entry: a sweep (base spec, axes, factors, replicas, seed)
/// plus the replica function that samples one cell.
struct NamedScenarioSweep {
  std::string name;
  std::string description;
  ScenarioSweep sweep;
  ScenarioReplicaFn replica;  // empty = harness_replica
};

/// The campaign catalog (run via run_scenario_campaign). Sweeps carry
/// their default replica counts and seeds; callers may override them.
const std::vector<NamedScenarioSweep>& named_sweeps();

/// Sweep lookup; throws std::invalid_argument for unknown names.
const NamedScenarioSweep& sweep_by_name(const std::string& name);

/// Replica functions, exposed so benches and tests can pair them with
/// custom grids. The first four read the region, gpu, cluster_size and
/// launch_hour factors from the cell's settings.
///
/// `lifetime`: samples `samples_per_replica` transient-server lifetimes
/// for the cell's (region, GPU, launch hour); observations: "lifetime_h"
/// (24 h-capped) and "revoked" (0/1). Cells whose (region, GPU) pair the
/// paper did not measure report nothing.
ScenarioReplicaFn lifetime_replica(int samples_per_replica);

/// `launch`: samples `samples_per_replica` revocation outcomes for a job
/// of `duration_hours` launched at the cell's local hour; observation:
/// "revoked_in_job" (0/1) per sample.
ScenarioReplicaFn launch_replica(double duration_hours,
                                 int samples_per_replica);

/// `speed`: runs one training session (cluster_size workers of the
/// cell's GPU on the cell's model, one PS) for the spec's max_steps;
/// observations: "steps_per_s" and "step_ms" (per-worker mean).
exp::ReplicaResult speed_replica(const ScenarioCell& cell, int replica,
                                 util::Rng& rng, obs::Telemetry* telemetry);

/// `resilience`: runs one full TransientTrainingRun (auto-replacement,
/// checkpoints to an ObjectStore) against a cloud with the cell's uniform
/// fault rate plus, when that rate is > 0, one capacity stockout window
/// for the cell's (region, GPU), bounded by the spec's horizon_hours.
/// Observations: "completed" (0/1), "makespan_s" (finished runs only),
/// "cost_usd", "launch_retries", "fallbacks", "slots_abandoned",
/// "revocations", "abrupt_kills", "checkpoints", "faults_injected" —
/// the raw material of the degradation curves in EXPERIMENTS.md.
exp::ReplicaResult resilience_replica(const ScenarioCell& cell, int replica,
                                      util::Rng& rng,
                                      obs::Telemetry* telemetry);

/// `detection`: one supervised TransientTrainingRun per replica on the
/// short-lived europe-west1 K80 pool with every fault notice-less at
/// abrupt_kill_rate=1. Observations: "ttr_s" (revocation -> replacement
/// running, includes detection latency), "detection_latency_s" (p99),
/// "detection_latency_p50_s", "detection_latency_mean_s",
/// "detections", "false_detections", "revocations", "abrupt_kills",
/// "steps", "finished". The catalog sweep crosses
/// supervise.heartbeat_timeout_s x abrupt_kill_rate; EXPERIMENTS.md
/// reads mean ttr_s as a function of the timeout axis.
exp::ReplicaResult detection_replica(const ScenarioCell& cell, int replica,
                                     util::Rng& rng,
                                     obs::Telemetry* telemetry);

/// The base spec behind the `detection` sweep, exposed for tests that
/// want to shrink the grid (fewer replicas, fewer timeout values).
ScenarioSpec detection_scenario();

/// `fleet`: one multi-tenant market run per replica (fleet::FleetSim —
/// finite pools, endogenous pricing/reclamation, global scheduler).
/// Observations: "finished" (fleet drained), "tenants_finished",
/// "deadline_hit_rate", "usd_per_kstep" (the scheduler's objective),
/// "cost_usd", "steps", "placements", "evictions_reclaim",
/// "evictions_priceout", "evictions_total", "migrations". The catalog
/// sweep crosses fleet.tenants x fleet.demand x fleet.scheduler, so the
/// CSV directly answers "does the Eq. 4-aware scheduler beat
/// round-robin, and how fast do endogenous revocations rise with
/// demand?".
exp::ReplicaResult fleet_replica(const ScenarioCell& cell, int replica,
                                 util::Rng& rng, obs::Telemetry* telemetry);

/// The base spec behind the `fleet` sweep and scenarios/fleet.scn: 256
/// tenants on the full 12-pool market, mixed canonical models, a 12 h
/// horizon against an 8 h deadline. Exposed so tests can shrink it.
ScenarioSpec fleet_scenario();

/// `storm`: correlated failure storms vs elastic degraded-mode
/// training. Each cell crosses one OutageStorm intensity (the `storms`
/// axis) with `supervise.elastic.enabled`; the fallback ladder is
/// disabled so the 1-for-1 arm burns its launch-attempt budget into the
/// dead pool and permanently abandons slots, while the elastic arm
/// shrinks through the circuit breaker and regrows after the stockout
/// tail. Observations: "finished", "steps", "time_to_target_s",
/// "cost_usd", "usd_per_kstep", "elastic_shrinks", "elastic_grows",
/// "breaker_opens", "slots_abandoned", "outage_revocations",
/// "outage_denials". EXPERIMENTS.md compares the two arms on
/// usd_per_kstep and time_to_target_s per storm intensity.
exp::ReplicaResult storm_replica(const ScenarioCell& cell, int replica,
                                 util::Rng& rng, obs::Telemetry* telemetry);

/// The base spec behind the `storm` sweep and scenarios/storm.scn: four
/// us-central1 K80s, one 0.6-kill storm with a 90-minute stockout tail,
/// supervision on, elastic off (the sweep axis flips it). Exposed so
/// tests can shrink it.
ScenarioSpec storm_scenario();

/// `ckpt`: durable checkpoint data plane vs flat checkpoints under
/// storage corruption. Each cell crosses `ckpt.enabled` with the
/// bit-rot rate; the plane arm writes generational base+delta
/// checkpoints through the storage tiers, verifies end-to-end on every
/// restore, and falls back across generations when integrity fails.
/// Observations: "finished", "steps", "cost_usd", "restarts",
/// "revocations", "ckpt_base_writes", "ckpt_delta_writes",
/// "ckpt_compactions", "ckpt_quarantines", "ckpt_verified_restores",
/// "ckpt_cold_restarts", "ckpt_tier_cost_usd". EXPERIMENTS.md reads the
/// quarantine/fallback/cold-restart mix as a function of corruption
/// pressure.
exp::ReplicaResult ckpt_replica(const ScenarioCell& cell, int replica,
                                util::Rng& rng, obs::Telemetry* telemetry);

/// The base spec behind the `ckpt` sweep and scenarios/ckpt_tiers.scn:
/// three us-central1 K80s with uniform cloud faults plus write-time
/// bit rot, torn writes and a mid-run regional-tier outage; the plane
/// enabled with a 4-delta chain over 3 retained generations. Exposed so
/// tests can shrink it.
ScenarioSpec ckpt_scenario();

}  // namespace cmdare::scenario
