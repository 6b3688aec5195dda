// The campaign workloads, run through the public scenario entry points
// exactly as scenario_runner does: scenario::parse / validate / expand for
// set-up, scenario::run_scenario_campaign on one thread per round,
// ScenarioCampaignResult::write_csv, and with telemetry on
// obs::write_ledger_jsonl + obs::analyze::analyze_ledger on the merged
// ledger.
//
//   sweep_short  kind {run, session, sync} x model {resnet-15, resnet-32,
//                shake-shake-small}, 500-step replicas: fixed per-replica
//                cost (validate, model lookup, harness construction)
//                dominates.
//   long_runs    the storm / ckpt_tiers / supervise / fleet specs with
//                telemetry off: the event loop and the layers under it
//                dominate.
//
// A round runs every cell of the workload once, seeded from the benchmark
// seed and the round's index. The untraced run runs rounds 0, 1, 2, ...
// for --seconds, after round 0 once as warm-up (see measure). Round 0 must
// repeat the warm-up's CSV, and it runs once more with telemetry captured:
// its CSV must not change (telemetry is observational only), its merged
// ledger must satisfy Eq. 4, and both are pinned at the pinned seeds. The
// traced run re-composes the replica (SimHarness build, then run, with
// spans around each call) and must give harness_replica's outputs; its
// telemetry round gives the obs layer's metrics.
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "obs/analyze.hpp"
#include "obs/ledger.hpp"
#include "scenario/harness.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

namespace scn = cmdare::scenario;
namespace obs = cmdare::obs;
using cmdare::util::Rng;

// Replicas per cell per round. sweep_short: 9 cells x 20 = 180 replicas
// of ~0.5 ms; a 30 s run has thousands per cell, enough for a p99 with
// ten samples beyond it. long_runs: one replica per cell; each is
// 0.05-0.4 s of event loop.
constexpr int kSweepReplicas = 20;
constexpr int kLongReplicas = 1;
// The traced run alternates this many untraced and traced rounds.
constexpr int kTracedRoundsSweep = 5;
constexpr int kTracedRoundsLong = 1;

const char* const kLongCells[] = {"storm", "ckpt_tiers", "supervise", "fleet"};

struct SpecText {
  std::string name;
  std::string text;
};

struct Plan {
  std::vector<scn::ScenarioSweep> sweeps;
  bool telemetry = false;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::uint64_t sweep_seed(std::uint64_t seed, const std::string& name,
                         int round) {
  return Rng(seed)
      .fork(name)
      .fork(static_cast<std::uint64_t>(round))
      .next_u64();
}

/// The workload's set-up: parse and validate each spec text, then expand
/// its sweep. run_scenario_campaign expands again, as it does for every
/// caller; the expansion here is what set-up costs a user who inspects
/// the grid first, and it rejects a bad grid before any replica runs.
Plan make_plan(const Options& options, const std::vector<SpecText>& texts,
               bool telemetry, SpanLog* spans) {
  Plan plan;
  plan.telemetry = telemetry;
  for (const SpecText& spec_text : texts) {
    scn::ParseResult parsed;
    {
      ScopedSpan span(spans, "scenario.parse");
      parsed = scn::parse(spec_text.text);
    }
    if (!parsed.ok()) {
      throw std::runtime_error(spec_text.name + ": " +
                               parsed.diagnostics.front().message);
    }
    scn::ScenarioSweep sweep;
    sweep.name = spec_text.name;
    sweep.base = std::move(parsed.spec);
    sweep.base.telemetry = telemetry;
    sweep.seed = sweep_seed(options.seed, spec_text.name, 0);
    if (options.workload == "sweep_short") {
      sweep.axes = {{"kind", {"run", "session", "sync"}},
                    {"model", {"resnet-15", "resnet-32", "shake-shake-small"}}};
      sweep.replicas = kSweepReplicas;
    } else {
      sweep.replicas = kLongReplicas;
    }
    {
      ScopedSpan span(spans, "scenario.validate");
      const std::vector<std::string> errors = scn::validate(sweep.base);
      if (!errors.empty()) {
        throw std::runtime_error(spec_text.name + ": " + errors.front());
      }
    }
    {
      ScopedSpan span(spans, "scenario.expand");
      (void)scn::expand(sweep);
    }
    plan.sweeps.push_back(std::move(sweep));
  }
  return plan;
}

/// Simulated statistics per cell label, summed over the traced rounds.
using Counts = std::map<std::string, std::map<std::string, double>>;

struct Round {
  /// First replica's start until the CSV (and ledger) are written and the
  /// campaign result is freed.
  double seconds = 0.0;
  std::vector<double> replica_ms;
  /// Workload-wide cell index of each replica_ms entry.
  std::vector<int> replica_cell;
  /// Summed replica time per sweep, for per-cell telemetry overhead.
  std::vector<double> sweep_ms;
  std::string csv;
  std::string ledger;
  long replicas = 0;
  long failed = 0;
  /// Sweeps whose merged ledger broke the Eq. 4 identity (buckets must
  /// sum to the billed spend).
  std::vector<std::string> identity_errors;
  // Traced rounds only.
  long fleet_replicas = 0;
  double obs_spans = 0.0;
  double ledger_events = 0.0;
  double ledger_bytes = 0.0;
};

std::string identity_error(const obs::analyze::CostDecomposition& cost) {
  const double usd_gap = std::fabs(cost.classified_usd() - cost.billed_usd);
  const double s_gap =
      std::fabs(cost.classified_seconds() - cost.billed_seconds);
  if (usd_gap <= 1e-9 * std::max(1.0, cost.billed_usd) &&
      s_gap <= 1e-9 * std::max(1.0, cost.billed_seconds)) {
    return "";
  }
  return "classified $" +
         cmdare::util::format_double(cost.classified_usd(), 12) +
         " vs billed $" + cmdare::util::format_double(cost.billed_usd, 12);
}

/// The traced replica: scenario::harness_replica re-composed from its
/// public calls (SimHarness build, then run) with a span around each, plus
/// the simulated statistics the observations leave out.
cmdare::exp::ReplicaResult traced_replica(const scn::ScenarioCell& cell,
                                          const std::string& sweep_name,
                                          Rng& rng, long id, SpanLog* spans,
                                          Round& round, Counts& counts) {
  ScopedSpan replica_span(spans, "scenario.replica", id);
  std::optional<scn::SimHarness> harness;
  {
    ScopedSpan span(spans, "scenario.build", id);
    harness.emplace(cell.spec, rng);
  }
  const bool fleet = cell.spec.kind == scn::HarnessKind::kFleet;
  scn::ScenarioResult outcome;
  {
    ScopedSpan span(spans, fleet ? "fleet.run" : "scenario.run", id);
    outcome = harness->run();
  }
  round.fleet_replicas += fleet ? 1 : 0;

  // The observations of scenario::harness_replica, in its order.
  cmdare::exp::ReplicaResult result;
  result.observe("finished", outcome.finished ? 1.0 : 0.0);
  result.observe("steps", static_cast<double>(outcome.completed_steps));
  result.observe("makespan_s", outcome.elapsed_seconds);
  result.observe("cost_usd", outcome.cost_usd);
  result.observe("revocations", static_cast<double>(outcome.revocations));
  result.observe("launch_retries",
                 static_cast<double>(outcome.launch_retries));
  result.observe("checkpoints", static_cast<double>(outcome.checkpoint_blobs));
  result.observe("faults_injected",
                 static_cast<double>(outcome.faults_injected));

  std::map<std::string, double>& c = counts[sweep_name + "/" + cell.label()];
  c["train.steps"] += static_cast<double>(outcome.completed_steps);
  c["cloud.revocations"] += outcome.revocations;
  c["cloud.replacements"] += outcome.replacements;
  c["cloud.launch_retries"] += outcome.launch_retries;
  c["faults.injected"] += static_cast<double>(outcome.faults_injected);
  c["ckpt.base_writes"] += static_cast<double>(outcome.ckpt_base_writes);
  c["ckpt.delta_writes"] += static_cast<double>(outcome.ckpt_delta_writes);
  c["ckpt.verified_restores"] +=
      static_cast<double>(outcome.ckpt_verified_restores);
  c["ckpt.quarantines"] += static_cast<double>(outcome.ckpt_quarantines);
  c["supervise.detections"] += outcome.detections;
  c["supervise.elastic_shrinks"] += outcome.elastic_shrinks;
  c["fleet.placements"] += static_cast<double>(outcome.placements);
  c["fleet.migrations"] += static_cast<double>(outcome.migrations);
  c["simcore.events"] +=
      static_cast<double>(harness->simulator().events_fired());
  return result;
}

/// Round `index` over every sweep of the plan, each sweep seeded from the
/// benchmark seed and the round index, so a run covers many distinct
/// replicas. With `spans` null the replica is scenario::harness_replica
/// behind a timer; otherwise it is traced_replica, counting into `counts`.
Round run_round(const Options& options, const Plan& plan, int index,
                SpanLog* spans, Counts* counts) {
  Round round;
  std::optional<Clock::time_point> first;
  long next_id = 0;
  int first_cell = 0;  // workload-wide index of the sweep's cell 0
  for (scn::ScenarioSweep sweep : plan.sweeps) {
    sweep.seed = sweep_seed(options.seed, sweep.name, index);
    cmdare::exp::RunOptions run_options;
    run_options.jobs = 1;
    run_options.capture_telemetry = plan.telemetry;
    double sweep_ms = 0.0;
    const scn::ScenarioReplicaFn replica =
        [&](const scn::ScenarioCell& cell, int r, Rng& rng,
            obs::Telemetry* telemetry) {
          const auto t0 = Clock::now();
          if (!first) first = t0;
          cmdare::exp::ReplicaResult result =
              spans ? traced_replica(cell, sweep.name, rng, next_id++, spans,
                                     round, *counts)
                    : scn::harness_replica(cell, r, rng, telemetry);
          const double ms = ms_between(t0, Clock::now());
          round.replica_ms.push_back(ms);
          round.replica_cell.push_back(first_cell +
                                       static_cast<int>(cell.index));
          sweep_ms += ms;
          return result;
        };

    std::optional<scn::ScenarioCampaignResult> result;
    {
      ScopedSpan span(spans, "exp.run_grid");
      result.emplace(scn::run_scenario_campaign(sweep, run_options, replica));
    }
    first_cell += static_cast<int>(result->cells.size());
    round.replicas += static_cast<long>(result->progress.replicas_total);
    round.failed += static_cast<long>(result->progress.replicas_failed);
    {
      ScopedSpan span(spans, "exp.csv_write");
      std::ostringstream csv;
      result->write_csv(csv);
      round.csv += csv.str();
    }
    if (plan.telemetry) {
      if (!result->telemetry) {
        throw std::runtime_error(sweep.name + ": no merged telemetry");
      }
      const obs::Ledger& ledger = result->telemetry->ledger;
      std::ostringstream jsonl;
      {
        ScopedSpan span(spans, "obs.ledger_write");
        obs::write_ledger_jsonl(ledger, jsonl);
      }
      round.ledger += jsonl.str();
      {
        ScopedSpan span(spans, "obs.analyze");
        const std::string error =
            identity_error(obs::analyze::analyze_ledger(ledger).cost);
        if (!error.empty()) {
          round.identity_errors.push_back(sweep.name + ": " + error);
        }
      }
      round.obs_spans +=
          static_cast<double>(result->telemetry->tracer.spans().size());
      round.ledger_events += static_cast<double>(ledger.size());
      round.ledger_bytes += static_cast<double>(jsonl.tellp());
    }
    {
      ScopedSpan span(spans, plan.telemetry ? "obs.teardown" : "exp.free");
      result.reset();
    }
    round.sweep_ms.push_back(sweep_ms);
  }
  round.seconds = seconds_between(*first, Clock::now());
  return round;
}

/// Failed replicas and Eq. 4 identity breaks of one round.
void check_round(const Round& round, const std::string& what, Outcome& out) {
  out.attempted += round.replicas;
  out.failed += round.failed;
  if (round.failed > 0) {
    out.failures.push_back(what + ": " + std::to_string(round.failed) +
                           " replicas failed");
  }
  for (const std::string& error : round.identity_errors) {
    out.check(false,
              what + ": Eq. 4 buckets do not sum to billed spend: " + error);
  }
}

/// Round 0 is the one whose outputs are pinned and cross-checked against
/// `with_telemetry`, the same round run with telemetry captured.
void check_round0(const Options& options, const Plan& plan,
                  const Round& round0, const Round& with_telemetry,
                  Outcome& out) {
  check_round(with_telemetry, "round 0 with telemetry", out);
  out.check(with_telemetry.csv == round0.csv,
            "round 0 CSV changes when telemetry is on");
  out.check_pin(options, "csv", digest(round0.csv));
  out.check_pin(options, "ledger", digest(with_telemetry.ledger));
  out.raw["csv_digest"] = cmdare::util::json::make_string(digest(round0.csv));
  out.raw["ledger_digest"] =
      cmdare::util::json::make_string(digest(with_telemetry.ledger));
  // Round 0's sweep seeds, to reproduce it with scenario_runner --seed.
  cmdare::util::json::Object seeds;
  for (const scn::ScenarioSweep& sweep : plan.sweeps) {
    seeds[sweep.name] =
        cmdare::util::json::make_string(std::to_string(sweep.seed));
  }
  out.raw["round0_sweep_seeds"] =
      cmdare::util::json::make_object(std::move(seeds));
}

/// The process's peak RSS is read after this many rounds: a fixed share of
/// the workload, so that it does not grow with the samples a faster
/// program leaves the benchmark to keep.
int rss_rounds(const Options& options) {
  return options.workload == "sweep_short" ? 50 : 8;  // 9000 / 32 replicas
}

/// The untraced run: round 0 once as warm-up, then rounds 0, 1, 2, ...
/// (each seeded anew, so every replica is distinct) for --seconds of wall
/// time, with the reference kernel timed before the first round and after
/// every one. Replica, round and set-up CPU times are scaled by the
/// reference around them (Calibration) and summarised by medians.
void measure(const Options& options, const std::vector<SpecText>& texts,
             Outcome& out) {
  const Round warm_up = run_round(
      options, make_plan(options, texts, false, nullptr), 0, nullptr, nullptr);
  check_round(warm_up, "warm-up round 0", out);

  Calibration calibration;
  // Set-up k makes round k's plan; set-up k + 1 runs just after round k,
  // so both count under round k's scale.
  std::vector<double> setup_s, setup_round, round_s, round_replicas;
  std::vector<double> replica_ms, replica_cell, replica_round;
  std::optional<Round> round0;
  double rss = 0.0;
  const auto time_setup = [&](int round) {
    const auto t0 = Clock::now();
    Plan plan = make_plan(options, texts, false, nullptr);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_round.push_back(round);
    return plan;
  };
  Plan plan = time_setup(0);
  const auto start = WallClock::now();
  const auto cpu_start = Clock::now();
  int rounds = 0;
  while (seconds_between(start, WallClock::now()) < options.seconds) {
    calibration.time_reference();
    Round round = run_round(options, plan, rounds, nullptr, nullptr);
    plan = time_setup(rounds);
    check_round(round, "round " + std::to_string(rounds), out);
    for (std::size_t i = 0; i < round.replica_ms.size(); ++i) {
      replica_ms.push_back(round.replica_ms[i]);
      replica_cell.push_back(round.replica_cell[i]);
      replica_round.push_back(rounds);
    }
    round_s.push_back(round.seconds);
    round_replicas.push_back(static_cast<double>(round.replica_ms.size()));
    if (rounds == 0) round0 = std::move(round);
    if (++rounds == rss_rounds(options)) rss = peak_rss_mb();
  }
  calibration.time_reference();
  if (rss == 0.0) rss = peak_rss_mb();
  out.info["wall_over_cpu"] = seconds_between(start, WallClock::now()) /
                              seconds_between(cpu_start, Clock::now());

  out.check(digest(round0->csv) == digest(warm_up.csv),
            "round 0: CSV differs from the warm-up run of the same round");
  check_round0(options, plan, *round0,
               run_round(options, make_plan(options, texts, true, nullptr), 0,
                         nullptr, nullptr),
               out);

  const std::vector<double> scale = calibration.scales();
  const auto scale_of = [&scale](double round) {
    return scale[static_cast<std::size_t>(round)];
  };
  // Throughput is the median of the rounds' rates: a round's cost swings
  // with its seeds (a storm replica that loses every worker ends early),
  // and the median does not move with how many such rounds a run drew.
  std::vector<double> round_rate;
  for (std::size_t k = 0; k < round_s.size(); ++k) {
    round_rate.push_back(round_replicas[k] / (round_s[k] * scale[k]));
  }
  std::vector<std::vector<double>> by_cell;
  for (std::size_t i = 0; i < replica_ms.size(); ++i) {
    const auto cell = static_cast<std::size_t>(replica_cell[i]);
    if (by_cell.size() <= cell) by_cell.resize(cell + 1);
    by_cell[cell].push_back(replica_ms[i] * scale_of(replica_round[i]));
  }
  std::vector<double> scaled_setup_s;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    scaled_setup_s.push_back(setup_s[i] * scale_of(setup_round[i]));
  }
  double q = 0.0;
  out.metrics["replicas_per_s"] = median(round_rate);
  out.metrics["replica_ms_p50"] = cell_median(by_cell);
  out.metrics["replica_ms_p99"] = cell_tail(by_cell, q);
  out.metrics["setup_s"] = median(scaled_setup_s);
  out.metrics["peak_rss_mb"] = rss;
  out.info["replica_ms_p99_quantile"] = q;
  out.info["reference_ms_median"] = median(calibration.reference);
  out.info["scale_median"] = median(scale);
  out.samples["replicas_per_s"] = static_cast<long>(round_s.size());
  out.samples["replica_ms_p50"] = static_cast<long>(replica_ms.size());
  out.samples["replica_ms_p99"] = static_cast<long>(replica_ms.size());
  out.samples["setup_s"] = static_cast<long>(setup_s.size());
  out.samples["peak_rss_mb"] = 1;
  out.keep_raw("replica_ms_cpu", replica_ms);
  out.keep_raw("replica_cell", replica_cell);
  out.keep_raw("replica_round", replica_round);
  out.keep_raw("round_s_cpu", round_s);
  out.keep_raw("setup_s_cpu", setup_s);
  out.keep_raw("setup_round", setup_round);
  out.keep_raw("reference_ms", calibration.reference);
  out.keep_raw("scale", scale);
}

/// Total span time (or self time) per name, 0 for a name never seen.
double ns_of(const std::map<std::string, double>& by_name, const char* name) {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second;
}

/// The obs layer: round 0 with telemetry captured, untraced then traced,
/// against `round0` (the same round with telemetry off).
void trace_obs(const Options& options, const std::vector<SpecText>& texts,
               const Round& round0, const Counts& counts0, Outcome& out) {
  SpanLog* spans = &out.spans;
  const Plan telemetry = make_plan(options, texts, true, nullptr);
  const Round plain = run_round(options, telemetry, 0, nullptr, nullptr);
  check_round0(options, telemetry, round0, plain, out);
  const std::size_t first_span = spans->spans().size();
  Counts counts;
  const Round traced = run_round(options, telemetry, 0, spans, &counts);
  check_round(traced, "traced round 0 with telemetry", out);
  out.check(traced.csv == plain.csv && traced.ledger == plain.ledger,
            "traced round 0 with telemetry: outputs differ from "
            "harness_replica's");
  out.check(counts == counts0,
            "simulated statistics change when telemetry is on");

  const std::map<std::string, double> total =
      spans->total_ns_by_name(first_span);
  out.metrics["obs.spans"] = traced.obs_spans;
  out.metrics["obs.ledger_events"] = traced.ledger_events;
  out.metrics["obs.ledger_bytes"] = traced.ledger_bytes;
  out.metrics["obs.ledger_write_ms"] = ns_of(total, "obs.ledger_write") / 1e6;
  out.metrics["obs.analyze_ms"] = ns_of(total, "obs.analyze") / 1e6;
  out.metrics["obs.teardown_ms"] = ns_of(total, "obs.teardown") / 1e6;
  out.metrics["obs.self_ms"] =
      (ns_of(total, "obs.ledger_write") + ns_of(total, "obs.analyze") +
       ns_of(total, "obs.teardown")) /
      static_cast<double>(traced.replicas) / 1e6;
  // Telemetry overhead per cell: the untraced replicas with telemetry on
  // against the same replicas with it off.
  cmdare::util::json::Object per_cell;
  double on_ms = 0.0, off_ms = 0.0;
  for (std::size_t s = 0; s < telemetry.sweeps.size(); ++s) {
    per_cell[telemetry.sweeps[s].name] = cmdare::util::json::make_number(
        (plain.sweep_ms[s] / round0.sweep_ms[s] - 1.0) * 100.0);
    on_ms += plain.sweep_ms[s];
    off_ms += round0.sweep_ms[s];
  }
  out.metrics["obs.overhead_pct"] = (on_ms / off_ms - 1.0) * 100.0;
  out.raw["obs.overhead_pct_by_cell"] =
      cmdare::util::json::make_object(std::move(per_cell));
}

/// The traced run: per-layer metrics from spans around each public call,
/// and the simulated-statistic counts of its rounds.
void trace(const Options& options, const std::vector<SpecText>& texts,
           Outcome& out) {
  SpanLog* spans = &out.spans;
  constexpr int kTracedSetups = 5;
  std::optional<Plan> plan;
  for (int i = 0; i < kTracedSetups; ++i) {
    plan = make_plan(options, texts, false, spans);
  }
  const std::map<std::string, double> setup_ns = spans->total_ns_by_name();
  out.metrics["scenario.parse_us"] =
      setup_ns.at("scenario.parse") / kTracedSetups / 1e3;
  out.metrics["scenario.validate_us"] =
      setup_ns.at("scenario.validate") / kTracedSetups / 1e3;
  out.metrics["scenario.expand_ms"] =
      setup_ns.at("scenario.expand") / kTracedSetups / 1e6;

  // Untraced and traced rounds alternate; each traced round must give the
  // untraced round's outputs.
  const int rounds = options.workload == "sweep_short" ? kTracedRoundsSweep
                                                        : kTracedRoundsLong;
  const std::size_t first_round_span = spans->spans().size();
  std::vector<double> plain_s, traced_s;
  std::optional<Round> round0;
  Counts counts, counts0;
  double replicas = 0.0, fleet_replicas = 0.0;
  for (int k = 0; k < rounds; ++k) {
    Round plain = run_round(options, *plan, k, nullptr, nullptr);
    const Round traced = run_round(options, *plan, k, spans, &counts);
    check_round(plain, "untraced round " + std::to_string(k), out);
    check_round(traced, "traced round " + std::to_string(k), out);
    out.check(traced.csv == plain.csv,
              "traced round " + std::to_string(k) +
                  ": re-composed replica outputs differ from harness_replica");
    plain_s.push_back(plain.seconds);
    traced_s.push_back(traced.seconds);
    replicas += static_cast<double>(traced.replicas);
    fleet_replicas += static_cast<double>(traced.fleet_replicas);
    if (k == 0) {
      round0 = std::move(plain);
      counts0 = counts;
    }
  }

  const std::map<std::string, double> total =
      spans->total_ns_by_name(first_round_span);
  const std::map<std::string, double> self =
      spans->self_ns_by_name(first_round_span);
  out.metrics["bench.trace_overhead_pct"] =
      (median(traced_s) / median(plain_s) - 1.0) * 100.0;
  out.keep_raw("untraced_round_s", plain_s);
  out.keep_raw("traced_round_s", traced_s);
  out.metrics["scenario.build_us"] =
      ns_of(total, "scenario.build") / replicas / 1e3;
  if (replicas > fleet_replicas) {
    out.metrics["scenario.run_ms"] =
        ns_of(total, "scenario.run") / (replicas - fleet_replicas) / 1e6;
  }
  if (fleet_replicas > 0) {
    out.metrics["fleet.run_ms"] =
        ns_of(total, "fleet.run") / fleet_replicas / 1e6;
  }
  out.metrics["exp.grid_overhead_us"] =
      ns_of(self, "exp.run_grid") / replicas / 1e3;
  out.metrics["exp.csv_write_ms"] =
      ns_of(total, "exp.csv_write") / rounds / 1e6;

  // Self time per layer per replica; the layer is the span name's prefix.
  std::map<std::string, double> layer_self;
  for (const auto& [name, ns] : self) {
    layer_self[name.substr(0, name.find('.'))] += ns;
  }
  for (const auto& [layer, ns] : layer_self) {
    out.metrics[layer + ".self_ms"] = ns / replicas / 1e6;
  }

  // Simulated statistics: totals over the traced rounds, per cell in the
  // record.
  cmdare::util::json::Object by_cell;
  for (const auto& [cell, cell_counts] : counts) {
    cmdare::util::json::Object fields;
    for (const auto& [name, value] : cell_counts) {
      out.metrics[name] += value;
      fields[name] = cmdare::util::json::make_number(value);
    }
    by_cell[cell] = cmdare::util::json::make_object(std::move(fields));
  }
  out.raw["counts_by_cell"] =
      cmdare::util::json::make_object(std::move(by_cell));
  out.metrics["simcore.ns_per_event"] =
      (ns_of(total, "scenario.run") + ns_of(total, "fleet.run")) /
      out.metrics["simcore.events"];

  trace_obs(options, texts, *round0, counts0, out);
}

}  // namespace

Outcome run_campaign_workload(const Options& options) {
  std::vector<SpecText> texts;
  if (options.workload == "sweep_short") {
    texts.push_back({"sweep_short", ""});
  } else {
    for (const char* cell : kLongCells) texts.push_back({cell, ""});
  }
  for (SpecText& t : texts) {
    t.text = read_file(options.spec_dir + "/" + t.name + ".scn");
  }

  Outcome out;
  if (options.trace) {
    trace(options, texts, out);
    return out;
  }
  measure(options, texts, out);
  return out;
}

}  // namespace perfbench
