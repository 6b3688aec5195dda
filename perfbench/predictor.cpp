// predictor_fit: the paper's regression predictors as a user fits them.
//
// Set-up simulates the measurement campaign (core::measure_step_times for
// the 20-model zoo on K80/P100/V100, core::measure_checkpoint_times). One
// "replica" is then one fit: core::StepTimePredictor::train and
// core::CheckpointTimePredictor::train (grid-searched RBF-SVR, k-fold CV)
// on a subset of the models chosen from the seed, followed by predictions
// for the held-out models. ml and la do nearly all of the work; no other
// workload touches them. The fit is repeated for the run's length and
// counts with its median CPU time; every repeat must predict exactly what
// the first did, the predictions are pinned at the pinned seeds, and the
// traced fit must predict what the untraced one does.
#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string>

#include "bench.hpp"
#include "cloud/gpu.hpp"
#include "cmdare/checkpoint_modeling.hpp"
#include "cmdare/measurement.hpp"
#include "cmdare/speed_modeling.hpp"
#include "nn/model_zoo.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace core = cmdare::core;
namespace json = cmdare::util::json;
using cmdare::util::Rng;

// Models of the 20-model zoo the predictors are trained on; the rest are
// held out and predicted. Fit time depends on which models are chosen: a
// 14-model subset varies by ~25% from one choice to the next, an 18-model
// one by ~4%, which keeps runs with different seeds comparable.
constexpr std::size_t kTrainModels = 18;
// Measurement generation takes tens of ms; it runs this many times at the
// start and again before every fit, and its median is reported.
constexpr int kSetupRepeats = 7;

struct Measurements {
  std::vector<core::StepTimeMeasurement> steps;
  std::vector<core::CheckpointMeasurement> ckpts;
};

Measurements measure(std::uint64_t seed) {
  const std::vector<cmdare::nn::CnnModel> models = cmdare::nn::all_models();
  const std::vector<cmdare::cloud::GpuType> gpus(
      cmdare::cloud::kAllGpuTypes.begin(), cmdare::cloud::kAllGpuTypes.end());
  Measurements m;
  Rng step_rng = Rng(seed).fork("measure-steps");
  m.steps = core::measure_step_times(models, gpus, step_rng);
  Rng ckpt_rng = Rng(seed).fork("measure-ckpts");
  m.ckpts = core::measure_checkpoint_times(models, ckpt_rng);
  return m;
}

std::string measurements_text(const Measurements& m) {
  std::string text;
  for (const auto& s : m.steps) {
    text += s.model + " " + json::format_number(s.mean_step_seconds) + "\n";
  }
  for (const auto& c : m.ckpts) {
    text += c.model + " " + json::format_number(c.mean_seconds) + "\n";
  }
  return text;
}

struct Split {
  Measurements train;
  Measurements held_out;
};

Split split(const Measurements& m, std::uint64_t seed) {
  std::vector<std::string> names;
  for (const auto& c : m.ckpts) names.push_back(c.model);
  Rng rng = Rng(seed).fork("split");
  rng.shuffle(names);
  const std::set<std::string> train(names.begin(),
                                    names.begin() + kTrainModels);
  Split s;
  for (const auto& x : m.steps) {
    (train.count(x.model) ? s.train : s.held_out).steps.push_back(x);
  }
  for (const auto& x : m.ckpts) {
    (train.count(x.model) ? s.train : s.held_out).ckpts.push_back(x);
  }
  return s;
}

struct Fit {
  double ms = 0.0;
  /// Held-out step-time predictions, then checkpoint-time predictions.
  std::vector<double> predictions;
  double step_mape_pct = 0.0;
};

Fit fit_once(const Split& s, std::uint64_t seed, SpanLog* spans) {
  const auto t0 = Clock::now();
  Fit fit;
  const Rng rng = Rng(seed).fork("fit");
  std::optional<core::StepTimePredictor> step;
  {
    ScopedSpan span(spans, "cmdare.step_train");
    Rng local = rng;
    step.emplace(core::StepTimePredictor::train(s.train.steps, local));
  }
  std::optional<core::CheckpointTimePredictor> ckpt;
  {
    ScopedSpan span(spans, "cmdare.ckpt_train");
    Rng local = rng;
    ckpt.emplace(core::CheckpointTimePredictor::train(s.train.ckpts, local));
  }
  {
    ScopedSpan span(spans, "cmdare.predict");
    double ape = 0.0;
    for (const auto& m : s.held_out.steps) {
      const double p = step->predict_step_seconds(m.gpu, m.gflops);
      fit.predictions.push_back(p);
      ape += std::fabs(p - m.mean_step_seconds) / m.mean_step_seconds;
    }
    fit.step_mape_pct =
        ape / static_cast<double>(s.held_out.steps.size()) * 100.0;
    for (const auto& c : s.held_out.ckpts) {
      fit.predictions.push_back(ckpt->predict_seconds_for_mb(c.total_mb));
    }
  }
  fit.ms = ms_between(t0, Clock::now());
  return fit;
}

std::string predictions_text(const Fit& fit) {
  std::string text;
  for (double p : fit.predictions) text += json::format_number(p) + "\n";
  return text;
}

void check_fit(const Fit& fit, const std::string& what, Outcome& out) {
  ++out.attempted;  // the fit itself
  bool sane = !fit.predictions.empty();
  for (double p : fit.predictions) sane = sane && std::isfinite(p) && p > 0.0;
  out.check(sane, what + ": a prediction is not a positive finite number");
}

}  // namespace

Outcome run_predictor_fit(const Options& options) {
  Outcome out;
  SpanLog* spans = options.trace ? &out.spans : nullptr;

  std::vector<double> setup_s;
  std::optional<Measurements> data;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      ScopedSpan span(spans, "cmdare.measure");
      const auto t0 = Clock::now();
      Measurements m = measure(options.seed);
      setup_s.push_back(seconds_between(t0, Clock::now()));
      if (data) {
        out.check(measurements_text(m) == measurements_text(*data),
                  "measurement generation is not deterministic");
      }
      data = std::move(m);
    }
  };
  set_up();

  const Split s = split(*data, options.seed);
  std::vector<double> fit_ms;
  std::optional<Fit> first;
  if (options.trace) {
    // Untraced, then traced: the difference is the tracing overhead.
    const std::size_t first_fit_span = out.spans.spans().size();
    first = fit_once(s, options.seed, nullptr);
    const Fit traced = fit_once(s, options.seed, spans);
    check_fit(*first, "untraced fit", out);
    check_fit(traced, "traced fit", out);
    out.check(traced.predictions == first->predictions,
              "traced fit predicts differently from the untraced one");
    const std::map<std::string, double> total =
        out.spans.total_ns_by_name(first_fit_span);
    const std::map<std::string, double> self =
        out.spans.self_ns_by_name(first_fit_span);
    out.metrics["bench.trace_overhead_pct"] =
        (traced.ms - first->ms) / first->ms * 100.0;
    out.metrics["cmdare.measure_ms"] = median(setup_s) * 1e3;
    out.metrics["cmdare.step_train_ms"] = total.at("cmdare.step_train") / 1e6;
    out.metrics["cmdare.ckpt_train_ms"] = total.at("cmdare.ckpt_train") / 1e6;
    out.metrics["cmdare.predict_us"] =
        total.at("cmdare.predict") /
        static_cast<double>(traced.predictions.size()) / 1e3;
    double cmdare_self = 0.0;
    for (const auto& [name, ns] : self) cmdare_self += ns;
    out.metrics["cmdare.self_ms"] = cmdare_self / 1e6;
  } else {
    // Fits and their set-ups for --seconds of wall time. Unlike the
    // campaign rounds, a fit is not scaled by the reference kernel: it runs
    // ~10 s between two passes, far longer than a pass sees of the host,
    // and scaling by the passes around it widened the spread of the fits
    // (log sd 0.066 -> 0.087 over 12 fits of one run).
    const auto start = WallClock::now();
    const auto cpu_start = Clock::now();
    do {
      if (!fit_ms.empty()) set_up();
      Fit fit = fit_once(s, options.seed, nullptr);
      const std::string what = "fit " + std::to_string(fit_ms.size());
      check_fit(fit, what, out);
      if (first) {
        out.check(fit.predictions == first->predictions,
                  what + ": predictions differ from the first fit");
      }
      fit_ms.push_back(fit.ms);
      if (!first) first = std::move(fit);
    } while (seconds_between(start, WallClock::now()) < options.seconds);
    out.info["wall_over_cpu"] = seconds_between(start, WallClock::now()) /
                                seconds_between(cpu_start, Clock::now());
    const double rss = peak_rss_mb();  // repeats add no memory
    std::vector<double> rate;
    for (double ms : fit_ms) rate.push_back(1e3 / ms);
    double q = 0.0;
    out.metrics["replicas_per_s"] = median(rate);
    out.metrics["replica_ms_p50"] = median(fit_ms);
    out.metrics["replica_ms_p99"] = cell_tail({fit_ms}, q);
    out.info["replica_ms_p99_quantile"] = q;
    out.metrics["setup_s"] = median(setup_s);
    out.metrics["peak_rss_mb"] = rss;
    for (const char* name :
         {"replicas_per_s", "replica_ms_p50", "replica_ms_p99"}) {
      out.samples[name] = static_cast<long>(fit_ms.size());
    }
    out.samples["peak_rss_mb"] = 1;
    out.samples["setup_s"] = static_cast<long>(setup_s.size());
    out.info["fit_s"] = out.metrics["replica_ms_p50"] / 1e3;
    out.keep_raw("fit_ms_cpu", fit_ms);
  }
  out.keep_raw("setup_s_cpu", setup_s);
  out.info["predict_mape_pct"] = first->step_mape_pct;
  const std::string predictions = digest(predictions_text(*first));
  out.raw["predictions_digest"] = json::make_string(predictions);
  out.check_pin(options, "predictions", predictions);
  return out;
}

}  // namespace perfbench
