#include "scenario/spec.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <type_traits>

#include "nn/model_zoo.hpp"
#include "util/strings.hpp"

namespace cmdare::scenario {
namespace {

// --- scalar codecs -------------------------------------------------------

/// Shortest representation that round-trips through from_chars exactly.
std::string format_double(double value) {
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, ptr) : "nan";
}

template <typename T>
bool parse_number(std::string_view text, T* out) {
  text = util::trim(text);
  if (text.empty()) return false;
  T parsed{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  *out = parsed;
  return true;
}

bool parse_bool(std::string_view text, bool* out) {
  text = util::trim(text);
  if (text == "true" || text == "1") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0") {
    *out = false;
    return true;
  }
  return false;
}

std::string lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool parse_gpu(std::string_view text, cloud::GpuType* out) {
  const std::string needle = lower(util::trim(text));
  for (const cloud::GpuType gpu : cloud::kAllGpuTypes) {
    if (needle == lower(cloud::gpu_name(gpu))) {
      *out = gpu;
      return true;
    }
  }
  return false;
}

bool parse_region(std::string_view text, cloud::Region* out) {
  const std::string needle = lower(util::trim(text));
  for (const cloud::Region region : cloud::kAllRegions) {
    if (needle == cloud::region_name(region)) {
      *out = region;
      return true;
    }
  }
  return false;
}

// --- compound codecs -----------------------------------------------------

std::string format_worker_group(const WorkerGroup& group) {
  std::string out = std::to_string(group.count);
  out += " x ";
  out += cloud::gpu_name(group.gpu);
  out += " @ ";
  out += cloud::region_name(group.region);
  if (!group.transient) out += " on-demand";
  return out;
}

/// "<count> x <gpu> @ <region> [on-demand]"
std::optional<std::string> parse_worker_group(std::string_view text,
                                              WorkerGroup* out) {
  const auto fail = [&] {
    return "bad worker group \"" + std::string(util::trim(text)) +
           "\" (want \"<count> x <gpu> @ <region> [on-demand]\")";
  };
  const std::size_t x = text.find(" x ");
  const std::size_t at = text.find(" @ ", x == std::string_view::npos ? 0 : x);
  if (x == std::string_view::npos || at == std::string_view::npos) {
    return fail();
  }
  WorkerGroup group;
  if (!parse_number(text.substr(0, x), &group.count) || group.count < 1) {
    return fail();
  }
  if (!parse_gpu(text.substr(x + 3, at - x - 3), &group.gpu)) return fail();
  std::string_view region = util::trim(text.substr(at + 3));
  constexpr std::string_view kOnDemand = "on-demand";
  if (region.size() > kOnDemand.size() &&
      region.substr(region.size() - kOnDemand.size()) == kOnDemand) {
    group.transient = false;
    region = util::trim(region.substr(0, region.size() - kOnDemand.size()));
  }
  if (!parse_region(region, &group.region)) return fail();
  *out = group;
  return std::nullopt;
}

std::string format_stockout(const faults::StockoutWindow& window) {
  std::string out = cloud::region_name(window.region);
  out += '/';
  out += window.gpu ? cloud::gpu_name(*window.gpu) : "*";
  out += " @ ";
  out += format_double(window.start_s);
  out += "..";
  out += format_double(window.end_s);
  return out;
}

/// "<region>/<gpu-or-*> @ <start_s>..<end_s>"
std::optional<std::string> parse_stockout(std::string_view text,
                                          faults::StockoutWindow* out) {
  const auto fail = [&] {
    return "bad stockout \"" + std::string(util::trim(text)) +
           "\" (want \"<region>/<gpu|*> @ <start_s>..<end_s>\")";
  };
  const std::size_t at = text.find(" @ ");
  if (at == std::string_view::npos) return fail();
  const std::string_view target = text.substr(0, at);
  const std::size_t slash = target.find('/');
  if (slash == std::string_view::npos) return fail();
  faults::StockoutWindow window;
  if (!parse_region(target.substr(0, slash), &window.region)) return fail();
  const std::string_view gpu = util::trim(target.substr(slash + 1));
  if (gpu == "*") {
    window.gpu.reset();
  } else {
    cloud::GpuType parsed;
    if (!parse_gpu(gpu, &parsed)) return fail();
    window.gpu = parsed;
  }
  const std::string_view range = text.substr(at + 3);
  const std::size_t dots = range.find("..");
  if (dots == std::string_view::npos) return fail();
  if (!parse_number(range.substr(0, dots), &window.start_s) ||
      !parse_number(range.substr(dots + 2), &window.end_s)) {
    return fail();
  }
  if (window.start_s < 0.0 || window.end_s < window.start_s) {
    return "stockout window must satisfy 0 <= start_s <= end_s";
  }
  *out = window;
  return std::nullopt;
}

std::string format_storm(const faults::OutageStorm& storm) {
  std::string out = cloud::region_name(storm.region);
  out += '/';
  out += storm.gpu ? cloud::gpu_name(*storm.gpu) : "*";
  out += " @ ";
  out += format_double(storm.start_s);
  out += "..";
  out += format_double(storm.end_s);
  out += " kill=";
  out += format_double(storm.kill_fraction);
  out += " hazard=";
  out += format_double(storm.hazard_multiplier);
  out += " slow=";
  out += format_double(storm.startup_slowdown);
  return out;
}

/// "<region>/<gpu-or-*> @ <start_s>..<end_s> [kill=F] [hazard=M] [slow=M]"
std::optional<std::string> parse_storm(std::string_view text,
                                       faults::OutageStorm* out) {
  const auto fail = [&] {
    return "bad storm \"" + std::string(util::trim(text)) +
           "\" (want \"<region>/<gpu|*> @ <start_s>..<end_s> "
           "[kill=<rate>] [hazard=<mult>] [slow=<mult>]\")";
  };
  const std::size_t at = text.find(" @ ");
  if (at == std::string_view::npos) return fail();
  const std::string_view target = text.substr(0, at);
  const std::size_t slash = target.find('/');
  if (slash == std::string_view::npos) return fail();
  faults::OutageStorm storm;
  if (!parse_region(target.substr(0, slash), &storm.region)) return fail();
  const std::string_view gpu = util::trim(target.substr(slash + 1));
  if (gpu == "*") {
    storm.gpu.reset();
  } else {
    cloud::GpuType parsed;
    if (!parse_gpu(gpu, &parsed)) return fail();
    storm.gpu = parsed;
  }
  // Range, then optional whitespace-separated key=value modifiers.
  std::string_view rest = util::trim(text.substr(at + 3));
  const std::size_t range_end = rest.find(' ');
  const std::string_view range =
      range_end == std::string_view::npos ? rest : rest.substr(0, range_end);
  const std::size_t dots = range.find("..");
  if (dots == std::string_view::npos) return fail();
  if (!parse_number(range.substr(0, dots), &storm.start_s) ||
      !parse_number(range.substr(dots + 2), &storm.end_s)) {
    return fail();
  }
  rest = range_end == std::string_view::npos
             ? std::string_view()
             : util::trim(rest.substr(range_end));
  while (!rest.empty()) {
    const std::size_t space = rest.find(' ');
    const std::string_view token =
        space == std::string_view::npos ? rest : rest.substr(0, space);
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) return fail();
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    double parsed = 0.0;
    if (!parse_number(value, &parsed)) return fail();
    if (key == "kill") {
      storm.kill_fraction = parsed;
    } else if (key == "hazard") {
      storm.hazard_multiplier = parsed;
    } else if (key == "slow") {
      storm.startup_slowdown = parsed;
    } else {
      return fail();
    }
    rest = space == std::string_view::npos ? std::string_view()
                                           : util::trim(rest.substr(space));
  }
  if (storm.start_s < 0.0 || storm.end_s < storm.start_s) {
    return "storm window must satisfy 0 <= start_s <= end_s";
  }
  if (storm.kill_fraction < 0.0 || storm.kill_fraction > 1.0) {
    return "storm kill fraction must be in [0, 1]";
  }
  if (storm.hazard_multiplier < 1.0 ||
      !std::isfinite(storm.hazard_multiplier)) {
    return "storm hazard multiplier must be >= 1";
  }
  if (storm.startup_slowdown < 1.0 || !std::isfinite(storm.startup_slowdown)) {
    return "storm startup slowdown must be >= 1";
  }
  *out = storm;
  return std::nullopt;
}

std::string format_tier_outage(const faults::TierOutageWindow& window) {
  std::string out(cloud::storage_tier_name(window.tier));
  out += " @ ";
  out += format_double(window.start_s);
  out += "..";
  out += format_double(window.end_s);
  return out;
}

/// "<tier> @ <start_s>..<end_s>" (tier: local / regional / cold)
std::optional<std::string> parse_tier_outage(std::string_view text,
                                             faults::TierOutageWindow* out) {
  const auto fail = [&] {
    return "bad tier outage \"" + std::string(util::trim(text)) +
           "\" (want \"<local|regional|cold> @ <start_s>..<end_s>\")";
  };
  const std::size_t at = text.find(" @ ");
  if (at == std::string_view::npos) return fail();
  faults::TierOutageWindow window;
  const std::optional<cloud::StorageTier> tier =
      cloud::storage_tier_from_name(util::trim(text.substr(0, at)));
  if (!tier) return fail();
  window.tier = *tier;
  const std::string_view range = text.substr(at + 3);
  const std::size_t dots = range.find("..");
  if (dots == std::string_view::npos) return fail();
  if (!parse_number(range.substr(0, dots), &window.start_s) ||
      !parse_number(range.substr(dots + 2), &window.end_s)) {
    return fail();
  }
  if (window.start_s < 0.0 || window.end_s < window.start_s) {
    return "tier outage window must satisfy 0 <= start_s <= end_s";
  }
  *out = window;
  return std::nullopt;
}

// --- enum codecs ---------------------------------------------------------

const char* ft_mode_name(train::FaultToleranceMode mode) {
  return mode == train::FaultToleranceMode::kCmDare ? "cm-dare"
                                                    : "vanilla-tf";
}

bool parse_ft_mode(std::string_view text, train::FaultToleranceMode* out) {
  text = util::trim(text);
  if (text == "cm-dare") {
    *out = train::FaultToleranceMode::kCmDare;
    return true;
  }
  if (text == "vanilla-tf") {
    *out = train::FaultToleranceMode::kVanillaTf;
    return true;
  }
  return false;
}

const char* context_name(cloud::RequestContext context) {
  switch (context) {
    case cloud::RequestContext::kNormal:
      return "normal";
    case cloud::RequestContext::kImmediateAfterRevocation:
      return "immediate";
    case cloud::RequestContext::kDelayedAfterRevocation:
      return "delayed";
  }
  return "normal";
}

bool parse_context(std::string_view text, cloud::RequestContext* out) {
  text = util::trim(text);
  if (text == "normal") {
    *out = cloud::RequestContext::kNormal;
    return true;
  }
  if (text == "immediate") {
    *out = cloud::RequestContext::kImmediateAfterRevocation;
    return true;
  }
  if (text == "delayed") {
    *out = cloud::RequestContext::kDelayedAfterRevocation;
    return true;
  }
  return false;
}

bool parse_kind(std::string_view text, HarnessKind* out) {
  text = util::trim(text);
  for (const HarnessKind kind :
       {HarnessKind::kRun, HarnessKind::kSession, HarnessKind::kSync,
        HarnessKind::kCloud, HarnessKind::kFleet}) {
    if (text == harness_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

// --- set_field helpers ---------------------------------------------------

using SetError = std::optional<std::string>;

SetError bad_value(std::string_view key, std::string_view value,
                   const char* expected) {
  return "bad value \"" + std::string(value) + "\" for " + std::string(key) +
         " (expected " + expected + ")";
}

template <typename T>
SetError set_numeric(std::string_view key, std::string_view value, T* out,
                     T min_inclusive, T max_inclusive, const char* expected) {
  T parsed{};
  if (!parse_number(value, &parsed)) return bad_value(key, value, expected);
  if constexpr (std::is_floating_point_v<T>) {
    // from_chars happily parses "nan" and "inf", and NaN slides through
    // the range comparison below (both tests are false) — reject
    // non-finite values explicitly.
    if (!std::isfinite(parsed)) return bad_value(key, value, expected);
  }
  if (parsed < min_inclusive || parsed > max_inclusive) {
    return std::string(key) + " out of range (want " + expected + ")";
  }
  *out = parsed;
  return std::nullopt;
}

SetError set_rate(std::string_view key, std::string_view value, double* out) {
  return set_numeric(key, value, out, 0.0, 1.0, "a rate in [0, 1]");
}

SetError set_bool(std::string_view key, std::string_view value, bool* out) {
  if (!parse_bool(value, out)) return bad_value(key, value, "true or false");
  return std::nullopt;
}

constexpr double kHuge = 1e18;

}  // namespace

const char* harness_kind_name(HarnessKind kind) {
  switch (kind) {
    case HarnessKind::kRun:
      return "run";
    case HarnessKind::kSession:
      return "session";
    case HarnessKind::kSync:
      return "sync";
    case HarnessKind::kCloud:
      return "cloud";
    case HarnessKind::kFleet:
      return "fleet";
  }
  return "run";
}

std::optional<std::string> set_field(ScenarioSpec& spec, std::string_view key,
                                     std::string_view value) {
  key = util::trim(key);
  value = util::trim(value);

  if (key == "name") {
    if (value.empty()) return std::string("name must not be empty");
    spec.name = std::string(value);
    return std::nullopt;
  }
  if (key == "kind") {
    if (!parse_kind(value, &spec.kind)) {
      return bad_value(key, value, "run, session, sync, cloud, or fleet");
    }
    return std::nullopt;
  }
  if (key == "seed") {
    if (!parse_number(value, &spec.seed)) {
      return bad_value(key, value, "an unsigned integer");
    }
    return std::nullopt;
  }
  if (key == "model") {
    if (value.empty()) return std::string("model must not be empty");
    spec.model = std::string(value);
    return std::nullopt;
  }
  if (key == "workers" || key == "worker") {
    std::vector<WorkerGroup> groups;
    if (key == "worker") groups = spec.workers;  // append form
    if (!value.empty()) {
      for (const std::string& part : util::split(value, ',')) {
        WorkerGroup group;
        if (auto error = parse_worker_group(part, &group)) return error;
        groups.push_back(group);
      }
    }
    spec.workers = std::move(groups);
    return std::nullopt;
  }
  if (key == "ps_count") {
    return set_numeric(key, value, &spec.ps_count, 1, 1 << 20,
                       "an integer >= 1");
  }
  if (key == "max_steps") {
    return set_numeric<long>(key, value, &spec.max_steps, 0, 1L << 40,
                             "an integer >= 0");
  }
  if (key == "checkpoint_interval_steps") {
    return set_numeric<long>(key, value, &spec.checkpoint_interval_steps, 0,
                             1L << 40, "an integer >= 0");
  }
  if (key == "checkpoint_max_retries") {
    return set_numeric(key, value, &spec.checkpoint_max_retries, 0, 1 << 20,
                       "an integer >= 0");
  }
  if (key == "ft_mode") {
    if (!parse_ft_mode(value, &spec.ft_mode)) {
      return bad_value(key, value, "cm-dare or vanilla-tf");
    }
    return std::nullopt;
  }
  if (key == "ps_region") {
    if (!parse_region(value, &spec.ps_region)) {
      return bad_value(key, value, "a region name");
    }
    return std::nullopt;
  }
  if (key == "auto_replace") return set_bool(key, value, &spec.auto_replace);
  if (key == "replacement_context") {
    if (!parse_context(value, &spec.replacement_context)) {
      return bad_value(key, value, "normal, immediate, or delayed");
    }
    return std::nullopt;
  }
  if (key == "max_launch_attempts") {
    return set_numeric(key, value, &spec.resilience.max_launch_attempts, 1,
                       1 << 20, "an integer >= 1");
  }
  if (key == "backoff_base_seconds") {
    return set_numeric(key, value, &spec.resilience.backoff_base_seconds, 0.0,
                       kHuge, "seconds >= 0");
  }
  if (key == "backoff_multiplier") {
    return set_numeric(key, value, &spec.resilience.backoff_multiplier, 1.0,
                       kHuge, "a multiplier >= 1");
  }
  if (key == "backoff_max_seconds") {
    return set_numeric(key, value, &spec.resilience.backoff_max_seconds, 0.0,
                       kHuge, "seconds >= 0");
  }
  if (key == "backoff_jitter") {
    return set_numeric(key, value, &spec.resilience.backoff_jitter, 0.0, 1.0,
                       "a fraction in [0, 1]");
  }
  if (key == "stockouts_before_fallback") {
    return set_numeric(key, value, &spec.resilience.stockouts_before_fallback,
                       1, 1 << 20, "an integer >= 1");
  }
  if (key == "allow_region_fallback") {
    return set_bool(key, value, &spec.resilience.allow_region_fallback);
  }
  if (key == "allow_gpu_fallback") {
    return set_bool(key, value, &spec.resilience.allow_gpu_fallback);
  }
  if (key == "allow_on_demand_fallback") {
    return set_bool(key, value, &spec.resilience.allow_on_demand_fallback);
  }
  if (key == "utc_start_hour") {
    const double previous = spec.utc_start_hour;
    SetError error = set_numeric(key, value, &spec.utc_start_hour, 0.0, 24.0,
                                 "an hour in [0, 24)");
    if (!error && spec.utc_start_hour == 24.0) {
      spec.utc_start_hour = previous;  // half-open range: 24.0 is rejected
      return std::string("utc_start_hour out of range (want [0, 24))");
    }
    return error;
  }
  if (key == "horizon_hours") {
    return set_numeric(key, value, &spec.horizon_hours, 0.0, kHuge,
                       "hours >= 0");
  }
  if (key == "launch_error_rate") {
    return set_rate(key, value, &spec.faults.launch_error_rate);
  }
  if (key == "upload_error_rate") {
    return set_rate(key, value, &spec.faults.upload_error_rate);
  }
  if (key == "upload_slowdown_rate") {
    return set_rate(key, value, &spec.faults.upload_slowdown_rate);
  }
  if (key == "upload_slowdown_factor") {
    return set_numeric(key, value, &spec.faults.upload_slowdown_factor, 1.0,
                       kHuge, "a multiplier >= 1");
  }
  if (key == "restore_error_rate") {
    return set_rate(key, value, &spec.faults.restore_error_rate);
  }
  if (key == "abrupt_kill_rate") {
    return set_rate(key, value, &spec.faults.abrupt_kill_rate);
  }
  if (key == "fault_rate") {
    // Write-only shorthand: one uniform rate across every probabilistic
    // fault class (stockouts and the slowdown factor are untouched).
    double rate = 0.0;
    if (SetError error = set_rate(key, value, &rate)) return error;
    spec.faults.launch_error_rate = rate;
    spec.faults.upload_error_rate = rate;
    spec.faults.upload_slowdown_rate = rate;
    spec.faults.restore_error_rate = rate;
    spec.faults.abrupt_kill_rate = rate;
    return std::nullopt;
  }
  if (key == "stockouts" || key == "stockout") {
    std::vector<faults::StockoutWindow> windows;
    if (key == "stockout") windows = spec.faults.stockouts;  // append form
    if (!value.empty()) {
      for (const std::string& part : util::split(value, ',')) {
        faults::StockoutWindow window;
        if (auto error = parse_stockout(part, &window)) return error;
        windows.push_back(window);
      }
    }
    spec.faults.stockouts = std::move(windows);
    return std::nullopt;
  }
  if (key == "storms" || key == "storm") {
    std::vector<faults::OutageStorm> storms;
    if (key == "storm") storms = spec.faults.storms;  // append form
    if (!value.empty()) {
      for (const std::string& part : util::split(value, ',')) {
        faults::OutageStorm storm;
        if (auto error = parse_storm(part, &storm)) return error;
        storms.push_back(storm);
      }
    }
    spec.faults.storms = std::move(storms);
    return std::nullopt;
  }
  if (key == "ckpt.enabled") return set_bool(key, value, &spec.ckpt.enabled);
  if (key == "ckpt.delta_ratio") {
    return set_numeric(key, value, &spec.ckpt.delta_ratio, 1e-9, 1.0,
                       "a fraction in (0, 1]");
  }
  if (key == "ckpt.max_delta_chain") {
    return set_numeric(key, value, &spec.ckpt.max_delta_chain, 1, 1 << 20,
                       "an integer >= 1");
  }
  if (key == "ckpt.max_generations") {
    return set_numeric(key, value, &spec.ckpt.max_generations, 1, 1 << 20,
                       "an integer >= 1");
  }
  if (key == "ckpt.bit_rot_rate") {
    return set_rate(key, value, &spec.faults.bit_rot_rate);
  }
  if (key == "ckpt.torn_write_rate") {
    return set_rate(key, value, &spec.faults.torn_write_rate);
  }
  if (key == "ckpt.tier_outages" || key == "ckpt.tier_outage") {
    std::vector<faults::TierOutageWindow> windows;
    if (key == "ckpt.tier_outage") {
      windows = spec.faults.tier_outages;  // append form
    }
    if (!value.empty()) {
      for (const std::string& part : util::split(value, ',')) {
        faults::TierOutageWindow window;
        if (auto error = parse_tier_outage(part, &window)) return error;
        windows.push_back(window);
      }
    }
    spec.faults.tier_outages = std::move(windows);
    return std::nullopt;
  }
  if (key.size() > 11 && key.substr(0, 11) == "store.tier.") {
    const std::string_view rest = key.substr(11);
    const std::size_t dot = rest.find('.');
    if (dot != std::string_view::npos) {
      const std::optional<cloud::StorageTier> tier =
          cloud::storage_tier_from_name(rest.substr(0, dot));
      if (tier) {
        cloud::TierModel& model = spec.store_tiers.at(*tier);
        const std::string_view field = rest.substr(dot + 1);
        if (field == "latency_s") {
          return set_numeric(key, value, &model.latency_s, 0.0, kHuge,
                             "seconds >= 0");
        }
        if (field == "bandwidth_gbps") {
          return set_numeric(key, value, &model.bandwidth_gbps, 1e-9, kHuge,
                             "Gbps > 0");
        }
        if (field == "usd_per_gb") {
          return set_numeric(key, value, &model.usd_per_gb, 0.0, kHuge,
                             "dollars per GB >= 0");
        }
      }
    }
    return "unknown key \"" + std::string(key) +
           "\" (want store.tier.<local|regional|cold>."
           "<latency_s|bandwidth_gbps|usd_per_gb>)";
  }
  if (key == "fleet.tenants") {
    return set_numeric(key, value, &spec.fleet.tenants, 1, 1 << 16,
                       "an integer in [1, 65536]");
  }
  if (key == "fleet.demand") {
    return set_numeric(key, value, &spec.fleet.demand, 1e-9, 64.0,
                       "a multiplier in (0, 64]");
  }
  if (key == "fleet.workers_per_tenant") {
    return set_numeric(key, value, &spec.fleet.workers_per_tenant, 1, 1024,
                       "an integer in [1, 1024]");
  }
  if (key == "fleet.min_steps") {
    return set_numeric<long>(key, value, &spec.fleet.min_steps, 1, 1L << 40,
                             "an integer >= 1");
  }
  if (key == "fleet.max_steps") {
    return set_numeric<long>(key, value, &spec.fleet.max_steps, 1, 1L << 40,
                             "an integer >= 1");
  }
  if (key == "fleet.checkpoint_interval_steps") {
    return set_numeric<long>(key, value,
                             &spec.fleet.checkpoint_interval_steps, 0,
                             1L << 40, "an integer >= 0");
  }
  if (key == "fleet.checkpoint_seconds") {
    return set_numeric(key, value, &spec.fleet.checkpoint_seconds, 0.0, kHuge,
                       "seconds >= 0");
  }
  if (key == "fleet.restore_seconds") {
    return set_numeric(key, value, &spec.fleet.restore_seconds, 0.0, kHuge,
                       "seconds >= 0");
  }
  if (key == "fleet.deadline_hours") {
    return set_numeric(key, value, &spec.fleet.deadline_hours, 1e-9, kHuge,
                       "hours > 0");
  }
  if (key == "fleet.model_mix") {
    return set_bool(key, value, &spec.fleet.model_mix);
  }
  if (key == "fleet.capacity_per_pool") {
    return set_numeric(key, value, &spec.fleet.capacity_per_pool, 1, 1 << 20,
                       "an integer >= 1");
  }
  if (key == "fleet.price_sensitivity") {
    return set_numeric(key, value, &spec.fleet.price_sensitivity, 0.0, 1000.0,
                       "a factor in [0, 1000]");
  }
  if (key == "fleet.price_exponent") {
    return set_numeric(key, value, &spec.fleet.price_exponent, 0.0, 64.0,
                       "an exponent in [0, 64]");
  }
  if (key == "fleet.capacity_dip") {
    return set_rate(key, value, &spec.fleet.capacity_dip);
  }
  if (key == "fleet.bid_spread") {
    return set_numeric(key, value, &spec.fleet.bid_spread, 0.0, kHuge,
                       "a spread >= 0");
  }
  if (key == "fleet.market_period_s") {
    return set_numeric(key, value, &spec.fleet.market_period_s, 1e-9, kHuge,
                       "seconds > 0");
  }
  if (key == "fleet.scheduler") {
    if (!fleet::scheduler_policy_from_name(util::trim(value),
                                           &spec.fleet.scheduler)) {
      return bad_value(key, value, "round-robin or cost-optimal");
    }
    return std::nullopt;
  }
  if (key == "fleet.migrate_period_s") {
    return set_numeric(key, value, &spec.fleet.migrate_period_s, 0.0, kHuge,
                       "seconds >= 0 (0 = never migrate)");
  }
  if (key == "fleet.migrate_gain") {
    return set_numeric(key, value, &spec.fleet.migrate_gain, 0.0, 1.0,
                       "a fraction in [0, 1]");
  }
  if (key == "fleet.hazard_revocations") {
    return set_bool(key, value, &spec.fleet.hazard_revocations);
  }
  if (key == "telemetry") return set_bool(key, value, &spec.telemetry);
  if (key == "supervise.enabled") {
    return set_bool(key, value, &spec.supervision.enabled);
  }
  if (key == "supervise.heartbeat_period_s") {
    return set_numeric(key, value, &spec.supervision.heartbeat.period_s, 1e-9,
                       kHuge, "seconds > 0");
  }
  if (key == "supervise.heartbeat_timeout_s") {
    return set_numeric(key, value, &spec.supervision.heartbeat.timeout_s,
                       1e-9, kHuge, "seconds > 0");
  }
  if (key == "supervise.heartbeat_jitter") {
    return set_numeric(key, value, &spec.supervision.heartbeat.jitter, 0.0,
                       1.0, "a fraction in [0, 1]");
  }
  if (key == "supervise.phi_threshold") {
    return set_numeric(key, value, &spec.supervision.heartbeat.phi_threshold,
                       0.0, kHuge, "a threshold >= 0 (0 = plain timeout)");
  }
  if (key == "supervise.sweep_period_s") {
    return set_numeric(key, value, &spec.supervision.heartbeat.sweep_period_s,
                       0.0, kHuge, "seconds >= 0 (0 = timeout / 4)");
  }
  if (key == "supervise.hazard_halflife_hours") {
    return set_numeric(key, value, &spec.supervision.hazard.halflife_hours,
                       1e-9, kHuge, "hours > 0");
  }
  if (key == "supervise.hazard_prior_weight_hours") {
    return set_numeric(key, value,
                       &spec.supervision.hazard.prior_weight_hours, 0.0,
                       kHuge, "hours >= 0");
  }
  if (key == "supervise.score_halflife_hours") {
    return set_numeric(key, value,
                       &spec.supervision.hazard.score_halflife_hours, 1e-9,
                       kHuge, "hours > 0");
  }
  if (key == "supervise.retune_period_s") {
    return set_numeric(key, value,
                       &spec.supervision.checkpoint.retune_period_s, 0.0,
                       kHuge, "seconds >= 0 (0 = disabled)");
  }
  if (key == "supervise.retune_hysteresis") {
    return set_numeric(key, value, &spec.supervision.checkpoint.hysteresis,
                       0.0, 1.0, "a fraction in [0, 1]");
  }
  if (key == "supervise.min_interval_steps") {
    return set_numeric<long>(key, value,
                             &spec.supervision.checkpoint.min_interval_steps,
                             1, 1L << 40, "an integer >= 1");
  }
  if (key == "supervise.score_replacement") {
    return set_bool(key, value, &spec.supervision.score_replacement);
  }
  if (key == "supervise.hedged_replacement") {
    return set_bool(key, value, &spec.supervision.hedged_replacement);
  }
  if (key == "supervise.elastic.enabled") {
    return set_bool(key, value, &spec.supervision.elastic.enabled);
  }
  if (key == "supervise.elastic.min_workers") {
    return set_numeric(key, value, &spec.supervision.elastic.min_workers, 1,
                       1 << 20, "an integer >= 1");
  }
  if (key == "supervise.elastic.breaker_failures") {
    return set_numeric(key, value,
                       &spec.supervision.elastic.breaker.open_after_failures,
                       1, 1 << 20, "an integer >= 1");
  }
  if (key == "supervise.elastic.breaker_backoff_s") {
    return set_numeric(key, value, &spec.supervision.elastic.breaker.backoff_s,
                       1e-9, kHuge, "seconds > 0");
  }
  if (key == "supervise.elastic.breaker_backoff_multiplier") {
    return set_numeric(key, value,
                       &spec.supervision.elastic.breaker.backoff_multiplier,
                       1.0, kHuge, "a multiplier >= 1");
  }
  if (key == "supervise.elastic.breaker_max_backoff_s") {
    return set_numeric(key, value,
                       &spec.supervision.elastic.breaker.max_backoff_s, 1e-9,
                       kHuge, "seconds > 0");
  }
  if (key == "supervise.elastic.grow_hysteresis_s") {
    return set_numeric(key, value,
                       &spec.supervision.elastic.grow_hysteresis_s, 0.0,
                       kHuge, "seconds >= 0");
  }
  if (key == "supervise.elastic.futility_threshold") {
    return set_numeric(key, value,
                       &spec.supervision.elastic.futility_threshold, 0.0,
                       kHuge, "a threshold >= 0 (0 = disabled)");
  }
  if (key == "supervise.elastic.deadline_hours") {
    return set_numeric(key, value, &spec.supervision.elastic.deadline_hours,
                       0.0, kHuge, "hours >= 0 (0 = no deadline)");
  }

  return "unknown key \"" + std::string(key) + "\"";
}

ParseResult parse(std::string_view text) {
  ParseResult result;
  int line_number = 0;
  while (!text.empty()) {
    ++line_number;
    const std::size_t newline = text.find('\n');
    std::string_view line = text.substr(0, newline);
    text = newline == std::string_view::npos ? std::string_view()
                                             : text.substr(newline + 1);
    // Strip comments and blank lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = util::trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      result.diagnostics.push_back(
          {line_number, "expected \"key = value\", got \"" +
                            std::string(line) + "\""});
      continue;
    }
    if (auto error = set_field(result.spec, line.substr(0, eq),
                               line.substr(eq + 1))) {
      result.diagnostics.push_back({line_number, std::move(*error)});
    }
  }
  for (std::string& error : validate(result.spec)) {
    result.diagnostics.push_back({0, std::move(error)});
  }
  return result;
}

std::string serialize(const ScenarioSpec& spec) {
  std::string out;
  const auto emit = [&](std::string_view key, std::string value) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  };

  emit("name", spec.name);
  emit("kind", harness_kind_name(spec.kind));
  emit("seed", std::to_string(spec.seed));
  emit("model", spec.model);
  if (!spec.workers.empty()) {
    std::string groups;
    for (const WorkerGroup& group : spec.workers) {
      if (!groups.empty()) groups += ", ";
      groups += format_worker_group(group);
    }
    emit("workers", std::move(groups));
  }
  emit("ps_count", std::to_string(spec.ps_count));
  emit("max_steps", std::to_string(spec.max_steps));
  emit("checkpoint_interval_steps",
       std::to_string(spec.checkpoint_interval_steps));
  emit("checkpoint_max_retries", std::to_string(spec.checkpoint_max_retries));
  emit("ft_mode", ft_mode_name(spec.ft_mode));
  emit("ps_region", cloud::region_name(spec.ps_region));
  emit("auto_replace", spec.auto_replace ? "true" : "false");
  emit("replacement_context", context_name(spec.replacement_context));
  emit("max_launch_attempts",
       std::to_string(spec.resilience.max_launch_attempts));
  emit("backoff_base_seconds",
       format_double(spec.resilience.backoff_base_seconds));
  emit("backoff_multiplier", format_double(spec.resilience.backoff_multiplier));
  emit("backoff_max_seconds",
       format_double(spec.resilience.backoff_max_seconds));
  emit("backoff_jitter", format_double(spec.resilience.backoff_jitter));
  emit("stockouts_before_fallback",
       std::to_string(spec.resilience.stockouts_before_fallback));
  emit("allow_region_fallback",
       spec.resilience.allow_region_fallback ? "true" : "false");
  emit("allow_gpu_fallback",
       spec.resilience.allow_gpu_fallback ? "true" : "false");
  emit("allow_on_demand_fallback",
       spec.resilience.allow_on_demand_fallback ? "true" : "false");
  emit("utc_start_hour", format_double(spec.utc_start_hour));
  emit("horizon_hours", format_double(spec.horizon_hours));
  emit("launch_error_rate", format_double(spec.faults.launch_error_rate));
  emit("upload_error_rate", format_double(spec.faults.upload_error_rate));
  emit("upload_slowdown_rate",
       format_double(spec.faults.upload_slowdown_rate));
  emit("upload_slowdown_factor",
       format_double(spec.faults.upload_slowdown_factor));
  emit("restore_error_rate", format_double(spec.faults.restore_error_rate));
  emit("abrupt_kill_rate", format_double(spec.faults.abrupt_kill_rate));
  if (!spec.faults.stockouts.empty()) {
    std::string windows;
    for (const faults::StockoutWindow& window : spec.faults.stockouts) {
      if (!windows.empty()) windows += ", ";
      windows += format_stockout(window);
    }
    emit("stockouts", std::move(windows));
  }
  if (!spec.faults.storms.empty()) {
    std::string storms;
    for (const faults::OutageStorm& storm : spec.faults.storms) {
      if (!storms.empty()) storms += ", ";
      storms += format_storm(storm);
    }
    emit("storms", std::move(storms));
  }
  emit("ckpt.enabled", spec.ckpt.enabled ? "true" : "false");
  emit("ckpt.delta_ratio", format_double(spec.ckpt.delta_ratio));
  emit("ckpt.max_delta_chain", std::to_string(spec.ckpt.max_delta_chain));
  emit("ckpt.max_generations", std::to_string(spec.ckpt.max_generations));
  emit("ckpt.bit_rot_rate", format_double(spec.faults.bit_rot_rate));
  emit("ckpt.torn_write_rate", format_double(spec.faults.torn_write_rate));
  if (!spec.faults.tier_outages.empty()) {
    std::string windows;
    for (const faults::TierOutageWindow& window : spec.faults.tier_outages) {
      if (!windows.empty()) windows += ", ";
      windows += format_tier_outage(window);
    }
    emit("ckpt.tier_outages", std::move(windows));
  }
  for (const cloud::StorageTier tier :
       {cloud::StorageTier::kLocal, cloud::StorageTier::kRegional,
        cloud::StorageTier::kCold}) {
    const cloud::TierModel& model = spec.store_tiers.at(tier);
    const std::string prefix =
        "store.tier." + std::string(cloud::storage_tier_name(tier)) + ".";
    emit(prefix + "latency_s", format_double(model.latency_s));
    emit(prefix + "bandwidth_gbps", format_double(model.bandwidth_gbps));
    emit(prefix + "usd_per_gb", format_double(model.usd_per_gb));
  }
  emit("fleet.tenants", std::to_string(spec.fleet.tenants));
  emit("fleet.demand", format_double(spec.fleet.demand));
  emit("fleet.workers_per_tenant",
       std::to_string(spec.fleet.workers_per_tenant));
  emit("fleet.min_steps", std::to_string(spec.fleet.min_steps));
  emit("fleet.max_steps", std::to_string(spec.fleet.max_steps));
  emit("fleet.checkpoint_interval_steps",
       std::to_string(spec.fleet.checkpoint_interval_steps));
  emit("fleet.checkpoint_seconds",
       format_double(spec.fleet.checkpoint_seconds));
  emit("fleet.restore_seconds", format_double(spec.fleet.restore_seconds));
  emit("fleet.deadline_hours", format_double(spec.fleet.deadline_hours));
  emit("fleet.model_mix", spec.fleet.model_mix ? "true" : "false");
  emit("fleet.capacity_per_pool",
       std::to_string(spec.fleet.capacity_per_pool));
  emit("fleet.price_sensitivity",
       format_double(spec.fleet.price_sensitivity));
  emit("fleet.price_exponent", format_double(spec.fleet.price_exponent));
  emit("fleet.capacity_dip", format_double(spec.fleet.capacity_dip));
  emit("fleet.bid_spread", format_double(spec.fleet.bid_spread));
  emit("fleet.market_period_s", format_double(spec.fleet.market_period_s));
  emit("fleet.scheduler",
       fleet::scheduler_policy_name(spec.fleet.scheduler));
  emit("fleet.migrate_period_s",
       format_double(spec.fleet.migrate_period_s));
  emit("fleet.migrate_gain", format_double(spec.fleet.migrate_gain));
  emit("fleet.hazard_revocations",
       spec.fleet.hazard_revocations ? "true" : "false");
  emit("telemetry", spec.telemetry ? "true" : "false");
  emit("supervise.enabled", spec.supervision.enabled ? "true" : "false");
  emit("supervise.heartbeat_period_s",
       format_double(spec.supervision.heartbeat.period_s));
  emit("supervise.heartbeat_timeout_s",
       format_double(spec.supervision.heartbeat.timeout_s));
  emit("supervise.heartbeat_jitter",
       format_double(spec.supervision.heartbeat.jitter));
  emit("supervise.phi_threshold",
       format_double(spec.supervision.heartbeat.phi_threshold));
  emit("supervise.sweep_period_s",
       format_double(spec.supervision.heartbeat.sweep_period_s));
  emit("supervise.hazard_halflife_hours",
       format_double(spec.supervision.hazard.halflife_hours));
  emit("supervise.hazard_prior_weight_hours",
       format_double(spec.supervision.hazard.prior_weight_hours));
  emit("supervise.score_halflife_hours",
       format_double(spec.supervision.hazard.score_halflife_hours));
  emit("supervise.retune_period_s",
       format_double(spec.supervision.checkpoint.retune_period_s));
  emit("supervise.retune_hysteresis",
       format_double(spec.supervision.checkpoint.hysteresis));
  emit("supervise.min_interval_steps",
       std::to_string(spec.supervision.checkpoint.min_interval_steps));
  emit("supervise.score_replacement",
       spec.supervision.score_replacement ? "true" : "false");
  emit("supervise.hedged_replacement",
       spec.supervision.hedged_replacement ? "true" : "false");
  emit("supervise.elastic.enabled",
       spec.supervision.elastic.enabled ? "true" : "false");
  emit("supervise.elastic.min_workers",
       std::to_string(spec.supervision.elastic.min_workers));
  emit("supervise.elastic.breaker_failures",
       std::to_string(spec.supervision.elastic.breaker.open_after_failures));
  emit("supervise.elastic.breaker_backoff_s",
       format_double(spec.supervision.elastic.breaker.backoff_s));
  emit("supervise.elastic.breaker_backoff_multiplier",
       format_double(spec.supervision.elastic.breaker.backoff_multiplier));
  emit("supervise.elastic.breaker_max_backoff_s",
       format_double(spec.supervision.elastic.breaker.max_backoff_s));
  emit("supervise.elastic.grow_hysteresis_s",
       format_double(spec.supervision.elastic.grow_hysteresis_s));
  emit("supervise.elastic.futility_threshold",
       format_double(spec.supervision.elastic.futility_threshold));
  emit("supervise.elastic.deadline_hours",
       format_double(spec.supervision.elastic.deadline_hours));
  return out;
}

std::vector<std::string> validate(const ScenarioSpec& spec) {
  std::vector<std::string> errors;
  if (nn::find_model(spec.model) == nullptr) {
    errors.push_back("unknown model \"" + spec.model + "\"");
  }
  if (spec.workers.empty() &&
      (spec.kind == HarnessKind::kRun || spec.kind == HarnessKind::kSync)) {
    errors.push_back(std::string("kind=") + harness_kind_name(spec.kind) +
                     " needs at least one worker group");
  }
  for (const WorkerGroup& group : spec.workers) {
    if (group.count < 1) {
      errors.push_back("worker group count must be >= 1");
      break;
    }
  }
  if (spec.kind != HarnessKind::kCloud && spec.kind != HarnessKind::kFleet &&
      spec.max_steps < 1 && spec.horizon_hours <= 0.0) {
    errors.push_back(
        "max_steps = 0 with no horizon_hours would never terminate");
  }
  if (spec.kind == HarnessKind::kFleet) {
    for (std::string& error : fleet::validate(spec.fleet)) {
      errors.push_back(std::move(error));
    }
  }
  const auto check_rate = [&](const char* key, double rate) {
    if (rate < 0.0 || rate > 1.0) {
      errors.push_back(std::string(key) + " must be in [0, 1]");
    }
  };
  check_rate("launch_error_rate", spec.faults.launch_error_rate);
  check_rate("upload_error_rate", spec.faults.upload_error_rate);
  check_rate("upload_slowdown_rate", spec.faults.upload_slowdown_rate);
  check_rate("restore_error_rate", spec.faults.restore_error_rate);
  check_rate("abrupt_kill_rate", spec.faults.abrupt_kill_rate);
  check_rate("ckpt.bit_rot_rate", spec.faults.bit_rot_rate);
  check_rate("ckpt.torn_write_rate", spec.faults.torn_write_rate);
  check_rate("backoff_jitter", spec.resilience.backoff_jitter);
  for (const faults::TierOutageWindow& window : spec.faults.tier_outages) {
    if (window.start_s < 0.0 || window.end_s < window.start_s) {
      errors.push_back(
          "tier outage window must satisfy 0 <= start_s <= end_s");
      break;
    }
  }
  if (spec.ckpt.enabled) {
    // Mirror the CheckpointPlane constructor checks so a bad spec fails
    // at validate() instead of throwing out of SimHarness::build().
    if (!(spec.ckpt.delta_ratio > 0.0) || spec.ckpt.delta_ratio > 1.0) {
      errors.push_back("ckpt.delta_ratio must be in (0, 1]");
    }
    if (spec.ckpt.max_delta_chain < 1) {
      errors.push_back("ckpt.max_delta_chain must be >= 1");
    }
    if (spec.ckpt.max_generations < 1) {
      errors.push_back("ckpt.max_generations must be >= 1");
    }
    for (const cloud::StorageTier tier :
         {cloud::StorageTier::kLocal, cloud::StorageTier::kRegional,
          cloud::StorageTier::kCold}) {
      const cloud::TierModel& model = spec.store_tiers.at(tier);
      if (model.latency_s < 0.0 || !(model.bandwidth_gbps > 0.0) ||
          model.usd_per_gb < 0.0) {
        errors.push_back(std::string("store.tier.") +
                         std::string(cloud::storage_tier_name(tier)) +
                         " must have latency_s >= 0, bandwidth_gbps > 0, "
                         "usd_per_gb >= 0");
        break;
      }
    }
  }
  for (const faults::StockoutWindow& window : spec.faults.stockouts) {
    if (window.start_s < 0.0 || window.end_s < window.start_s) {
      errors.push_back("stockout window must satisfy 0 <= start_s <= end_s");
      break;
    }
  }
  for (const faults::OutageStorm& storm : spec.faults.storms) {
    // Mirror the FaultInjector constructor checks so a bad spec fails at
    // validate() instead of throwing out of SimHarness::build().
    if (storm.start_s < 0.0 || storm.end_s < storm.start_s) {
      errors.push_back("storm window must satisfy 0 <= start_s <= end_s");
      break;
    }
    if (storm.kill_fraction < 0.0 || storm.kill_fraction > 1.0) {
      errors.push_back("storm kill fraction must be in [0, 1]");
      break;
    }
    if (storm.hazard_multiplier < 1.0 ||
        !std::isfinite(storm.hazard_multiplier)) {
      errors.push_back("storm hazard multiplier must be >= 1");
      break;
    }
    if (storm.startup_slowdown < 1.0 ||
        !std::isfinite(storm.startup_slowdown)) {
      errors.push_back("storm startup slowdown must be >= 1");
      break;
    }
  }
  if (spec.ps_count < 1) errors.push_back("ps_count must be >= 1");
  if (spec.utc_start_hour < 0.0 || spec.utc_start_hour >= 24.0) {
    errors.push_back("utc_start_hour must be in [0, 24)");
  }
  if (spec.horizon_hours < 0.0) {
    errors.push_back("horizon_hours must be >= 0");
  }
  if (spec.supervision.enabled) {
    // Mirror the supervise-layer constructor checks so a bad spec fails
    // at validate() instead of throwing out of SimHarness::build().
    const supervise::SupervisionConfig& sup = spec.supervision;
    if (!(sup.heartbeat.period_s > 0.0)) {
      errors.push_back("supervise.heartbeat_period_s must be > 0");
    }
    if (!(sup.heartbeat.timeout_s > 0.0)) {
      errors.push_back("supervise.heartbeat_timeout_s must be > 0");
    }
    if (sup.heartbeat.phi_threshold == 0.0 &&
        sup.heartbeat.timeout_s <= sup.heartbeat.period_s) {
      errors.push_back(
          "supervise.heartbeat_timeout_s must exceed "
          "supervise.heartbeat_period_s (every worker would be flagged)");
    }
    if (sup.heartbeat.jitter < 0.0 || sup.heartbeat.jitter > 1.0) {
      errors.push_back("supervise.heartbeat_jitter must be in [0, 1]");
    }
    if (sup.heartbeat.phi_threshold < 0.0) {
      errors.push_back("supervise.phi_threshold must be >= 0");
    }
    if (sup.heartbeat.sweep_period_s < 0.0) {
      errors.push_back("supervise.sweep_period_s must be >= 0");
    }
    if (!(sup.hazard.halflife_hours > 0.0)) {
      errors.push_back("supervise.hazard_halflife_hours must be > 0");
    }
    if (sup.hazard.prior_weight_hours < 0.0) {
      errors.push_back("supervise.hazard_prior_weight_hours must be >= 0");
    }
    if (!(sup.hazard.score_halflife_hours > 0.0)) {
      errors.push_back("supervise.score_halflife_hours must be > 0");
    }
    if (sup.checkpoint.retune_period_s < 0.0) {
      errors.push_back("supervise.retune_period_s must be >= 0");
    }
    if (sup.checkpoint.hysteresis < 0.0 || sup.checkpoint.hysteresis > 1.0) {
      errors.push_back("supervise.retune_hysteresis must be in [0, 1]");
    }
    if (sup.checkpoint.min_interval_steps < 1) {
      errors.push_back("supervise.min_interval_steps must be >= 1");
    }
  }
  if (spec.supervision.elastic.enabled && !spec.supervision.enabled) {
    errors.push_back(
        "supervise.elastic.enabled requires supervise.enabled = true");
  }
  if (spec.supervision.elastic.enabled) {
    // Mirror the CircuitBreaker / ElasticPolicy constructor checks.
    const supervise::ElasticConfig& elastic = spec.supervision.elastic;
    if (elastic.min_workers < 1) {
      errors.push_back("supervise.elastic.min_workers must be >= 1");
    }
    if (elastic.breaker.open_after_failures < 1) {
      errors.push_back("supervise.elastic.breaker_failures must be >= 1");
    }
    if (!(elastic.breaker.backoff_s > 0.0) ||
        !std::isfinite(elastic.breaker.backoff_s)) {
      errors.push_back("supervise.elastic.breaker_backoff_s must be > 0");
    }
    if (elastic.breaker.backoff_multiplier < 1.0) {
      errors.push_back(
          "supervise.elastic.breaker_backoff_multiplier must be >= 1");
    }
    if (elastic.breaker.max_backoff_s < elastic.breaker.backoff_s ||
        !std::isfinite(elastic.breaker.max_backoff_s)) {
      errors.push_back(
          "supervise.elastic.breaker_max_backoff_s must be >= "
          "supervise.elastic.breaker_backoff_s");
    }
    if (elastic.grow_hysteresis_s < 0.0 ||
        !std::isfinite(elastic.grow_hysteresis_s)) {
      errors.push_back("supervise.elastic.grow_hysteresis_s must be >= 0");
    }
    if (elastic.futility_threshold < 0.0 ||
        !std::isfinite(elastic.futility_threshold)) {
      errors.push_back("supervise.elastic.futility_threshold must be >= 0");
    }
    if (elastic.deadline_hours < 0.0 ||
        !std::isfinite(elastic.deadline_hours)) {
      errors.push_back("supervise.elastic.deadline_hours must be >= 0");
    }
  }
  return errors;
}

}  // namespace cmdare::scenario
