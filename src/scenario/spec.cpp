#include "scenario/spec.hpp"

#include <cmath>
#include <concepts>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>

#include "nn/model_zoo.hpp"
#include "util/strings.hpp"

namespace cmdare::scenario {
namespace {

using SetError = std::optional<std::string>;

// --- scalar codecs -------------------------------------------------------
//
// parse_value reads one value of a member type from (untrimmed) text and
// returns false when it is malformed; append_value writes its canonical
// text. Ranges are not their business: see Range below.

template <typename T>
  requires std::is_arithmetic_v<T>
bool parse_value(std::string_view text, T* out) {
  return util::parse_number(util::trim(text), out);
}

bool parse_value(std::string_view text, bool* out) {
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

bool parse_value(std::string_view text, std::string* out) {
  out->assign(util::trim(text));
  return true;
}

std::string lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool parse_value(std::string_view text, cloud::GpuType* out) {
  const std::string needle = lower(util::trim(text));
  for (const cloud::GpuType gpu : cloud::kAllGpuTypes) {
    if (needle == lower(cloud::gpu_name(gpu))) {
      *out = gpu;
      return true;
    }
  }
  return false;
}

const char* value_name(HarnessKind kind) { return harness_kind_name(kind); }

const char* value_name(train::FaultToleranceMode mode) {
  return mode == train::FaultToleranceMode::kCmDare ? "cm-dare"
                                                    : "vanilla-tf";
}

const char* value_name(cloud::Region region) {
  return cloud::region_name(region);
}

const char* value_name(cloud::RequestContext context) {
  return cloud::request_context_name(context);
}

const char* value_name(fleet::SchedulerPolicy policy) {
  return fleet::scheduler_policy_name(policy);
}

/// Finds the member of `values` whose value_name() is `text`.
template <typename E, typename Values>
bool parse_named(std::string_view text, const Values& values, E* out) {
  text = util::trim(text);
  for (const E value : values) {
    if (text == value_name(value)) {
      *out = value;
      return true;
    }
  }
  return false;
}

bool parse_value(std::string_view text, HarnessKind* out) {
  constexpr HarnessKind kKinds[] = {HarnessKind::kRun, HarnessKind::kSession,
                                    HarnessKind::kSync, HarnessKind::kCloud,
                                    HarnessKind::kFleet};
  return parse_named(text, kKinds, out);
}

bool parse_value(std::string_view text, train::FaultToleranceMode* out) {
  constexpr train::FaultToleranceMode kModes[] = {
      train::FaultToleranceMode::kCmDare,
      train::FaultToleranceMode::kVanillaTf};
  return parse_named(text, kModes, out);
}

bool parse_value(std::string_view text, cloud::Region* out) {
  return parse_named(lower(util::trim(text)), cloud::kAllRegions, out);
}

bool parse_value(std::string_view text, cloud::RequestContext* out) {
  constexpr cloud::RequestContext kContexts[] = {
      cloud::RequestContext::kNormal,
      cloud::RequestContext::kImmediateAfterRevocation,
      cloud::RequestContext::kDelayedAfterRevocation};
  return parse_named(text, kContexts, out);
}

bool parse_value(std::string_view text, fleet::SchedulerPolicy* out) {
  return fleet::scheduler_policy_from_name(util::trim(text), out);
}

void append_value(std::string& out, const std::string& text) { out += text; }

void append_value(std::string& out, bool value) {
  out += value ? "true" : "false";
}

void append_value(std::string& out, double value) {
  out += util::format_shortest(value);
}

template <std::integral T>
void append_value(std::string& out, T value) {
  out += std::to_string(value);
}

template <typename E>
  requires std::is_enum_v<E>
void append_value(std::string& out, E value) {
  out += value_name(value);
}

// --- list entries --------------------------------------------------------
//
// Each entry type has a text form and one validity predicate,
// entry_error(), which the parser applies to every entry it reads and
// validate() applies to every entry in a spec.

bool window_ok(double start_s, double end_s) {
  return start_s >= 0.0 && end_s >= start_s;  // false for NaN too
}

const char* entry_error(const WorkerGroup& group) {
  return group.count >= 1 ? nullptr : "worker group count must be >= 1";
}

const char* entry_error(const faults::StockoutWindow& window) {
  return window_ok(window.start_s, window.end_s)
             ? nullptr
             : "stockout window must satisfy 0 <= start_s <= end_s";
}

const char* entry_error(const faults::TierOutageWindow& window) {
  return window_ok(window.start_s, window.end_s)
             ? nullptr
             : "tier outage window must satisfy 0 <= start_s <= end_s";
}

// Mirrors the FaultInjector constructor checks, so a bad storm fails at
// parse or validate() instead of throwing out of SimHarness::build().
const char* entry_error(const faults::OutageStorm& storm) {
  if (!window_ok(storm.start_s, storm.end_s)) {
    return "storm window must satisfy 0 <= start_s <= end_s";
  }
  if (!(storm.kill_fraction >= 0.0 && storm.kill_fraction <= 1.0)) {
    return "storm kill fraction must be in [0, 1]";
  }
  if (!(storm.hazard_multiplier >= 1.0) ||
      !std::isfinite(storm.hazard_multiplier)) {
    return "storm hazard multiplier must be >= 1";
  }
  if (!(storm.startup_slowdown >= 1.0) ||
      !std::isfinite(storm.startup_slowdown)) {
    return "storm startup slowdown must be >= 1";
  }
  return nullptr;
}

template <typename E>
SetError checked(const E& entry, E* out) {
  if (const char* error = entry_error(entry)) return std::string(error);
  *out = entry;
  return std::nullopt;
}

std::string bad_entry(const char* what, std::string_view text,
                      const char* want) {
  return std::string("bad ") + what + " \"" + std::string(util::trim(text)) +
         "\" (want \"" + want + "\")";
}

/// "<region>/<gpu|*>", where `*` covers every GPU type in the region.
bool parse_scope(std::string_view text, cloud::Region* region,
                 std::optional<cloud::GpuType>* gpu) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos ||
      !parse_value(text.substr(0, slash), region)) {
    return false;
  }
  const std::string_view name = util::trim(text.substr(slash + 1));
  cloud::GpuType parsed{};
  if (name == "*") {
    gpu->reset();
  } else if (parse_value(name, &parsed)) {
    *gpu = parsed;
  } else {
    return false;
  }
  return true;
}

/// "<start_s>..<end_s>"
bool parse_window(std::string_view text, double* start_s, double* end_s) {
  const std::size_t dots = text.find("..");
  return dots != std::string_view::npos &&
         parse_value(text.substr(0, dots), start_s) &&
         parse_value(text.substr(dots + 2), end_s);
}

void append_scope(std::string& out, cloud::Region region,
                  const std::optional<cloud::GpuType>& gpu) {
  out += cloud::region_name(region);
  out += '/';
  out += gpu ? cloud::gpu_name(*gpu) : "*";
}

void append_window(std::string& out, double start_s, double end_s) {
  out += " @ ";
  out += util::format_shortest(start_s);
  out += "..";
  out += util::format_shortest(end_s);
}

/// "<count> x <gpu> @ <region> [on-demand]"
SetError parse_entry(std::string_view text, WorkerGroup* out) {
  const auto fail = [&] {
    return bad_entry("worker group", text,
                     "<count> x <gpu> @ <region> [on-demand]");
  };
  const std::size_t x = text.find(" x ");
  const std::size_t at = text.find(" @ ", x == std::string_view::npos ? 0 : x);
  if (x == std::string_view::npos || at == std::string_view::npos) {
    return fail();
  }
  WorkerGroup group;
  if (!parse_value(text.substr(0, x), &group.count) ||
      !parse_value(text.substr(x + 3, at - x - 3), &group.gpu)) {
    return fail();
  }
  std::string_view region = util::trim(text.substr(at + 3));
  constexpr std::string_view kOnDemand = "on-demand";
  if (region.size() > kOnDemand.size() && util::ends_with(region, kOnDemand)) {
    group.transient = false;
    region = util::trim(region.substr(0, region.size() - kOnDemand.size()));
  }
  if (!parse_value(region, &group.region)) return fail();
  return checked(group, out);
}

void append_value(std::string& out, const WorkerGroup& group) {
  out += std::to_string(group.count);
  out += " x ";
  out += cloud::gpu_name(group.gpu);
  out += " @ ";
  out += cloud::region_name(group.region);
  if (!group.transient) out += " on-demand";
}

/// "<region>/<gpu|*> @ <start_s>..<end_s>"
SetError parse_entry(std::string_view text, faults::StockoutWindow* out) {
  const std::size_t at = text.find(" @ ");
  faults::StockoutWindow window;
  if (at == std::string_view::npos ||
      !parse_scope(text.substr(0, at), &window.region, &window.gpu) ||
      !parse_window(text.substr(at + 3), &window.start_s, &window.end_s)) {
    return bad_entry("stockout", text, "<region>/<gpu|*> @ <start_s>..<end_s>");
  }
  return checked(window, out);
}

void append_value(std::string& out, const faults::StockoutWindow& window) {
  append_scope(out, window.region, window.gpu);
  append_window(out, window.start_s, window.end_s);
}

/// "<region>/<gpu|*> @ <start_s>..<end_s> [kill=F] [hazard=M] [slow=M]"
SetError parse_entry(std::string_view text, faults::OutageStorm* out) {
  const auto fail = [&] {
    return bad_entry("storm", text,
                     "<region>/<gpu|*> @ <start_s>..<end_s> [kill=<rate>] "
                     "[hazard=<mult>] [slow=<mult>]");
  };
  const std::size_t at = text.find(" @ ");
  faults::OutageStorm storm;
  if (at == std::string_view::npos ||
      !parse_scope(text.substr(0, at), &storm.region, &storm.gpu)) {
    return fail();
  }
  // The window, then optional space-separated key=value modifiers.
  const std::string_view rest = util::trim(text.substr(at + 3));
  const std::size_t space = rest.find(' ');
  if (!parse_window(rest.substr(0, space), &storm.start_s, &storm.end_s)) {
    return fail();
  }
  if (space == std::string_view::npos) return checked(storm, out);
  for (const std::string& part : util::split(rest.substr(space), ' ')) {
    const std::string_view token = util::trim(part);
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    double value = 0.0;
    if (eq == std::string_view::npos ||
        !parse_value(token.substr(eq + 1), &value)) {
      return fail();
    }
    const std::string_view key = token.substr(0, eq);
    if (key == "kill") {
      storm.kill_fraction = value;
    } else if (key == "hazard") {
      storm.hazard_multiplier = value;
    } else if (key == "slow") {
      storm.startup_slowdown = value;
    } else {
      return fail();
    }
  }
  return checked(storm, out);
}

void append_value(std::string& out, const faults::OutageStorm& storm) {
  append_scope(out, storm.region, storm.gpu);
  append_window(out, storm.start_s, storm.end_s);
  out += " kill=";
  out += util::format_shortest(storm.kill_fraction);
  out += " hazard=";
  out += util::format_shortest(storm.hazard_multiplier);
  out += " slow=";
  out += util::format_shortest(storm.startup_slowdown);
}

/// "<tier> @ <start_s>..<end_s>" (tier: local / regional / cold)
SetError parse_entry(std::string_view text, faults::TierOutageWindow* out) {
  const std::size_t at = text.find(" @ ");
  const std::optional<cloud::StorageTier> tier =
      at == std::string_view::npos
          ? std::nullopt
          : cloud::storage_tier_from_name(util::trim(text.substr(0, at)));
  faults::TierOutageWindow window;
  if (!tier ||
      !parse_window(text.substr(at + 3), &window.start_s, &window.end_s)) {
    return bad_entry("tier outage", text,
                     "<local|regional|cold> @ <start_s>..<end_s>");
  }
  window.tier = *tier;
  return checked(window, out);
}

void append_value(std::string& out, const faults::TierOutageWindow& window) {
  out += cloud::storage_tier_name(window.tier);
  append_window(out, window.start_s, window.end_s);
}

// --- ranges --------------------------------------------------------------

constexpr double kHuge = 1e18;
constexpr double kMaxSteps = 1L << 40;

/// The one range a key's value must lie in, for set_field and validate()
/// alike, and the "want ..." text of every error about the key.
struct Range {
  const char* want = "";
  double min = std::numeric_limits<double>::lowest();
  double max = std::numeric_limits<double>::max();
};

// Ranges several keys share.
constexpr Range kBool{"true or false"};
constexpr Range kRate{"a rate in [0, 1]", 0.0, 1.0};
constexpr Range kFraction{"a fraction in [0, 1]", 0.0, 1.0};
constexpr Range kSeconds{"seconds >= 0", 0.0, kHuge};
constexpr Range kPositiveSeconds{"seconds > 0", 1e-9, kHuge};
constexpr Range kPositiveHours{"hours > 0", 1e-9, kHuge};
constexpr Range kMultiplier{"a multiplier >= 1", 1.0, kHuge};
constexpr Range kPositiveInt{"an integer >= 1", 1, 1 << 20};
constexpr Range kSteps{"an integer >= 0", 0, kMaxSteps};
constexpr Range kPositiveSteps{"an integer >= 1", 1, kMaxSteps};

/// False for NaN and, as every bound is finite, for infinities.
bool in_range(const Range& range, double value) {
  return value >= range.min && value <= range.max;
}

SetError bad_value(std::string_view key, std::string_view value,
                   const Range& range) {
  return "bad value \"" + std::string(value) + "\" for " + std::string(key) +
         " (expected " + range.want + ")";
}

std::string out_of_range(std::string_view key, const Range& range) {
  return std::string(key) + " out of range (want " + range.want + ")";
}

/// Whether `value` may be stored under a key with this range. Text must
/// read back as itself: parse() trims values and cuts lines at '\n' and
/// comments at '#'.
template <typename T>
bool allowed(const Range& range, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    return !value.empty() && util::trim(value) == value &&
           value.find_first_of("#\n") == std::string::npos;
  } else if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    return in_range(range, static_cast<double>(value));
  } else {
    return true;
  }
}

/// The error for a value allowed() refuses.
template <typename T>
std::string refusal(std::string_view key, const Range& range, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    return std::string(key) +
           (value.empty()
                ? " must not be empty"
                : " must not contain '#', a line break or surrounding spaces");
  } else {
    return out_of_range(key, range);
  }
}

// --- what a row does, by member type -------------------------------------
//
// assign() parses `value` into the member (set_field), emit() writes the
// member's `key = value` line (serialize), and allowed() / refusal() test
// the member's current value and word the error (validate). Scalars share
// one template each; lists, the fault-rate shorthand and the storage-tier
// product overload them.

template <typename T>
SetError assign(std::string_view key, const Range& range,
                std::string_view value, bool /*append*/, T& member) {
  T parsed{};
  if (!parse_value(value, &parsed)) return bad_value(key, value, range);
  if (!allowed(range, parsed)) return refusal(key, range, parsed);
  member = std::move(parsed);
  return std::nullopt;
}

template <typename T>
void emit(std::string& out, std::string_view key, const T& member) {
  out += key;
  out += " = ";
  append_value(out, member);
  out += '\n';
}

/// Comma-separated entries; the append form adds them to the list.
template <typename E>
SetError assign(std::string_view, const Range&, std::string_view value,
                bool append, std::vector<E>& list) {
  std::vector<E> entries;
  if (append) entries = list;
  if (!value.empty()) {
    for (const std::string& part : util::split(value, ',')) {
      E entry;
      if (SetError error = parse_entry(part, &entry)) return error;
      entries.push_back(entry);
    }
  }
  list = std::move(entries);
  return std::nullopt;
}

/// An empty list emits no line.
template <typename E>
void emit(std::string& out, std::string_view key, const std::vector<E>& list) {
  if (list.empty()) return;
  out += key;
  out += " = ";
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i != 0) out += ", ";
    append_value(out, list[i]);
  }
  out += '\n';
}

/// Names the first bad entry; empty when there is none.
template <typename E>
std::string refusal(std::string_view, const Range&,
                    const std::vector<E>& list) {
  for (const E& entry : list) {
    if (const char* error = entry_error(entry)) return error;
  }
  return {};
}

template <typename E>
bool allowed(const Range& range, const std::vector<E>& list) {
  return refusal({}, range, list).empty();
}

/// `fault_rate`: write-only shorthand for one uniform rate across every
/// probabilistic fault class (windows and the slowdown factor are kept).
SetError assign(std::string_view key, const Range& range,
                std::string_view value, bool, faults::FaultPlan& plan) {
  double rate = 0.0;
  if (SetError error = assign(key, range, value, false, rate)) return error;
  plan.launch_error_rate = rate;
  plan.upload_error_rate = rate;
  plan.upload_slowdown_rate = rate;
  plan.restore_error_rate = rate;
  plan.abrupt_kill_rate = rate;
  return std::nullopt;
}

void emit(std::string&, std::string_view, const faults::FaultPlan&) {}

/// `store.tier.<tier>.<field>`: every tier times these fields.
struct TierField {
  std::string_view name;
  double cloud::TierModel::*member;
  Range range;
};

constexpr TierField kTierFields[] = {
    {"latency_s", &cloud::TierModel::latency_s, kSeconds},
    {"bandwidth_gbps", &cloud::TierModel::bandwidth_gbps,
     {"Gbps > 0", 1e-9, kHuge}},
    {"usd_per_gb", &cloud::TierModel::usd_per_gb,
     {"dollars per GB >= 0", 0.0, kHuge}},
};

constexpr cloud::StorageTier kTiers[] = {cloud::StorageTier::kLocal,
                                         cloud::StorageTier::kRegional,
                                         cloud::StorageTier::kCold};

constexpr std::string_view kTierPrefix = "store.tier.";

std::string tier_key(cloud::StorageTier tier, const TierField& field) {
  std::string key(kTierPrefix);
  key += cloud::storage_tier_name(tier);
  key += '.';
  key += field.name;
  return key;
}

SetError assign(std::string_view key, const Range&, std::string_view value,
                bool, cloud::TierSet& tiers) {
  const std::string_view rest = key.substr(kTierPrefix.size());
  const std::size_t dot = rest.find('.');
  const std::optional<cloud::StorageTier> tier =
      cloud::storage_tier_from_name(rest.substr(0, dot));
  if (tier && dot != std::string_view::npos) {
    for (const TierField& field : kTierFields) {
      if (rest.substr(dot + 1) == field.name) {
        return assign(key, field.range, value, false,
                      tiers.at(*tier).*field.member);
      }
    }
  }
  return "unknown key \"" + std::string(key) +
         "\" (want store.tier.<local|regional|cold>."
         "<latency_s|bandwidth_gbps|usd_per_gb>)";
}

void emit(std::string& out, std::string_view, const cloud::TierSet& tiers) {
  for (const cloud::StorageTier tier : kTiers) {
    for (const TierField& field : kTierFields) {
      emit(out, tier_key(tier, field), tiers.at(tier).*field.member);
    }
  }
}

/// Names the first tier field out of its range; empty when there is none.
std::string refusal(std::string_view, const Range&,
                    const cloud::TierSet& tiers) {
  for (const cloud::StorageTier tier : kTiers) {
    for (const TierField& field : kTierFields) {
      if (!in_range(field.range, tiers.at(tier).*field.member)) {
        return out_of_range(tier_key(tier, field), field.range);
      }
    }
  }
  return {};
}

bool allowed(const Range& range, const cloud::TierSet& tiers) {
  return refusal({}, range, tiers).empty();
}

// --- the field table -----------------------------------------------------

template <typename T>
using At = T* (*)(ScenarioSpec&);

/// The member a row reads and writes; its type picks the codec.
using Member = std::variant<
    At<std::string>, At<std::uint64_t>, At<int>, At<long>, At<double>,
    At<bool>, At<HarnessKind>, At<train::FaultToleranceMode>,
    At<cloud::Region>, At<cloud::RequestContext>, At<fleet::SchedulerPolicy>,
    At<std::vector<WorkerGroup>>, At<std::vector<faults::StockoutWindow>>,
    At<std::vector<faults::OutageStorm>>,
    At<std::vector<faults::TierOutageWindow>>, At<faults::FaultPlan>,
    At<cloud::TierSet>>;

/// One spec key. A list row also answers to `append_key`, the write-only
/// form that appends entries instead of replacing the list; the
/// cloud::TierSet row answers to every key under its `key` prefix.
struct Field {
  std::string_view key;
  Member at;
  Range range = {};
  std::string_view append_key = {};
};

#define MEMBER(path) [](ScenarioSpec& s) { return &s.path; }

/// Every key, in serialize() order.
constexpr Field kFields[] = {
    {"name", MEMBER(name)},
    {"kind", MEMBER(kind), {"run, session, sync, cloud, or fleet"}},
    {"seed", MEMBER(seed), {"an unsigned integer"}},
    {"model", MEMBER(model)},
    {"workers", MEMBER(workers), {}, "worker"},
    {"ps_count", MEMBER(ps_count), kPositiveInt},
    {"max_steps", MEMBER(max_steps), kSteps},
    {"checkpoint_interval_steps", MEMBER(checkpoint_interval_steps), kSteps},
    {"checkpoint_max_retries", MEMBER(checkpoint_max_retries),
     {"an integer >= 0", 0, 1 << 20}},
    {"ft_mode", MEMBER(ft_mode), {"cm-dare or vanilla-tf"}},
    {"ps_region", MEMBER(ps_region), {"a region name"}},
    {"auto_replace", MEMBER(auto_replace), kBool},
    {"replacement_context", MEMBER(replacement_context),
     {"normal, immediate, or delayed"}},
    {"max_launch_attempts", MEMBER(resilience.max_launch_attempts),
     kPositiveInt},
    {"backoff_base_seconds", MEMBER(resilience.backoff_base_seconds),
     kSeconds},
    {"backoff_multiplier", MEMBER(resilience.backoff_multiplier),
     kMultiplier},
    {"backoff_max_seconds", MEMBER(resilience.backoff_max_seconds), kSeconds},
    {"backoff_jitter", MEMBER(resilience.backoff_jitter), kFraction},
    {"stockouts_before_fallback",
     MEMBER(resilience.stockouts_before_fallback), kPositiveInt},
    {"allow_region_fallback", MEMBER(resilience.allow_region_fallback),
     kBool},
    {"allow_gpu_fallback", MEMBER(resilience.allow_gpu_fallback), kBool},
    {"allow_on_demand_fallback", MEMBER(resilience.allow_on_demand_fallback),
     kBool},
    {"utc_start_hour", MEMBER(utc_start_hour),
     {"an hour in [0, 24)", 0.0, 24.0 - 0x1p-48}},  // the last double < 24
    {"horizon_hours", MEMBER(horizon_hours), {"hours >= 0", 0.0, kHuge}},
    {"launch_error_rate", MEMBER(faults.launch_error_rate), kRate},
    {"upload_error_rate", MEMBER(faults.upload_error_rate), kRate},
    {"upload_slowdown_rate", MEMBER(faults.upload_slowdown_rate), kRate},
    {"upload_slowdown_factor", MEMBER(faults.upload_slowdown_factor),
     kMultiplier},
    {"restore_error_rate", MEMBER(faults.restore_error_rate), kRate},
    {"abrupt_kill_rate", MEMBER(faults.abrupt_kill_rate), kRate},
    {"fault_rate", MEMBER(faults), kRate},
    {"stockouts", MEMBER(faults.stockouts), {}, "stockout"},
    {"storms", MEMBER(faults.storms), {}, "storm"},
    {"ckpt.enabled", MEMBER(ckpt.enabled), kBool},
    {"ckpt.delta_ratio", MEMBER(ckpt.delta_ratio),
     {"a fraction in (0, 1]", 1e-9, 1.0}},
    {"ckpt.max_delta_chain", MEMBER(ckpt.max_delta_chain), kPositiveInt},
    {"ckpt.max_generations", MEMBER(ckpt.max_generations), kPositiveInt},
    {"ckpt.bit_rot_rate", MEMBER(faults.bit_rot_rate), kRate},
    {"ckpt.torn_write_rate", MEMBER(faults.torn_write_rate), kRate},
    {"ckpt.tier_outages", MEMBER(faults.tier_outages), {}, "ckpt.tier_outage"},
    {kTierPrefix, MEMBER(store_tiers)},
    {"fleet.tenants", MEMBER(fleet.tenants),
     {"an integer in [1, 65536]", 1, 1 << 16}},
    {"fleet.demand", MEMBER(fleet.demand),
     {"a multiplier in (0, 64]", 1e-9, 64.0}},
    {"fleet.workers_per_tenant", MEMBER(fleet.workers_per_tenant),
     {"an integer in [1, 1024]", 1, 1024}},
    {"fleet.min_steps", MEMBER(fleet.min_steps), kPositiveSteps},
    {"fleet.max_steps", MEMBER(fleet.max_steps), kPositiveSteps},
    {"fleet.checkpoint_interval_steps",
     MEMBER(fleet.checkpoint_interval_steps), kSteps},
    {"fleet.checkpoint_seconds", MEMBER(fleet.checkpoint_seconds), kSeconds},
    {"fleet.restore_seconds", MEMBER(fleet.restore_seconds), kSeconds},
    {"fleet.deadline_hours", MEMBER(fleet.deadline_hours), kPositiveHours},
    {"fleet.model_mix", MEMBER(fleet.model_mix), kBool},
    {"fleet.capacity_per_pool", MEMBER(fleet.capacity_per_pool),
     kPositiveInt},
    {"fleet.price_sensitivity", MEMBER(fleet.price_sensitivity),
     {"a factor in [0, 1000]", 0.0, 1000.0}},
    {"fleet.price_exponent", MEMBER(fleet.price_exponent),
     {"an exponent in [0, 64]", 0.0, 64.0}},
    {"fleet.capacity_dip", MEMBER(fleet.capacity_dip), kRate},
    {"fleet.bid_spread", MEMBER(fleet.bid_spread),
     {"a spread >= 0", 0.0, kHuge}},
    {"fleet.market_period_s", MEMBER(fleet.market_period_s),
     kPositiveSeconds},
    {"fleet.scheduler", MEMBER(fleet.scheduler),
     {"round-robin or cost-optimal"}},
    {"fleet.migrate_period_s", MEMBER(fleet.migrate_period_s),
     {"seconds >= 0 (0 = never migrate)", 0.0, kHuge}},
    {"fleet.migrate_gain", MEMBER(fleet.migrate_gain), kFraction},
    {"fleet.hazard_revocations", MEMBER(fleet.hazard_revocations), kBool},
    {"telemetry", MEMBER(telemetry), kBool},
    {"supervise.enabled", MEMBER(supervision.enabled), kBool},
    {"supervise.heartbeat_period_s", MEMBER(supervision.heartbeat.period_s),
     kPositiveSeconds},
    {"supervise.heartbeat_timeout_s", MEMBER(supervision.heartbeat.timeout_s),
     kPositiveSeconds},
    {"supervise.heartbeat_jitter", MEMBER(supervision.heartbeat.jitter),
     kFraction},
    {"supervise.phi_threshold", MEMBER(supervision.heartbeat.phi_threshold),
     {"a threshold >= 0 (0 = plain timeout)", 0.0, kHuge}},
    {"supervise.sweep_period_s", MEMBER(supervision.heartbeat.sweep_period_s),
     {"seconds >= 0 (0 = timeout / 4)", 0.0, kHuge}},
    {"supervise.hazard_halflife_hours",
     MEMBER(supervision.hazard.halflife_hours), kPositiveHours},
    {"supervise.hazard_prior_weight_hours",
     MEMBER(supervision.hazard.prior_weight_hours), {"hours >= 0", 0.0, kHuge}},
    {"supervise.score_halflife_hours",
     MEMBER(supervision.hazard.score_halflife_hours), kPositiveHours},
    {"supervise.retune_period_s",
     MEMBER(supervision.checkpoint.retune_period_s),
     {"seconds >= 0 (0 = disabled)", 0.0, kHuge}},
    {"supervise.retune_hysteresis", MEMBER(supervision.checkpoint.hysteresis),
     kFraction},
    {"supervise.min_interval_steps",
     MEMBER(supervision.checkpoint.min_interval_steps), kPositiveSteps},
    {"supervise.score_replacement", MEMBER(supervision.score_replacement),
     kBool},
    {"supervise.hedged_replacement", MEMBER(supervision.hedged_replacement),
     kBool},
    {"supervise.elastic.enabled", MEMBER(supervision.elastic.enabled), kBool},
    {"supervise.elastic.min_workers", MEMBER(supervision.elastic.min_workers),
     kPositiveInt},
    {"supervise.elastic.breaker_failures",
     MEMBER(supervision.elastic.breaker.open_after_failures), kPositiveInt},
    {"supervise.elastic.breaker_backoff_s",
     MEMBER(supervision.elastic.breaker.backoff_s), kPositiveSeconds},
    {"supervise.elastic.breaker_backoff_multiplier",
     MEMBER(supervision.elastic.breaker.backoff_multiplier), kMultiplier},
    {"supervise.elastic.breaker_max_backoff_s",
     MEMBER(supervision.elastic.breaker.max_backoff_s), kPositiveSeconds},
    {"supervise.elastic.grow_hysteresis_s",
     MEMBER(supervision.elastic.grow_hysteresis_s), kSeconds},
    {"supervise.elastic.futility_threshold",
     MEMBER(supervision.elastic.futility_threshold),
     {"a threshold >= 0 (0 = disabled)", 0.0, kHuge}},
    {"supervise.elastic.deadline_hours",
     MEMBER(supervision.elastic.deadline_hours),
     {"hours >= 0 (0 = no deadline)", 0.0, kHuge}},
};

#undef MEMBER

/// Calls read(row, member) for every row in table order, where `row` is
/// a std::integral_constant index into kFields and `member` that row's
/// member of a const spec (the accessors take a mutable spec so one table
/// serves set_field too; reading never writes). The loop is unrolled at
/// compile time and each call is to its own instantiation, so accessors
/// and ranges fold to constants: validate() runs once per replica.
template <typename Read>
void for_each_member(const ScenarioSpec& spec, Read&& read) {
  ScenarioSpec& source = const_cast<ScenarioSpec&>(spec);
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (read(std::integral_constant<std::size_t, I>{},
          std::as_const(
              *std::get<kFields[I].at.index()>(kFields[I].at)(source))),
     ...);
  }(std::make_index_sequence<std::size(kFields)>{});
}

/// Whether every member passes allowed(); validate() words the errors
/// only when it does not.
bool all_allowed(const ScenarioSpec& spec) {
  bool ok = true;
  for_each_member(spec, [&](auto row, const auto& member) {
    ok = ok && allowed(kFields[row].range, member);
  });
  return ok;
}

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
  const bool tier_key = util::starts_with(key, kTierPrefix);
  for (const Field& row : kFields) {
    const bool append = !row.append_key.empty() && key == row.append_key;
    if (key == row.key || append ||
        (tier_key && std::holds_alternative<At<cloud::TierSet>>(row.at))) {
      return std::visit(
          [&](auto at) {
            return assign(key, row.range, value, append, *at(spec));
          },
          row.at);
    }
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
  for_each_member(spec, [&](auto row, const auto& member) {
    emit(out, kFields[row].key, member);
  });
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
  // Every key's own range, whether or not its section is enabled: a value
  // validate() lets through must survive serialize() -> parse().
  if (!all_allowed(spec)) {
    for_each_member(spec, [&](auto row, const auto& member) {
      const Field& field = kFields[row];
      if (!allowed(field.range, member)) {
        errors.push_back(refusal(field.key, field.range, member));
      }
    });
  }
  const supervise::SupervisionConfig& sup = spec.supervision;
  if (sup.enabled && sup.heartbeat.phi_threshold == 0.0 &&
      sup.heartbeat.timeout_s <= sup.heartbeat.period_s) {
    errors.push_back(
        "supervise.heartbeat_timeout_s must exceed "
        "supervise.heartbeat_period_s (every worker would be flagged)");
  }
  if (sup.elastic.enabled && !sup.enabled) {
    errors.push_back(
        "supervise.elastic.enabled requires supervise.enabled = true");
  }
  if (sup.elastic.enabled &&
      sup.elastic.breaker.max_backoff_s < sup.elastic.breaker.backoff_s) {
    errors.push_back(
        "supervise.elastic.breaker_max_backoff_s must be >= "
        "supervise.elastic.breaker_backoff_s");
  }
  return errors;
}

}  // namespace cmdare::scenario
