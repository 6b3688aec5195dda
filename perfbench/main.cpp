// perfbench: the repo's campaign benchmark driver.
//
//   perfbench --workload sweep_short --seed 1 --seconds 10 --trace 0
//             --specs perfbench/specs --pins perfbench/pins.tsv
//             --record out.json [--spans spans.jsonl]
//
// Runs one workload (campaigns.cpp, predictor.cpp) and writes its Outcome
// as one JSON object to --record: the metrics by name, their sample
// counts, every output check, and the raw samples. perfbench/run.py builds
// this binary, attaches units and the host stamp, and prints the result.
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error or a crash of the benchmark itself.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace json = cmdare::util::json;

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string digest(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             WallClock::now().time_since_epoch())
      .count();
}

}  // namespace

int SpanLog::open(std::string name, long replica) {
  Span span;
  span.name = std::move(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.replica = replica;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

std::map<std::string, double> SpanLog::total_ns_by_name(
    std::size_t first) const {
  std::map<std::string, double> total;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    total[spans_[i].name] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  return total;
}

std::map<std::string, double> SpanLog::self_ns_by_name(
    std::size_t first) const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const auto duration =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    self[i] += duration;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= duration;
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Outcome::check_pin(const Options& options, const std::string& what,
                        const std::string& actual) {
  const auto it = options.pins.find(options.workload + " " +
                                    std::to_string(options.seed) + " " + what);
  if (it == options.pins.end()) return;
  check(it->second == actual,
        "pinned " + what + " digest " + it->second + ", got " + actual);
}

void Outcome::keep_raw(const std::string& key,
                       const std::vector<double>& values) {
  json::Array items;
  items.reserve(values.size());
  for (double v : values) items.push_back(json::make_number(v));
  raw[key] = json::make_array(std::move(items));
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec and so
  // reports the launching process's footprint when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double cell_median(const std::vector<std::vector<double>>& by_cell) {
  double log_sum = 0.0;
  for (const std::vector<double>& times : by_cell) {
    log_sum += std::log(median(times));
  }
  return std::exp(log_sum / static_cast<double>(by_cell.size()));
}

double cell_tail(const std::vector<std::vector<double>>& by_cell,
                 double& q_used) {
  q_used = 0.99;
  for (const std::vector<double>& times : by_cell) {
    if (times.size() < kTailReplicas) q_used = 0.5;
  }
  double log_sum = 0.0;
  for (const std::vector<double>& times : by_cell) {
    log_sum += std::log(quantile(times, q_used));
  }
  return std::exp(log_sum / static_cast<double>(by_cell.size()));
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::map<std::string, std::string> read_pins(const std::string& path) {
  std::map<std::string, std::string> pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, seed, what, value;
    if (fields >> workload >> seed >> what >> value) {
      pins[workload + " " + seed + " " + what] = value;
    }
  }
  return pins;
}

json::Value record_json(const Options& options, const Outcome& out) {
  json::Object metrics;
  for (const auto& [name, value] : out.metrics) {
    metrics[name] = json::make_number(value);
  }
  json::Object samples;
  for (const auto& [name, n] : out.samples) {
    samples[name] = json::make_number(static_cast<double>(n));
  }
  json::Object info;
  for (const auto& [name, value] : out.info) {
    info[name] = json::make_number(value);
  }
  json::Array failures;
  for (const std::string& f : out.failures) {
    failures.push_back(json::make_string(f));
  }
  return json::make_object({
      {"workload", json::make_string(options.workload)},
      {"seed", json::make_number(static_cast<double>(options.seed))},
      {"seconds", json::make_number(options.seconds)},
      {"trace", json::make_bool(options.trace)},
      {"attempted", json::make_number(static_cast<double>(out.attempted))},
      {"failed", json::make_number(static_cast<double>(out.failed))},
      {"failures", json::make_array(std::move(failures))},
      {"metrics", json::make_object(std::move(metrics))},
      {"samples", json::make_object(std::move(samples))},
      {"info", json::make_object(std::move(info))},
      {"raw", json::make_object(out.raw)},
  });
}

void write_spans(const SpanLog& log, std::ostream& out) {
  const std::vector<Span>& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << json::escape(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"replica\":" << s.replica
        << "}\n";
  }
}

int usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --specs DIR --pins FILE --record FILE "
               "[--spans FILE]\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string pins_path, record_path, spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--specs") {
      options.spec_dir = value;
    } else if (flag == "--pins") {
      pins_path = value;
    } else if (flag == "--record") {
      record_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty() || record_path.empty() ||
      options.spec_dir.empty() || !(options.seconds > 0.0)) {
    return usage(
        "--workload, --specs, --record and --seconds > 0 are required");
  }
  if (!pins_path.empty()) options.pins = read_pins(pins_path);

  Outcome out;
  try {
    if (options.workload == "predictor_fit") {
      out = run_predictor_fit(options);
    } else if (options.workload == "sweep_short" ||
               options.workload == "long_runs") {
      out = run_campaign_workload(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
    if (options.trace) run_layer_probes(options, out);
    out.info["fail_ratio"] = static_cast<double>(out.failed) /
                             static_cast<double>(std::max(1L, out.attempted));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::ofstream record(record_path);
  record << json::serialize(record_json(options, out)) << "\n";
  if (!record) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", record_path.c_str());
    return 2;
  }
  if (!spans_path.empty() && !out.spans.spans().empty()) {
    std::ofstream spans(spans_path);
    write_spans(out.spans, spans);
  }
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  return out.failed == 0 ? 0 : 1;
}
