// Shared pieces of the campaign benchmark: host-time clocks, sample
// statistics, output digests, the in-memory span log of the traced run,
// and the Outcome every workload fills in.
//
// Every end-to-end timing is host CPU time of the benchmark process (see
// CpuClock); the traced run's spans are wall time. Simulated time never
// appears in a metric.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

/// CPU time of this process (CLOCK_PROCESS_CPUTIME_ID) as a std::chrono
/// clock; every metric's timings are taken on it. The workloads run on one
/// thread and never block, so on an unshared core it reads as wall time.
/// On a shared VM it also leaves out the time the vCPU was taken by the
/// hypervisor (steal, which the kernel subtracts from task time) or by
/// another process, which moves wall time by tens of percent from one
/// minute to the next.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(std::chrono::seconds(ts.tv_sec) +
                      std::chrono::nanoseconds(ts.tv_nsec));
  }
};

using Clock = CpuClock;
/// Wall time: what --seconds bounds, the wall/CPU ratio a run records, and
/// the traced run's spans.
using WallClock = std::chrono::steady_clock;

template <typename TimePoint>
double seconds_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}
template <typename TimePoint>
double ms_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// FNV-1a 64 of a byte string, as 16 hex digits: the output digests the
/// correctness checks compare and pin.
std::string digest(std::string_view bytes);

/// Spans of the traced run: name, host start/end (steady_clock, so that a
/// span's time is what a caller waited for), the span that caused it,
/// and the replica id shared by every span of one replica (-1 outside
/// replicas). Kept in memory; main() writes them once at exit.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  long replica = -1;
};

class SpanLog {
 public:
  int open(std::string name, long replica);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time (span duration minus the part its children cover) summed
  /// per span name, in nanoseconds, over the spans opened at or after
  /// index `first` (spans are stored in open order).
  std::map<std::string, double> self_ns_by_name(std::size_t first = 0) const;
  /// Total duration per span name, in nanoseconds, likewise.
  std::map<std::string, double> total_ns_by_name(std::size_t first = 0) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span on construction and closes it on destruction; a null log
/// makes it a no-op, so setup code is shared by traced and untraced runs.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, long replica = -1)
      : log_(log), id_(log ? log->open(std::move(name), replica) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spec_dir;
  /// "<workload> <seed> <what>" -> pinned digest (pins.tsv).
  std::map<std::string, std::string> pins;
};

/// What one benchmark run measured and checked. `metrics` holds the
/// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
/// by name; `raw` keeps every sample so medians and quartiles can be
/// recomputed from the run record.
struct Outcome {
  std::map<std::string, double> metrics;
  std::map<std::string, long> samples;
  /// Printed and recorded beside the metrics, but not part of the result
  /// line (e.g. predictor_fit's fit_s and predict_mape_pct).
  std::map<std::string, double> info;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  cmdare::util::json::Object raw;
  /// Filled by traced runs only.
  SpanLog spans;

  /// One output check: counts as attempted, and as failed when !ok.
  void check(bool ok, const std::string& what);
  /// Compares `actual` against the pinned digest for `what` at this seed,
  /// when one is pinned.
  void check_pin(const Options& options, const std::string& what,
                 const std::string& actual);
  void keep_raw(const std::string& key, const std::vector<double>& values);
};

/// Peak resident set size of this process, MiB.
double peak_rss_mb();
/// Replica latency over a workload's cells, each given as its replicas'
/// (scaled) times in ms. Cells differ in cost by 100x, so each cell is
/// summarised on its own and the cells are combined by geometric mean;
/// pooling them would make the figure hang on the mix of cells a run
/// happened to sample.
///
/// cell_median: each cell's median.
/// cell_tail: each cell's 99th percentile when every cell has at least
/// kTailReplicas replicas (ten beyond it), else each cell's median; a
/// quantile in between would move with how many rounds a run managed.
/// `q_used` is set to the quantile used.
constexpr std::size_t kTailReplicas = 1000;
double cell_median(const std::vector<std::vector<double>>& by_cell);
double cell_tail(const std::vector<std::vector<double>>& by_cell,
                 double& q_used);

/// CPU ms of one pass of the reference kernel (calibrate.cpp): `events`
/// firings over a table of `slots` 64-byte records.
double reference_ms(std::size_t slots, std::size_t events);

/// CPU ms of one pass of the reference kernel (calibrate.cpp).
double reference_ms();

/// Host-speed calibration of the campaign workloads' untraced runs. On the
/// shared VM the benchmark runs on, the CPU time of a fixed piece of work
/// swings by up to 45% over stretches of 10-40 s with what the neighbours
/// do, and a whole run can sit in one stretch, which no best-of-repeats
/// can leave. So a run times the reference kernel before its first round
/// and after every one, and scales each round's CPU times by
/// kReferenceMs / R, where R is the median of the reference passes around
/// the round. A figure reads as the milliseconds the round would take on a
/// host where the kernel takes kReferenceMs: faster code still reads
/// faster, and a slower host mostly does not. Unscaled CPU times and every
/// reference pass stay in the run record.
struct Calibration {
  /// About the kernel's CPU time on an unloaded 4-vCPU Intel Xeon
  /// (family 6, model 207) VM, g++ 12.2 -O3: scaled figures read close
  /// to that host's milliseconds.
  static constexpr double kReferenceMs = 3.5;
  /// Passes on each side of a round that its scale takes the median of.
  static constexpr std::size_t kWindow = 2;

  /// reference[k] was timed just before round k, reference[k + 1] just
  /// after it.
  std::vector<double> reference;

  void time_reference() { reference.push_back(reference_ms()); }
  /// Scale of each round k: kReferenceMs / R, R the median of passes
  /// k - kWindow .. k + 1 + kWindow.
  std::vector<double> scales() const;
};

Outcome run_campaign_workload(const Options& options);
Outcome run_predictor_fit(const Options& options);
/// Times single public functions of the layers in isolation (traced runs).
void run_layer_probes(const Options& options, Outcome& out);

}  // namespace perfbench
