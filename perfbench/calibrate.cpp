// The reference kernel: a frozen discrete-event loop that uses no code of
// the program. A binary heap of pending events is drained; each firing
// updates a pseudo-random record of a 1 MiB table and schedules its
// successor: the heap work, branches and scattered memory access the
// simulator has. Its CPU time moves with the state of the shared host (a
// contended cache or memory system, a busy neighbour) and with nothing in
// src/, so the campaign workloads time it between their rounds and scale
// their figures by it (see Calibration in bench.hpp).
#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSlots = 1 << 14;  // 64-byte records: 1 MiB
constexpr std::size_t kEvents = 20000;

}  // namespace

double reference_ms() {
  struct Record {
    std::uint64_t words[8];
  };
  // Kept across calls, so that no pass pays page faults.
  static std::vector<Record> table(kSlots);

  using Event = std::pair<std::uint64_t, std::uint64_t>;  // (when, id)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto t0 = Clock::now();
  for (std::uint64_t id = 0; id < 1024; ++id) queue.emplace(next() >> 40, id);
  std::uint64_t sum = 0;
  for (std::size_t e = 0; e < kEvents; ++e) {
    const auto [when, id] = queue.top();
    queue.pop();
    Record& r = table[(id * 0x9e3779b97f4a7c15ULL ^ next()) % kSlots];
    r.words[e & 7] += id;
    sum += r.words[(id + 3) & 7];
    queue.emplace(when + (next() >> 44) + 1, (sum & 1) ? id : next() >> 32);
  }
  const double ms = ms_between(t0, Clock::now());
  volatile std::uint64_t sink = sum;
  (void)sink;
  return ms;
}

std::vector<double> Calibration::scales() const {
  std::vector<double> out;
  const std::size_t rounds = reference.empty() ? 0 : reference.size() - 1;
  for (std::size_t k = 0; k < rounds; ++k) {
    const std::size_t lo = k >= kWindow ? k - kWindow : 0;
    const std::size_t hi = std::min(reference.size(), k + kWindow + 2);
    out.push_back(kReferenceMs /
                  median({reference.begin() + static_cast<long>(lo),
                          reference.begin() + static_cast<long>(hi)}));
  }
  return out;
}

}  // namespace perfbench
