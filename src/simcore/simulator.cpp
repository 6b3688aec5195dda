#include "simcore/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace cmdare::simcore {

void Simulator::require_schedulable_time(SimTime when) const {
  if (!(when >= now_)) {  // also rejects NaN
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  }
  if (!std::isfinite(when)) {
    throw std::invalid_argument("Simulator::schedule_at: non-finite time");
  }
}

void Simulator::require_non_negative_delay(SimTime delay) const {
  if (!(delay >= 0.0)) {
    throw std::invalid_argument("Simulator::schedule_after: negative delay");
  }
}

void Simulator::require_valid_period(SimTime period) const {
  if (!(period > 0.0) || !std::isfinite(period)) {
    throw std::invalid_argument(
        "Simulator::schedule_every: period must be positive and finite");
  }
}

EventHandle Simulator::schedule_at(SimTime when, std::nullptr_t,
                                   const char*) {
  require_schedulable_time(when);
  throw std::invalid_argument("Simulator::schedule_at: empty callback");
}

EventHandle Simulator::schedule_after(SimTime delay, std::nullptr_t,
                                      const char*) {
  require_non_negative_delay(delay);
  throw std::invalid_argument("Simulator::schedule_after: empty callback");
}

void Simulator::schedule_every(SimTime period, std::nullptr_t, const char*) {
  require_valid_period(period);
  throw std::invalid_argument("Simulator::schedule_every: empty callback");
}

Simulator::SlotRef Simulator::lease_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return SlotRef{idx, slot(idx).gen};
  }
  if (slot_count_ == slabs_.size() * kSlabSize) {
    // Default-init (not value-init): Slot's member initializers run, but
    // the 48-byte inline buffers are left untouched.
    slabs_.emplace_back(new Slot[kSlabSize]);
  }
  const std::uint32_t idx = static_cast<std::uint32_t>(slot_count_++);
  return SlotRef{idx, 0};  // fresh slots start at generation 0
}

void Simulator::release_slot(std::uint32_t idx) {
  Slot& s = slot(idx);
  s.fn.reset();
  s.tag = nullptr;
  s.period = 0.0;
  ++s.gen;  // invalidates every queue entry and handle stamped with the
            // previous generation
  free_.push_back(idx);
}

bool Simulator::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_live(slot, gen)) return false;
  release_slot(slot);
  --live_;
  return true;
}

void Simulator::enqueue(SimTime when, SlotRef ref, const char* tag) {
  insert(QEntry{when, next_sequence_++, ref.slot, ref.gen});
  ++live_;
  if (observer_ != nullptr) observer_->on_schedule(when, tag, live_);
}

void Simulator::insert(const QEntry& entry) {
  // Placement is a monotone function of `when` (rung < near buckets in
  // index order < far), which is what keeps the per-bucket ordering
  // equivalent to the global (when, seq) order.
  if (entry.when < active_end_ || entry.when < near_start_) {
    // Binary-insert into the undrained part of the rung. The new entry
    // has the largest sequence number, so upper_bound on (when, seq)
    // places it after every equal-time entry — insertion order preserved.
    active_.insert(std::upper_bound(active_.begin() +
                                        static_cast<std::ptrdiff_t>(
                                            active_pos_),
                                    active_.end(), entry, Earlier{}),
                   entry);
  } else if (entry.when < near_end_ && next_bucket_ < kNearBuckets) {
    std::size_t idx = static_cast<std::size_t>((entry.when - near_start_) *
                                               inv_bucket_width_);
    // Clamp against float rounding at bucket boundaries: never place into
    // an already-drained bucket or past the end.
    if (idx < next_bucket_) idx = next_bucket_;
    if (idx >= kNearBuckets) idx = kNearBuckets - 1;
    buckets_[idx].push_back(entry);
  } else {
    far_.push_back(entry);
  }
}

bool Simulator::settle_front() {
  for (;;) {
    while (active_pos_ < active_.size()) {
      const QEntry& top = active_[active_pos_];
      if (slot(top.slot).gen == top.gen) return true;
      // Stale (cancelled) entry: discard without advancing the clock.
      ++active_pos_;
    }
    active_.clear();  // keeps capacity for the next activation swap
    active_pos_ = 0;
    std::size_t k = next_bucket_;
    while (k < kNearBuckets && buckets_[k].empty()) ++k;
    if (k < kNearBuckets) {
      // Activate bucket k into the rung; ordering is established lazily
      // here, once per bucket, instead of on every insert. Buckets filled
      // straight from a far-tier reseed (or by in-order schedules) are
      // already in (when, seq) order — one linear is_sorted pass then
      // beats introsort's n·log n compares, and tie-heavy workloads hit
      // that path almost every activation.
      active_.swap(buckets_[k]);
      if (!std::is_sorted(active_.begin(), active_.end(), Earlier{})) {
        std::sort(active_.begin(), active_.end(), Earlier{});
      }
      next_bucket_ = k + 1;
      active_end_ =
          near_start_ + static_cast<SimTime>(next_bucket_) * bucket_width_;
      continue;
    }
    next_bucket_ = kNearBuckets;
    if (!reseed_from_far()) {
      reset_ladder();
      return false;
    }
  }
}

bool Simulator::reseed_from_far() {
  // Compact stale entries out while measuring the span of pending times.
  std::size_t kept = 0;
  SimTime lo = kTimeInfinity;
  SimTime hi = -kTimeInfinity;
  for (const QEntry& entry : far_) {
    if (slot(entry.slot).gen != entry.gen) continue;
    far_[kept++] = entry;
    lo = std::min(lo, entry.when);
    hi = std::max(hi, entry.when);
  }
  far_.resize(kept);
  if (kept == 0) return false;
  near_start_ = lo;
  bucket_width_ = hi > lo
                      ? (hi - lo) / static_cast<SimTime>(kNearBuckets)
                      : 1.0;
  if (!(bucket_width_ > 0.0)) bucket_width_ = 1.0;  // subnormal span guard
  inv_bucket_width_ = 1.0 / bucket_width_;
  near_end_ = near_start_ + static_cast<SimTime>(kNearBuckets) * bucket_width_;
  next_bucket_ = 0;
  active_end_ = near_start_;
  for (const QEntry& entry : far_) {
    std::size_t idx = static_cast<std::size_t>((entry.when - near_start_) *
                                               inv_bucket_width_);
    if (idx >= kNearBuckets) idx = kNearBuckets - 1;
    buckets_[idx].push_back(entry);
  }
  far_.clear();  // keeps capacity — the far tier stays allocation-free
  return true;
}

void Simulator::reset_ladder() {
  near_start_ = -kTimeInfinity;
  near_end_ = -kTimeInfinity;
  active_end_ = -kTimeInfinity;
  bucket_width_ = 1.0;
  inv_bucket_width_ = 1.0;
  next_bucket_ = kNearBuckets;
}

Simulator::QEntry Simulator::pop_front() { return active_[active_pos_++]; }

void Simulator::fire(const QEntry& entry) {
  Slot& s = slot(entry.slot);
  const char* tag = s.tag;
  const SimTime period = s.period;
  // Move the callable out before invoking: for one-shots the slot is
  // released below, so a callback that schedules may re-lease this very
  // slot while its closure is still executing.
  InlineFn<bool> fn = std::move(s.fn);
  if (period <= 0.0) release_slot(entry.slot);
  now_ = entry.when;
  ++fired_;
  --live_;
  if (observer_ != nullptr) {
    const auto start = std::chrono::steady_clock::now();
    const bool keep = fn();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    finish_periodic(entry, period, keep, std::move(fn), tag);
    observer_->on_fire(entry.when, tag, live_, wall.count());
  } else {
    const bool keep = fn();
    finish_periodic(entry, period, keep, std::move(fn), tag);
  }
}

void Simulator::finish_periodic(const QEntry& entry, SimTime period,
                                bool keep, InlineFn<bool> fn,
                                const char* tag) {
  if (period <= 0.0) return;  // one-shot: slot already released
  if (keep) {
    // Re-enqueue after the tick body ran, so schedules made inside the
    // tick get earlier sequence numbers than the next tick — the same
    // interleaving the old self-rescheduling implementation produced.
    slot(entry.slot).fn = std::move(fn);
    enqueue(now_ + period, SlotRef{entry.slot, entry.gen}, tag);
  } else {
    release_slot(entry.slot);
  }
}

bool Simulator::fire_next() {
  if (!settle_front()) return false;
  const QEntry entry = pop_front();
  fire(entry);
  return true;
}

std::uint64_t Simulator::run() {
  std::uint64_t count = 0;
  while (fire_next()) ++count;
  return count;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  if (!(deadline >= now_)) {
    throw std::invalid_argument("Simulator::run_until: deadline in the past");
  }
  std::uint64_t count = 0;
  while (settle_front()) {
    if (active_[active_pos_].when > deadline) break;
    fire(pop_front());
    ++count;
  }
  now_ = std::max(now_, deadline);
  return count;
}

bool Simulator::step() { return fire_next(); }

}  // namespace cmdare::simcore
