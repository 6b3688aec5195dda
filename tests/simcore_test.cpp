#include "simcore/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace cmdare::simcore {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, FiresEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_after(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sim.schedule_after(1.0, chain);
  };
  sim.schedule_after(1.0, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());  // already cancelled
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFiringReturnsFalse) {
  Simulator sim;
  EventHandle handle = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(Simulator, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  EXPECT_EQ(sim.run_until(2.5), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, RunUntilAdvancesTimeWithoutEvents) {
  Simulator sim;
  EXPECT_EQ(sim.run_until(100.0), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, RunUntilRejectsPastDeadline) {
  Simulator sim;
  sim.run_until(10.0);
  EXPECT_THROW(sim.run_until(5.0), std::invalid_argument);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RejectsInvalidSchedules) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(6.0, nullptr), std::invalid_argument);
  EXPECT_THROW(
      sim.schedule_at(std::numeric_limits<double>::infinity(), [] {}),
      std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(std::nan(""), [] {}), std::invalid_argument);
}

// Empty callbacks are reported under the name of the call that got them,
// for the nullptr overloads and for an empty std::function alike.
TEST(Simulator, EmptyCallbackErrorNamesTheCall) {
  const auto message = [](const auto& schedule) {
    try {
      schedule();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  Simulator sim;
  const std::function<void()> empty;
  EXPECT_EQ(message([&] { sim.schedule_at(1.0, nullptr); }),
            "Simulator::schedule_at: empty callback");
  EXPECT_EQ(message([&] { sim.schedule_at(1.0, empty); }),
            "Simulator::schedule_at: empty callback");
  EXPECT_EQ(message([&] { sim.schedule_after(1.0, nullptr); }),
            "Simulator::schedule_after: empty callback");
  EXPECT_EQ(message([&] { sim.schedule_after(1.0, empty); }),
            "Simulator::schedule_after: empty callback");
  EXPECT_EQ(message([&] { sim.schedule_every(1.0, nullptr); }),
            "Simulator::schedule_every: empty callback");
  EXPECT_EQ(sim.queued_events(), 0u);
}

TEST(Simulator, CountsFiredEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_fired(), 5u);
}

TEST(Simulator, CancelledEventsDoNotAdvanceClockInRunUntil) {
  Simulator sim;
  EventHandle handle = sim.schedule_at(50.0, [] {});
  handle.cancel();
  sim.schedule_at(80.0, [] {});
  EXPECT_EQ(sim.run_until(60.0), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 60.0);
}

TEST(Simulator, CancelReleasesSlotImmediately) {
  Simulator sim;
  // Cancellation is tombstone-free: the arena slot is released on the
  // spot, so queued_events() (live count) drops immediately.
  std::vector<EventHandle> handles;
  for (double t : {1.0, 2.0, 3.0}) {
    handles.push_back(sim.schedule_at(t, [] {}));
  }
  EXPECT_EQ(sim.queued_events(), 3u);
  handles[0].cancel();
  handles[2].cancel();
  EXPECT_EQ(sim.queued_events(), 1u);  // only the live event counts
  EXPECT_EQ(sim.run(), 1u);            // only the live event fires
  EXPECT_EQ(sim.queued_events(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);  // clock never visits cancelled times
}

TEST(Simulator, CancelThenRescheduleReusesArenaSlot) {
  Simulator sim;
  bool old_fired = false;
  bool new_fired = false;
  EventHandle stale = sim.schedule_at(1.0, [&] { old_fired = true; });
  const std::size_t slots_before = sim.arena_slots();
  ASSERT_TRUE(stale.cancel());
  // The released slot is re-leased by the next schedule; the stale handle
  // must report not-pending via the generation check, not alias the new
  // event.
  EventHandle fresh = sim.schedule_at(2.0, [&] { new_fired = true; });
  EXPECT_EQ(sim.arena_slots(), slots_before);  // slot recycled, not grown
  EXPECT_FALSE(stale.pending());
  EXPECT_FALSE(stale.cancel());  // must not cancel the new occupant
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
}

TEST(Simulator, HandleFromFiredEventStaysInertAfterSlotReuse) {
  Simulator sim;
  EventHandle fired_handle = sim.schedule_at(1.0, [] {});
  sim.run();
  // The fired event's slot is back on the free list; a new event re-leases
  // it with a bumped generation.
  EventHandle fresh = sim.schedule_at(2.0, [] {});
  EXPECT_FALSE(fired_handle.pending());
  EXPECT_FALSE(fired_handle.cancel());
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(sim.run(), 1u);
}

TEST(Simulator, CancelHeavyChurnKeepsLiveOrderIntact) {
  Simulator sim;
  // Oracle check: schedule a deterministic pseudo-random event set, cancel
  // a large subset (some before the run, some from inside callbacks), and
  // assert the engine's fire log equals the (when, sequence)-sorted live
  // set — cancellation must never reorder surviving events.
  constexpr int kEvents = 500;
  std::vector<EventHandle> handles;
  std::vector<double> times;
  std::vector<int> fire_log;
  std::uint64_t lcg = 0x243f6a8885a308d3ull;
  for (int i = 0; i < kEvents; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    // Coarse grid so equal times (sequence ties) are common.
    const double when = static_cast<double>((lcg >> 33) % 97);
    times.push_back(when);
    handles.push_back(
        sim.schedule_at(when, [&fire_log, i] { fire_log.push_back(i); }));
  }
  std::vector<bool> cancelled(kEvents, false);
  for (int i = 0; i < kEvents; i += 3) {  // pre-run cancellations
    handles[i].cancel();
    cancelled[i] = true;
  }
  // Mid-run churn: at t=40, cancel every 7th event still pending.
  sim.schedule_at(40.0, [&] {
    for (int i = 0; i < kEvents; i += 7) {
      if (handles[i].cancel()) cancelled[i] = true;
    }
  });
  sim.run();

  std::vector<int> expected;
  for (int i = 0; i < kEvents; ++i) {
    // The mid-run canceller only reaches events strictly after t=40 (same
    // time + later sequence has already fired when it runs).
    const bool killed_mid_run = i % 7 == 0 && i % 3 != 0 && times[i] > 40.0;
    if (i % 3 == 0 || killed_mid_run) continue;
    expected.push_back(i);
  }
  std::stable_sort(expected.begin(), expected.end(), [&](int a, int b) {
    return times[a] < times[b];  // stable: sequence order preserved on ties
  });
  EXPECT_EQ(fire_log, expected);
}

TEST(Simulator, RunUntilLandsExactlyOnBucketBoundary) {
  Simulator sim;
  // 65 events spanning [0, 64] make the re-bucketed near tier exactly one
  // second per bucket, so integer deadlines land exactly on bucket
  // boundaries; events at the boundary (when == deadline) must fire.
  std::vector<double> fired;
  for (int i = 0; i <= 64; ++i) {
    sim.schedule_at(static_cast<double>(i),
                    [&fired, &sim] { fired.push_back(sim.now()); });
  }
  EXPECT_EQ(sim.run_until(32.0), 33u);  // 0..32 inclusive
  EXPECT_DOUBLE_EQ(sim.now(), 32.0);
  EXPECT_DOUBLE_EQ(fired.back(), 32.0);
  EXPECT_EQ(sim.run_until(32.0), 0u);  // idempotent at the boundary
  EXPECT_EQ(sim.run(), 32u);           // 33..64
  EXPECT_DOUBLE_EQ(sim.now(), 64.0);
}

TEST(Simulator, ScheduleEverySelfTerminationReleasesItsSlot) {
  Simulator sim;
  int ticks = 0;
  sim.schedule_every(1.0, [&] {
    ++ticks;
    return ticks < 5;
  });
  EXPECT_EQ(sim.queued_events(), 1u);
  EXPECT_EQ(sim.run(), 5u);  // run() terminates: false reschedules nothing
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.queued_events(), 0u);
  // The recurrence's arena slot is free again: a fresh event reuses it
  // instead of growing the arena.
  const std::size_t slots_after = sim.arena_slots();
  sim.schedule_after(1.0, [] {});
  EXPECT_EQ(sim.arena_slots(), slots_after);
  sim.run();
}

namespace {

/// Records every observer callback for assertion.
struct RecordingObserver : SimObserver {
  struct Scheduled {
    SimTime when;
    std::string tag;
    std::size_t depth;
  };
  struct Fired {
    SimTime at;
    std::string tag;
    std::size_t depth;
    double wall;
  };
  std::vector<Scheduled> scheduled;
  std::vector<Fired> fired;

  void on_schedule(SimTime when, const char* tag,
                   std::size_t queue_depth) override {
    scheduled.push_back({when, tag ? tag : "(null)", queue_depth});
  }
  void on_fire(SimTime at, const char* tag, std::size_t queue_depth,
               double wall_seconds) override {
    fired.push_back({at, tag ? tag : "(null)", queue_depth, wall_seconds});
  }
};

}  // namespace

TEST(Simulator, ObserverSeesSchedulesAndFires) {
  Simulator sim;
  RecordingObserver observer;
  sim.set_observer(&observer);
  EXPECT_EQ(sim.observer(), &observer);

  sim.schedule_at(1.0, [] {}, "alpha");
  sim.schedule_at(2.0, [] {});
  sim.run();
  sim.set_observer(nullptr);
  sim.schedule_at(3.0, [] {}, "unseen");
  sim.run();

  ASSERT_EQ(observer.scheduled.size(), 2u);
  EXPECT_DOUBLE_EQ(observer.scheduled[0].when, 1.0);
  EXPECT_EQ(observer.scheduled[0].tag, "alpha");
  EXPECT_EQ(observer.scheduled[0].depth, 1u);
  EXPECT_EQ(observer.scheduled[1].depth, 2u);

  ASSERT_EQ(observer.fired.size(), 2u);
  EXPECT_DOUBLE_EQ(observer.fired[0].at, 1.0);
  EXPECT_EQ(observer.fired[0].tag, "alpha");
  EXPECT_EQ(observer.fired[0].depth, 1u);  // one event still queued
  EXPECT_EQ(observer.fired[1].tag, "(null)");
  EXPECT_EQ(observer.fired[1].depth, 0u);
  for (const auto& f : observer.fired) EXPECT_GE(f.wall, 0.0);
}

TEST(Simulator, ObserverDoesNotSeeCancelledEvents) {
  Simulator sim;
  RecordingObserver observer;
  sim.set_observer(&observer);
  EventHandle handle = sim.schedule_at(1.0, [] {}, "doomed");
  handle.cancel();
  sim.run();
  sim.set_observer(nullptr);
  EXPECT_EQ(observer.scheduled.size(), 1u);  // schedule was observed...
  EXPECT_TRUE(observer.fired.empty());       // ...but the fire never happens
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime) {
  Simulator sim;
  sim.schedule_at(3.0, [&] {
    sim.schedule_after(0.0, [&] { EXPECT_DOUBLE_EQ(sim.now(), 3.0); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, ScheduleEveryFiresAtFixedPeriodUntilTickSaysStop) {
  Simulator sim;
  std::vector<double> fired;
  sim.schedule_every(10.0, [&] {
    fired.push_back(sim.now());
    return fired.size() < 3;  // stop after the third tick
  });
  sim.run();  // must terminate: a false return reschedules nothing
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(fired[0], 10.0);
  EXPECT_DOUBLE_EQ(fired[1], 20.0);
  EXPECT_DOUBLE_EQ(fired[2], 30.0);
  EXPECT_DOUBLE_EQ(sim.now(), 30.0);
}

TEST(Simulator, ScheduleEveryTicksInterleaveWithOrdinaryEvents) {
  Simulator sim;
  std::vector<std::string> order;
  sim.schedule_every(5.0, [&] {
    order.push_back("tick@" + std::to_string(static_cast<int>(sim.now())));
    return sim.now() < 14.0;
  });
  sim.schedule_at(7.0, [&] { order.push_back("event@7"); });
  sim.run();
  const std::vector<std::string> expected = {"tick@5", "event@7", "tick@10",
                                             "tick@15"};
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace cmdare::simcore
