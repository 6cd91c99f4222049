#include "mmx/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace mmx::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run_all(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  EXPECT_EQ(q.run_until(2.5), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.5);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, HandlersCanScheduleMore) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 10) q.schedule_in(1.0, tick);
  };
  q.schedule_at(0.0, tick);
  q.run_until(100.0);
  EXPECT_EQ(count, 10);
}

TEST(EventQueue, NowAdvancesWithEvents) {
  EventQueue q;
  double seen = -1.0;
  q.schedule_at(4.5, [&] { seen = q.now(); });
  q.run_all();
  EXPECT_DOUBLE_EQ(seen, 4.5);
}

TEST(EventQueue, PastSchedulingThrows) {
  EventQueue q;
  q.schedule_at(2.0, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_at(3.0, nullptr), std::invalid_argument);
  // NaN is not a time: in the heap it would break the comparator's
  // strict weak ordering.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(q.schedule_at(kNaN, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(kNaN, [] {}), std::invalid_argument);
}

TEST(EventQueue, NegativeDeltaThrows) {
  EventQueue q;
  EXPECT_THROW(q.schedule_in(-0.5, [] {}), std::invalid_argument);
}

// The scale lane leans on this: its churn and measurement ticks share
// timestamps (including one exactly at duration_s), and correctness
// requires the boundary event to run and same-time events to keep
// schedule order.
TEST(EventQueue, EventExactlyAtBoundaryExecutes) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  q.schedule_at(2.0 + 1e-9, [&] { ++fired; });
  EXPECT_EQ(q.run_until(2.0), 2u);  // t == t_end is inside the window
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, ReentrantZeroDelayRunsAfterQueuedSameTimeEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] {
    order.push_back(0);
    // Scheduled from inside a handler at now(): must run at the same
    // timestamp but AFTER the events already queued for t=1.0 (FIFO by
    // insertion seq, not by scheduling depth).
    q.schedule_in(0.0, [&] { order.push_back(9); });
  });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(1.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

TEST(EventQueue, PreScheduledAndHandlerScheduledInterleaveBySeq) {
  // Two generations of same-time events: the second generation (created
  // while running) lands strictly after every first-generation event,
  // and within each generation order is insertion order.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i)
    q.schedule_at(5.0, [&order, &q, i] {
      order.push_back(i);
      q.schedule_in(0.0, [&order, i] { order.push_back(10 + i); });
    });
  EXPECT_EQ(q.run_until(5.0), 6u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunAllAfterRunUntilResumesFromBoundary) {
  EventQueue q;
  std::vector<double> seen;
  q.schedule_at(1.0, [&] { seen.push_back(q.now()); });
  q.schedule_at(3.0, [&] { seen.push_back(q.now()); });
  q.run_until(2.0);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  q.run_all();
  EXPECT_EQ(seen, (std::vector<double>{1.0, 3.0}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

// --- Cancellation / reschedule semantics (the fault layer's timers) ---------

TEST(EventQueue, CancelPendingEventNeverRuns) {
  EventQueue q;
  int fired = 0;
  const EventQueue::EventId id = q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run_all(), 1u);  // cancelled events are not counted as executed
  EXPECT_EQ(fired, 1);
  // Double-cancel and cancel-after-run both report "not pending".
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAlreadyFiredReturnsFalse) {
  EventQueue q;
  const EventQueue::EventId id = q.schedule_at(1.0, [] {});
  q.run_all();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(EventQueue::kInvalidEvent));
}

TEST(EventQueue, CancelSelfInsideHandlerIsHarmlessNoOp) {
  // A handler is retired before it runs: cancelling its own id from
  // inside must return false and must not disturb later events.
  EventQueue q;
  std::vector<int> order;
  EventQueue::EventId self = EventQueue::kInvalidEvent;
  self = q.schedule_at(1.0, [&] {
    order.push_back(0);
    EXPECT_FALSE(q.cancel(self));
  });
  q.schedule_at(2.0, [&] { order.push_back(1); });
  EXPECT_EQ(q.run_all(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, CancelFromInsideHandlerSuppressesSameTimePeer) {
  // A fault event killing a same-timestamp timer: the peer is queued at
  // the same time but later in FIFO order, and must not run.
  EventQueue q;
  std::vector<int> order;
  EventQueue::EventId peer = EventQueue::kInvalidEvent;
  q.schedule_at(1.0, [&] {
    order.push_back(0);
    EXPECT_TRUE(q.cancel(peer));
  });
  peer = q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(1.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run_all(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventQueue, RescheduleMovesEventKeepingHandlerAndId) {
  EventQueue q;
  std::vector<double> seen;
  const EventQueue::EventId id = q.schedule_at(1.0, [&] { seen.push_back(q.now()); });
  EXPECT_TRUE(q.reschedule(id, 3.0));
  q.schedule_at(2.0, [&] { seen.push_back(q.now()); });
  EXPECT_EQ(q.pending(), 2u);  // the stale heap entry is not an event
  EXPECT_EQ(q.run_all(), 2u);
  EXPECT_EQ(seen, (std::vector<double>{2.0, 3.0}));
  EXPECT_FALSE(q.reschedule(id, 4.0));  // already ran
}

TEST(EventQueue, RescheduleEarlierWins) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] { order.push_back(0); });
  const EventQueue::EventId id = q.schedule_at(5.0, [&] { order.push_back(1); });
  EXPECT_TRUE(q.reschedule(id, 1.0));
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(EventQueue, RescheduleInHandlerSlidesAPendingTimer) {
  // The reap-timer idiom: activity at t=1 pushes the t=2 deadline to t=4.
  EventQueue q;
  std::vector<double> seen;
  const EventQueue::EventId deadline = q.schedule_at(2.0, [&] { seen.push_back(q.now()); });
  q.schedule_at(1.0, [&] { EXPECT_TRUE(q.reschedule(deadline, 4.0)); });
  q.schedule_at(3.0, [&] { seen.push_back(q.now()); });
  EXPECT_EQ(q.run_all(), 3u);
  EXPECT_EQ(seen, (std::vector<double>{3.0, 4.0}));
}

TEST(EventQueue, RescheduleToNowRunsAfterQueuedSameTimeEvents) {
  // A rescheduled event takes a fresh FIFO rank: same-time events that
  // were already queued keep their earlier seqs and run first.
  EventQueue q;
  std::vector<int> order;
  const EventQueue::EventId id = q.schedule_at(5.0, [&] { order.push_back(9); });
  q.schedule_at(1.0, [&] { order.push_back(0); });
  q.schedule_at(1.0, [&] { EXPECT_TRUE(q.reschedule(id, 1.0)); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 9}));
}

TEST(EventQueue, ReschedulePastThrowsCancelledIdReturnsFalse) {
  EventQueue q;
  const EventQueue::EventId id = q.schedule_at(2.0, [] {});
  q.schedule_at(1.0, [&] { EXPECT_THROW(q.reschedule(id, 0.5), std::invalid_argument); });
  EXPECT_THROW(q.reschedule(id, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  q.run_until(1.0);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.reschedule(id, 3.0));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledBeyondHorizonLeavesQueueReusable) {
  // Tombstones past t_end must not wedge later scheduling or counts.
  EventQueue q;
  int fired = 0;
  const EventQueue::EventId far = q.schedule_at(10.0, [&] { ++fired; });
  q.schedule_at(1.0, [&] { ++fired; });
  EXPECT_EQ(q.run_until(5.0), 1u);
  EXPECT_TRUE(q.cancel(far));
  EXPECT_TRUE(q.empty());
  q.schedule_at(6.0, [&] { ++fired; });
  EXPECT_EQ(q.run_all(), 1u);
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace mmx::sim
