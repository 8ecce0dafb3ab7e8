// Calendar queue: ordering equivalence with the binary-heap FEL.
#include <gtest/gtest.h>

#include <algorithm>

#include "bench/calendar_queue.h"
#include "src/core/fel.h"
#include "src/core/rng.h"

namespace unison {
namespace {

Event E(int64_t ts, uint64_t seq = 0) {
  return Event{EventKey{Time::Picoseconds(ts), Time::Zero(), 0, seq}, kNoNode, [] {}};
}

TEST(CalendarQueue, PopsInTimestampOrder) {
  CalendarQueue q;
  Rng rng(21, 0);
  std::vector<int64_t> ts;
  for (int i = 0; i < 5000; ++i) {
    const int64_t t = static_cast<int64_t>(rng.NextU64Below(1000000));
    ts.push_back(t);
    q.Push(E(t, static_cast<uint64_t>(i)));
  }
  std::sort(ts.begin(), ts.end());
  for (int64_t expected : ts) {
    ASSERT_FALSE(q.Empty());
    EXPECT_EQ(q.NextTimestamp().ps(), expected);
    EXPECT_EQ(q.Pop().key.ts.ps(), expected);
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_TRUE(q.NextTimestamp().IsMax());
}

TEST(CalendarQueue, AgreesWithBinaryHeapUnderMixedWorkload) {
  // DES-like usage: interleaved pushes (mostly ahead of now) and pops.
  CalendarQueue cal;
  FutureEventList heap;
  Rng rng(22, 0);
  int64_t now = 0;
  uint64_t seq = 0;
  for (int step = 0; step < 20000; ++step) {
    const bool push = cal.Empty() || rng.NextU64Below(100) < 55;
    if (push) {
      const int64_t t = now + static_cast<int64_t>(rng.NextU64Below(50000));
      cal.Push(E(t, seq));
      heap.Push(E(t, seq));
      ++seq;
    } else {
      ASSERT_EQ(cal.NextTimestamp(), heap.NextTimestamp());
      const Event a = cal.Pop();
      const Event b = heap.Pop();
      ASSERT_EQ(a.key, b.key);
      now = a.key.ts.ps();
    }
  }
  while (!heap.Empty()) {
    ASSERT_FALSE(cal.Empty());
    ASSERT_EQ(cal.Pop().key, heap.Pop().key);
  }
  EXPECT_TRUE(cal.Empty());
}

TEST(CalendarQueue, TieBreaksByFullKey) {
  CalendarQueue q;
  // Same timestamp, different secondary fields.
  const EventKey ka{Time::Picoseconds(10), Time::Picoseconds(5), 2, 7};
  const EventKey kb{Time::Picoseconds(10), Time::Picoseconds(3), 9, 1};
  const EventKey kc{Time::Picoseconds(10), Time::Picoseconds(3), 4, 2};
  q.Push(Event{ka, kNoNode, [] {}});
  q.Push(Event{kb, kNoNode, [] {}});
  q.Push(Event{kc, kNoNode, [] {}});
  EXPECT_EQ(q.Pop().key, kc);  // Smallest sender_ts, then lp.
  EXPECT_EQ(q.Pop().key, kb);
  EXPECT_EQ(q.Pop().key, ka);
}

TEST(CalendarQueue, HandlesClusteredThenSparseTimestamps) {
  CalendarQueue q;
  // Dense cluster triggers resizes with a tiny day width...
  for (int i = 0; i < 1000; ++i) {
    q.Push(E(i));
  }
  // ...then a far-future event exercises the sparse fallback.
  q.Push(E(1000000000000LL));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(q.Pop().key.ts.ps(), i);
  }
  EXPECT_EQ(q.Pop().key.ts.ps(), 1000000000000LL);
  EXPECT_TRUE(q.Empty());
}

TEST(CalendarQueue, RewindsOnOutOfOrderPush) {
  CalendarQueue q;
  q.Push(E(1000000));
  EXPECT_EQ(q.Pop().key.ts.ps(), 1000000);  // Advances the day pointer.
  q.Push(E(5));                             // Behind the pointer.
  q.Push(E(2000000));
  EXPECT_EQ(q.Pop().key.ts.ps(), 5);
  EXPECT_EQ(q.Pop().key.ts.ps(), 2000000);
}

}  // namespace
}  // namespace unison
