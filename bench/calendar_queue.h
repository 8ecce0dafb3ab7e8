// Calendar queue (Brown 1988): the classic O(1)-amortized alternative to a
// binary-heap future event list. Events hash into day buckets by timestamp;
// dequeue scans the current day for the minimum. The structure resizes and
// re-widths itself as the event population changes.
//
// Unison's kernels use the binary heap (fine-grained LPs hold few events
// each, where the heap's constant factors win), so the calendar queue is not
// part of the library: it lives beside the FEL ablation bench as the
// drop-in comparison structure, tested in tests/calendar_queue_test.cc.
#ifndef UNISON_BENCH_CALENDAR_QUEUE_H_
#define UNISON_BENCH_CALENDAR_QUEUE_H_

#include <cstddef>
#include <vector>

#include "src/core/event.h"

namespace unison {

class CalendarQueue {
 public:
  CalendarQueue();

  void Push(Event event);

  // Precondition: !Empty(). Pops the event with the smallest key.
  Event Pop();

  Time NextTimestamp() const;

  bool Empty() const { return size_ == 0; }
  size_t Size() const { return size_; }

 private:
  struct Bucket {
    std::vector<Event> events;  // Kept sorted descending so back() is min.
  };

  size_t BucketIndex(int64_t ts_ps) const;
  void Resize(size_t new_buckets);
  void InsertIntoBucket(Event event);

  std::vector<Bucket> buckets_;
  size_t size_ = 0;
  int64_t day_width_ps_ = 1000;  // Width of one bucket in picoseconds.
  int64_t current_day_start_ = 0;
  size_t current_bucket_ = 0;
};

}  // namespace unison

#endif  // UNISON_BENCH_CALENDAR_QUEUE_H_
