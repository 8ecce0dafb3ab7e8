#include "bench/calendar_queue.h"

#include <algorithm>

namespace unison {

CalendarQueue::CalendarQueue() : buckets_(16) {}

size_t CalendarQueue::BucketIndex(int64_t ts_ps) const {
  const int64_t day = ts_ps / day_width_ps_;
  return static_cast<size_t>(day) % buckets_.size();
}

void CalendarQueue::InsertIntoBucket(Event event) {
  Bucket& bucket = buckets_[BucketIndex(event.key.ts.ps())];
  // Descending order: find insertion point from the back (new events are
  // usually near the end of the timeline, i.e. the front of the vector).
  auto it = std::upper_bound(
      bucket.events.begin(), bucket.events.end(), event,
      [](const Event& a, const Event& b) { return b.key < a.key; });
  bucket.events.insert(it, std::move(event));
}

void CalendarQueue::Push(Event event) {
  const int64_t ts = event.key.ts.ps();
  InsertIntoBucket(std::move(event));
  ++size_;
  if (ts < current_day_start_) {
    // An insert behind the read pointer (legal for arbitrary use, even
    // though DES pushes are monotone): rewind so Pop still sees it first.
    current_day_start_ = ts - ts % day_width_ps_;
    current_bucket_ = BucketIndex(ts);
  }
  if (size_ > buckets_.size() * 4) {
    Resize(buckets_.size() * 2);
  }
}

void CalendarQueue::Resize(size_t new_buckets) {
  // Re-estimate the day width from the current population's timestamp
  // spread, then rehash everything.
  std::vector<Event> all;
  all.reserve(size_);
  for (Bucket& b : buckets_) {
    for (Event& e : b.events) {
      all.push_back(std::move(e));
    }
    b.events.clear();
  }
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  for (const Event& e : all) {
    lo = std::min(lo, e.key.ts.ps());
    hi = std::max(hi, e.key.ts.ps());
  }
  if (!all.empty() && hi > lo) {
    // Aim for ~3 events per bucket over the occupied span.
    day_width_ps_ = std::max<int64_t>(
        1, (hi - lo) / static_cast<int64_t>(std::max<size_t>(1, all.size() / 3)));
  }
  // clear+resize rather than assign(n, Bucket{}): Events are move-only, so
  // Bucket cannot be copy-filled.
  buckets_.clear();
  buckets_.resize(new_buckets);
  for (Event& e : all) {
    InsertIntoBucket(std::move(e));
  }
  if (!all.empty()) {
    current_day_start_ = lo - lo % day_width_ps_;
    current_bucket_ = BucketIndex(lo);
  }
}

Time CalendarQueue::NextTimestamp() const {
  if (size_ == 0) {
    return Time::Max();
  }
  // Scan days from the current one; fall back to a full minimum scan after a
  // whole year (one lap over the buckets).
  int64_t day_start = current_day_start_;
  size_t bucket = current_bucket_;
  for (size_t lap = 0; lap < buckets_.size(); ++lap) {
    const Bucket& b = buckets_[bucket];
    if (!b.events.empty()) {
      const int64_t ts = b.events.back().key.ts.ps();
      if (ts < day_start + day_width_ps_ * static_cast<int64_t>(lap + 1)) {
        return b.events.back().key.ts;
      }
    }
    bucket = (bucket + 1) % buckets_.size();
  }
  Time best = Time::Max();
  for (const Bucket& b : buckets_) {
    if (!b.events.empty()) {
      best = std::min(best, b.events.back().key.ts);
    }
  }
  return best;
}

Event CalendarQueue::Pop() {
  // Advance day by day until a bucket holds an event within its day.
  for (size_t lap = 0; lap <= buckets_.size(); ++lap) {
    Bucket& b = buckets_[current_bucket_];
    if (!b.events.empty() &&
        b.events.back().key.ts.ps() < current_day_start_ + day_width_ps_) {
      Event out = std::move(b.events.back());
      b.events.pop_back();
      --size_;
      return out;
    }
    current_day_start_ += day_width_ps_;
    current_bucket_ = (current_bucket_ + 1) % buckets_.size();
  }
  // Sparse population: jump straight to the global minimum.
  size_t best_bucket = 0;
  const Event* best = nullptr;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& b = buckets_[i];
    if (!b.events.empty() && (best == nullptr || b.events.back().key < best->key)) {
      best = &b.events.back();
      best_bucket = i;
    }
  }
  Bucket& b = buckets_[best_bucket];
  Event out = std::move(b.events.back());
  b.events.pop_back();
  --size_;
  const int64_t ts = out.key.ts.ps();
  current_day_start_ = ts - ts % day_width_ps_;
  current_bucket_ = BucketIndex(ts);
  return out;
}

}  // namespace unison
