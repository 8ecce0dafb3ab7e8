#include "bench/surrogates.h"

#include <algorithm>
#include <bit>

namespace unison {

uint32_t MimicNetSurrogate::BucketOf(uint64_t bytes) {
  // Log2 size buckets, clamped to 32.
  return std::min<uint32_t>(31, std::bit_width(std::max<uint64_t>(1, bytes)) - 1);
}

void MimicNetSurrogate::Train(const std::vector<FlowRecord>& training_flows) {
  fct_buckets_.assign(32, {});
  thr_buckets_.assign(32, {});
  rtt_samples_ms_.clear();
  for (const FlowRecord& f : training_flows) {
    if (!f.completed) {
      continue;
    }
    const uint32_t b = BucketOf(f.bytes);
    const double fct_ms = f.fct.ToMilliseconds();
    fct_buckets_[b].push_back(fct_ms);
    if (f.fct.ps() > 0) {
      thr_buckets_[b].push_back(static_cast<double>(f.bytes) * 8.0 / f.fct.ToSeconds() /
                                1e6);
    }
    if (f.rtt_samples > 0) {
      rtt_samples_ms_.push_back(f.rtt_sum.ToMilliseconds() /
                                static_cast<double>(f.rtt_samples));
    }
  }
}

MimicPrediction MimicNetSurrogate::Predict(const std::vector<FlowRecord>& target_flows,
                                           Rng& rng) const {
  MimicPrediction out;
  uint64_t n = 0;
  double fct_sum = 0;
  double thr_sum = 0;
  for (const FlowRecord& f : target_flows) {
    // Find the nearest trained bucket with data.
    uint32_t b = BucketOf(f.bytes);
    uint32_t best = UINT32_MAX;
    for (uint32_t delta = 0; delta < 32; ++delta) {
      if (b >= delta && !fct_buckets_[b - delta].empty()) {
        best = b - delta;
        break;
      }
      if (b + delta < 32 && !fct_buckets_[b + delta].empty()) {
        best = b + delta;
        break;
      }
    }
    if (best == UINT32_MAX) {
      continue;
    }
    const auto& fcts = fct_buckets_[best];
    fct_sum += fcts[rng.NextU64Below(fcts.size())];
    const auto& thrs = thr_buckets_[best];
    if (!thrs.empty()) {
      thr_sum += thrs[rng.NextU64Below(thrs.size())];
    }
    ++n;
  }
  if (n > 0) {
    out.mean_fct_ms = fct_sum / static_cast<double>(n);
    out.mean_throughput_mbps = thr_sum / static_cast<double>(n);
  }
  if (!rtt_samples_ms_.empty()) {
    double s = 0;
    for (double r : rtt_samples_ms_) {
      s += r;
    }
    out.mean_rtt_ms = s / static_cast<double>(rtt_samples_ms_.size());
  }
  return out;
}

}  // namespace unison
