// Surrogates for the ML-based data-driven simulators the paper compares
// against (§2.2, §6.1, §6.2). The real artifacts need A100 GPUs and hours of
// training; these surrogates model exactly the properties the paper relies
// on for its comparison:
//
//  - DeepQueueNet's runtime is proportional to the number of injected packets
//    (per-packet DNN inference), divided by its device parallelism; it also
//    has a fixed per-run setup cost and a long training time that full-
//    fidelity simulation does not pay.
//
//  - MimicNet trains on ONE cluster and predicts the rest by reuse, so its
//    predictions inherit the trained cluster's conditions and miss traffic
//    that "does not scale proportionally" (incast into one cluster). The
//    surrogate builds an empirical flow-level model (FCT by flow-size
//    bucket, RTT, per-flow throughput) from a training run and predicts a
//    target workload by sampling it — accurate when the target looks like
//    the training cluster, wrong under skew.
#ifndef UNISON_BENCH_SURROGATES_H_
#define UNISON_BENCH_SURROGATES_H_

#include <cstdint>
#include <vector>

#include "src/core/rng.h"
#include "src/stats/flow_monitor.h"

namespace unison {

struct DqnConfig {
  double per_packet_inference_us = 120.0;  // Single-device per-packet cost.
  uint32_t devices = 2;                    // GPUs; near-linear inference scaling.
  double setup_s = 30.0;                   // Model load / graph build per run.
  double training_hours_per_device_model = 12.0;  // Reported by the paper.
};

class DeepQueueNetSurrogate {
 public:
  explicit DeepQueueNetSurrogate(const DqnConfig& config) : cfg_(config) {}

  // Predicted wall time to simulate a workload of `packets` packets.
  double InferenceSeconds(uint64_t packets) const {
    return cfg_.setup_s + static_cast<double>(packets) * cfg_.per_packet_inference_us /
                              1e6 / cfg_.devices;
  }

  double TrainingSeconds(uint32_t device_types) const {
    return cfg_.training_hours_per_device_model * 3600.0 * device_types;
  }

 private:
  DqnConfig cfg_;
};

struct MimicPrediction {
  double mean_fct_ms = 0;
  double mean_rtt_ms = 0;
  double mean_throughput_mbps = 0;
};

class MimicNetSurrogate {
 public:
  // "Trains" on the flows of a full-fidelity run restricted to one cluster's
  // sources (hosts [cluster_begin, cluster_end) by node id filter given by
  // the caller through the flow list).
  void Train(const std::vector<FlowRecord>& training_flows);

  bool trained() const { return !fct_buckets_.empty(); }

  // Predicts flow-level metrics for a target workload (sizes + count only —
  // the mimic never sees the target's congestion state, which is exactly its
  // failure mode under skew).
  MimicPrediction Predict(const std::vector<FlowRecord>& target_flows, Rng& rng) const;

 private:
  static uint32_t BucketOf(uint64_t bytes);

  // Per flow-size bucket: observed FCTs (ms) and throughputs (Mbps).
  std::vector<std::vector<double>> fct_buckets_;
  std::vector<std::vector<double>> thr_buckets_;
  std::vector<double> rtt_samples_ms_;
};

}  // namespace unison

#endif  // UNISON_BENCH_SURROGATES_H_
