// Data-driven surrogates: the cost/accuracy models used by the Fig. 8a and
// Table 2 comparisons.
#include <gtest/gtest.h>

#include "bench/surrogates.h"

namespace unison {
namespace {

TEST(DeepQueueNetSurrogate, InferenceScalesWithPacketsAndDevices) {
  DqnConfig cfg;
  cfg.per_packet_inference_us = 100;
  cfg.setup_s = 10;
  cfg.devices = 1;
  DeepQueueNetSurrogate one(cfg);
  cfg.devices = 2;
  DeepQueueNetSurrogate two(cfg);

  EXPECT_DOUBLE_EQ(one.InferenceSeconds(0), 10.0);
  EXPECT_DOUBLE_EQ(one.InferenceSeconds(1000000), 10.0 + 100.0);
  EXPECT_DOUBLE_EQ(two.InferenceSeconds(1000000), 10.0 + 50.0);
  EXPECT_GT(one.TrainingSeconds(1), 3600.0);
}

FlowRecord MakeFlow(uint32_t id, uint64_t bytes, double fct_ms, double rtt_ms) {
  FlowRecord f;
  f.id = id;
  f.bytes = bytes;
  f.completed = true;
  f.fct = Time::Seconds(fct_ms / 1e3);
  f.rtt_samples = 1;
  f.rtt_sum = Time::Seconds(rtt_ms / 1e3);
  f.rx_bytes = bytes;
  return f;
}

TEST(MimicNetSurrogate, PredictsTrainedConditionsWell) {
  // Training: small flows finish in 1ms, big flows in 100ms.
  std::vector<FlowRecord> train;
  for (uint32_t i = 0; i < 50; ++i) {
    train.push_back(MakeFlow(i, 10000, 1.0, 0.5));
    train.push_back(MakeFlow(100 + i, 1000000, 100.0, 0.5));
  }
  MimicNetSurrogate mimic;
  mimic.Train(train);
  ASSERT_TRUE(mimic.trained());

  // Target drawn from the same mix: prediction should land near the truth.
  std::vector<FlowRecord> target;
  for (uint32_t i = 0; i < 40; ++i) {
    target.push_back(MakeFlow(i, 10000, 0, 0));
    target.push_back(MakeFlow(50 + i, 1000000, 0, 0));
  }
  Rng rng(77, 0);
  const MimicPrediction p = mimic.Predict(target, rng);
  EXPECT_NEAR(p.mean_fct_ms, (1.0 + 100.0) / 2, 5.0);
  EXPECT_NEAR(p.mean_rtt_ms, 0.5, 0.01);
}

TEST(MimicNetSurrogate, MissesUntrainedCongestion) {
  // Trained on an uncongested cluster (fast FCTs); the target actually
  // suffers incast (true FCT 10x). The mimic still predicts training-like
  // FCTs — the systematic under-prediction Table 2 shows for 4 clusters.
  std::vector<FlowRecord> train;
  for (uint32_t i = 0; i < 100; ++i) {
    train.push_back(MakeFlow(i, 50000, 2.0, 0.4));
  }
  MimicNetSurrogate mimic;
  mimic.Train(train);

  std::vector<FlowRecord> target;
  for (uint32_t i = 0; i < 100; ++i) {
    target.push_back(MakeFlow(i, 50000, 20.0, 4.0));  // True values (unused).
  }
  Rng rng(78, 0);
  const MimicPrediction p = mimic.Predict(target, rng);
  EXPECT_NEAR(p.mean_fct_ms, 2.0, 0.5);  // Predicts the trained world.
  const double true_fct = 20.0;
  EXPECT_GT(std::abs(p.mean_fct_ms - true_fct) / true_fct, 0.5);  // >50% error.
}

TEST(MimicNetSurrogate, FallsBackToNearestBucket) {
  std::vector<FlowRecord> train;
  for (uint32_t i = 0; i < 10; ++i) {
    train.push_back(MakeFlow(i, 1 << 14, 3.0, 1.0));
  }
  MimicNetSurrogate mimic;
  mimic.Train(train);
  // Target sizes far outside the trained bucket still get a prediction.
  std::vector<FlowRecord> target = {MakeFlow(0, 1 << 4, 0, 0),
                                    MakeFlow(1, 1 << 26, 0, 0)};
  Rng rng(79, 0);
  const MimicPrediction p = mimic.Predict(target, rng);
  EXPECT_NEAR(p.mean_fct_ms, 3.0, 1e-9);
}

}  // namespace
}  // namespace unison
