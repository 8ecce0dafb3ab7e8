// Steady-state allocation checks on the kernels' cross-LP message paths.
//
// This binary replaces the global operator new with a counting one
// (bench/counting_new.h), so a delta around a measured window counts every
// heap allocation the window made, on any thread.
#include <string>

#include <gtest/gtest.h>

#include "bench/counting_new.h"
#include "bench/ping_pong_allocs.h"

namespace unison {
namespace {

// A warm 20 ms window of 160,000 cross-LP events allocates only the kernel's
// fixed per-window setup: the null-message receive phase swaps each channel
// with a buffer that keeps its capacity, and unison's mailboxes keep theirs.
class PingPongAllocTest : public ::testing::TestWithParam<KernelType> {};

TEST_P(PingPongAllocTest, SteadyStateSendsDoNotAllocate) {
  const PingPongAllocs pp =
      MeasurePingPongAllocs(GetParam(), /*chains=*/8, bench::HeapAllocs);
  EXPECT_EQ(pp.events, 160'000u);
  EXPECT_LE(pp.per_event(), 0.01) << pp.allocs << " allocations";
}

INSTANTIATE_TEST_SUITE_P(Kernels, PingPongAllocTest,
                         ::testing::Values(KernelType::kNullMessage,
                                           KernelType::kUnison),
                         [](const auto& info) {
                           return info.param == KernelType::kNullMessage
                                      ? std::string("NullMessage")
                                      : std::string("Unison");
                         });

}  // namespace
}  // namespace unison
