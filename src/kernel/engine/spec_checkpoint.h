// Window checkpoint policy for speculative execution.
//
// Speculation (DESIGN.md §3k) lets the round kernels run past the Eq. 2 LBTS
// bound and roll back on a causality miss. The rollback target is the
// session's mutable window state at the window boundary. Its representation
// — an incremental store that re-encodes only what changed since the last
// capture — lives behind the session layer (src/net/session.h); the kernel
// layer sees only the two hooks Network::Finalize installs, and keeps the
// policy state here: whether a valid checkpoint exists, and the counters.
//
// Capture may decline (return nullopt) when the session holds state the
// format cannot represent (lambda events such as progress tickers); the
// kernel then falls back to conservative execution for that window —
// speculation is an optimization, never a requirement.
#ifndef UNISON_SRC_KERNEL_ENGINE_SPEC_CHECKPOINT_H_
#define UNISON_SRC_KERNEL_ENGINE_SPEC_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

namespace unison {

class SpecCheckpoint {
 public:
  // Brings the session's checkpoint up to the current window state; returns
  // the bytes it re-encoded, or nullopt when the state is not representable
  // (the caller must not speculate this window).
  using CaptureFn = std::function<std::optional<uint64_t>()>;
  // Restores the session, in place, to the last captured state.
  using RestoreFn = std::function<void()>;

  void InstallHooks(CaptureFn capture, RestoreFn restore) {
    capture_ = std::move(capture);
    restore_ = std::move(restore);
  }
  bool installed() const { return static_cast<bool>(capture_); }

  // Captures a checkpoint at the current window boundary. Returns false (and
  // invalidates any prior checkpoint) when no hooks are installed or the
  // capture hook refuses.
  bool Capture();

  // Rolls the session back to the last captured checkpoint. The checkpoint
  // stays valid — a window may in principle be re-rolled, though the kernels'
  // retry loop only ever restores once per window.
  void Restore();

  bool valid() const { return valid_; }
  uint64_t captures() const { return captures_; }
  uint64_t restores() const { return restores_; }
  // Bytes the last successful capture re-encoded.
  uint64_t last_capture_bytes() const { return last_capture_bytes_; }

 private:
  CaptureFn capture_;
  RestoreFn restore_;
  bool valid_ = false;
  uint64_t captures_ = 0;
  uint64_t restores_ = 0;
  uint64_t last_capture_bytes_ = 0;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ENGINE_SPEC_CHECKPOINT_H_
