#include "src/kernel/engine/spec_checkpoint.h"

namespace unison {

bool SpecCheckpoint::Capture() {
  valid_ = false;
  if (!installed()) return false;
  const std::optional<uint64_t> bytes = capture_();
  if (!bytes) return false;
  last_capture_bytes_ = *bytes;
  ++captures_;
  valid_ = true;
  return true;
}

void SpecCheckpoint::Restore() {
  if (!valid_) return;
  restore_();
  ++restores_;
}

}  // namespace unison
