#include <memory>
#include <string>

#include "src/kernel/kernel.h"
#include "src/kernel/nullmsg.h"
#include "src/kernel/round_kernel.h"
#include "src/kernel/sequential.h"

namespace unison {

std::unique_ptr<Kernel> MakeKernel(const KernelConfig& config) {
  if (std::string error = config.Validate(); !error.empty()) {
    FatalConfigError(error);
  }
  switch (config.type) {
    case KernelType::kSequential:
      return std::make_unique<SequentialKernel>(config);
    case KernelType::kNullMessage:
      return std::make_unique<NullMessageKernel>(config);
    case KernelType::kBarrier:
    case KernelType::kUnison:
    case KernelType::kHybrid:
      return std::make_unique<RoundKernel>(config);
  }
  return nullptr;
}

}  // namespace unison
