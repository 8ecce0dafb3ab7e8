#include "src/partition/partition_map.h"

#include <algorithm>

namespace unison {

void PartitionMap::Reset(std::vector<uint32_t> owner_of_lp,
                         uint32_t num_executors) {
  num_executors_ = std::max(1u, num_executors);
  owner_of_lp_ = std::move(owner_of_lp);
  for (uint32_t& o : owner_of_lp_) {
    o %= num_executors_;
  }
  RebuildOwned();
}

void PartitionMap::ResetStrided(uint32_t num_lps, uint32_t num_executors) {
  num_executors_ = std::max(1u, num_executors);
  owner_of_lp_.resize(num_lps);
  for (uint32_t lp = 0; lp < num_lps; ++lp) {
    owner_of_lp_[lp] = lp % num_executors_;
  }
  RebuildOwned();
}

void PartitionMap::RebuildOwned() {
  owned_.assign(num_executors_, {});
  // Ascending LpId within each executor by construction: the loops that
  // consume these lists (process, drain, min-reduce) iterate in a
  // partition-independent deterministic order.
  for (uint32_t lp = 0; lp < owner_of_lp_.size(); ++lp) {
    owned_[owner_of_lp_[lp]].push_back(lp);
  }
}

}  // namespace unison
