// Global <-> (region, local) id translation for the sharded marketplace.
//
// Each region runs its own auction over region-local seller/demander ids
// (so shard instances are self-contained and shards never share mutable
// state); the region_map records how those local ids line up with the
// platform's global ids. Global ids are contiguous in ascending region
// order: region 0's sellers first, then region 1's, and so on — the same
// layout auction::regional_instance generation produces.
//
// partition() builds a regional_instance (plus its map) from a GLOBAL
// instance and per-entity region tags: every bid follows its seller's
// region, and coverage entries naming demanders outside that region are
// dropped — regional markets are local by construction; cross-region help
// is the spillover stage's job, not a bid's (DESIGN.md section 12).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "auction/instance_gen.h"

namespace ecrs::market {

class region_map {
 public:
  region_map() = default;
  // Per-region entity counts; global ids are assigned contiguously in
  // region order.
  region_map(std::vector<std::uint32_t> sellers_per_region,
             std::vector<std::uint32_t> demanders_per_region);

  [[nodiscard]] std::uint32_t regions() const {
    return static_cast<std::uint32_t>(seller_base_.empty()
                                          ? 0
                                          : seller_base_.size() - 1);
  }
  [[nodiscard]] std::uint32_t seller_count() const {
    return seller_base_.empty() ? 0 : seller_base_.back();
  }
  [[nodiscard]] std::uint32_t demander_count() const {
    return demander_base_.empty() ? 0 : demander_base_.back();
  }
  [[nodiscard]] std::uint32_t sellers_in(std::uint32_t region) const;
  [[nodiscard]] std::uint32_t demanders_in(std::uint32_t region) const;

  [[nodiscard]] std::uint32_t global_seller(std::uint32_t region,
                                            std::uint32_t local) const;
  [[nodiscard]] std::uint32_t global_demander(std::uint32_t region,
                                              std::uint32_t local) const;
  [[nodiscard]] std::uint32_t region_of_seller(std::uint32_t global) const;
  [[nodiscard]] std::uint32_t region_of_demander(std::uint32_t global) const;
  [[nodiscard]] std::uint32_t local_seller(std::uint32_t global) const;
  [[nodiscard]] std::uint32_t local_demander(std::uint32_t global) const;

 private:
  // Prefix sums, regions()+1 entries each (empty when default-constructed).
  std::vector<std::uint32_t> seller_base_;
  std::vector<std::uint32_t> demander_base_;
};

// A global instance split into per-region locals.
struct partitioned_instance {
  auction::regional_instance shards;
  region_map map;
  // Coverage entries that named a demander outside the bid's seller's
  // region (dropped), and bids left with no coverage at all (dropped).
  std::size_t dropped_coverage = 0;
  std::size_t dropped_bids = 0;
};

// Partition `global` by the given region tags (one entry per seller /
// demander id, values < regions). Local ids preserve ascending global id
// order within each region, so the split is deterministic and reversible
// through the returned map.
[[nodiscard]] partitioned_instance partition(
    const auction::single_stage_instance& global, std::uint32_t regions,
    std::span<const std::uint32_t> seller_region,
    std::span<const std::uint32_t> demander_region);

}  // namespace ecrs::market
