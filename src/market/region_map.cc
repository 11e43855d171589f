#include "market/region_map.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace ecrs::market {
namespace {

std::vector<std::uint32_t> prefix_sum(
    const std::vector<std::uint32_t>& counts) {
  std::vector<std::uint32_t> base(counts.size() + 1, 0);
  for (std::size_t r = 0; r < counts.size(); ++r) {
    base[r + 1] = base[r] + counts[r];
  }
  return base;
}

// Region owning `global` under the prefix-sum layout: the last base entry
// <= global. O(log regions).
std::uint32_t region_of(const std::vector<std::uint32_t>& base,
                        std::uint32_t global) {
  ECRS_CHECK_MSG(!base.empty() && global < base.back(),
                 "global id " << global << " out of range");
  const auto it = std::upper_bound(base.begin(), base.end(), global);
  return static_cast<std::uint32_t>(it - base.begin() - 1);
}

}  // namespace

region_map::region_map(std::vector<std::uint32_t> sellers_per_region,
                       std::vector<std::uint32_t> demanders_per_region)
    : seller_base_(prefix_sum(sellers_per_region)),
      demander_base_(prefix_sum(demanders_per_region)) {
  ECRS_CHECK_MSG(sellers_per_region.size() == demanders_per_region.size(),
                 "seller and demander count vectors must cover the same "
                 "regions");
  ECRS_CHECK_MSG(!sellers_per_region.empty(), "need at least one region");
}

std::uint32_t region_map::sellers_in(std::uint32_t region) const {
  ECRS_CHECK(region < regions());
  return seller_base_[region + 1] - seller_base_[region];
}

std::uint32_t region_map::demanders_in(std::uint32_t region) const {
  ECRS_CHECK(region < regions());
  return demander_base_[region + 1] - demander_base_[region];
}

std::uint32_t region_map::global_seller(std::uint32_t region,
                                        std::uint32_t local) const {
  ECRS_CHECK(region < regions() && local < sellers_in(region));
  return seller_base_[region] + local;
}

std::uint32_t region_map::global_demander(std::uint32_t region,
                                          std::uint32_t local) const {
  ECRS_CHECK(region < regions() && local < demanders_in(region));
  return demander_base_[region] + local;
}

std::uint32_t region_map::region_of_seller(std::uint32_t global) const {
  return region_of(seller_base_, global);
}

std::uint32_t region_map::region_of_demander(std::uint32_t global) const {
  return region_of(demander_base_, global);
}

std::uint32_t region_map::local_seller(std::uint32_t global) const {
  return global - seller_base_[region_of_seller(global)];
}

std::uint32_t region_map::local_demander(std::uint32_t global) const {
  return global - demander_base_[region_of_demander(global)];
}

partitioned_instance partition(
    const auction::single_stage_instance& global, std::uint32_t regions,
    std::span<const std::uint32_t> seller_region,
    std::span<const std::uint32_t> demander_region) {
  ECRS_CHECK_MSG(regions >= 1, "need at least one region");
  ECRS_CHECK_MSG(demander_region.size() == global.demanders(),
                 "one region tag per demander required");
  for (const std::uint32_t r : seller_region) {
    ECRS_CHECK_MSG(r < regions, "seller region tag " << r << " out of range");
  }
  for (const std::uint32_t r : demander_region) {
    ECRS_CHECK_MSG(r < regions,
                   "demander region tag " << r << " out of range");
  }

  // Local ids in ascending global id order within each region.
  std::vector<std::uint32_t> sellers_per_region(regions, 0);
  std::vector<std::uint32_t> demanders_per_region(regions, 0);
  std::vector<std::uint32_t> local_of_seller(seller_region.size(), 0);
  std::vector<std::uint32_t> local_of_demander(demander_region.size(), 0);
  for (std::size_t s = 0; s < seller_region.size(); ++s) {
    local_of_seller[s] = sellers_per_region[seller_region[s]]++;
  }
  for (std::size_t k = 0; k < demander_region.size(); ++k) {
    local_of_demander[k] = demanders_per_region[demander_region[k]]++;
  }

  partitioned_instance out;
  out.shards.regions.resize(regions);
  for (std::uint32_t r = 0; r < regions; ++r) {
    out.shards.regions[r].requirements.resize(demanders_per_region[r]);
  }
  for (std::size_t k = 0; k < demander_region.size(); ++k) {
    out.shards.regions[demander_region[k]]
        .requirements[local_of_demander[k]] = global.requirements[k];
  }

  for (const auction::bid& b : global.bids) {
    ECRS_CHECK_MSG(b.seller < seller_region.size(),
                   "bid references untagged seller " << b.seller);
    const std::uint32_t r = seller_region[b.seller];
    auction::bid local = b;
    local.seller = local_of_seller[b.seller];
    local.coverage.clear();
    for (const auction::demander_id k : b.coverage) {
      if (demander_region[k] != r) {
        ++out.dropped_coverage;
        continue;
      }
      local.coverage.push_back(local_of_demander[k]);
    }
    if (local.coverage.empty()) {
      ++out.dropped_bids;
      continue;
    }
    // Local ids preserve ascending global order within a region, so the
    // mapped coverage is already sorted unique.
    out.shards.regions[r].bids.push_back(std::move(local));
  }

  out.map = region_map(std::move(sellers_per_region),
                       std::move(demanders_per_region));
  out.shards.validate();
  return out;
}

}  // namespace ecrs::market
