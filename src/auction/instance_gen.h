// Random auction-instance generators following the paper's parameter
// settings (§V-A): bid prices uniform in [10, 35], requirements 𝔾^t uniform
// in [10, 40], J bids per seller (default 2), sellers drawn from the
// microservices of the edge clouds. Generated instances are always
// satisfiable: requirements are clamped to the available supply with a
// safety margin.
#pragma once

#include <cstddef>
#include <vector>

#include "auction/bid.h"
#include "auction/online.h"
#include "common/rng.h"

namespace ecrs::auction {

struct instance_config {
  std::size_t sellers = 25;          // |S| microservices with spare resources
  std::size_t demanders = 5;         // |Ŝ| microservices in need
  std::size_t bids_per_seller = 2;   // F / J, alternative bids
  double price_lo = 10.0;            // paper: U[10, 35]
  double price_hi = 35.0;
  units requirement_lo = 10;         // paper: 𝔾^t in [10, 40]
  units requirement_hi = 40;
  units amount_lo = 1;               // a_ij: units offered per demander
  units amount_hi = 10;
  // Each bid covers a uniform number of demanders in
  // [1, max(1, coverage_fraction * demanders)] ...
  double coverage_fraction = 0.6;
  // ... unless max_coverage > 0, which caps the coverage size at an
  // absolute count regardless of how many demanders exist (used when
  // sweeping the demander count so per-bid supply stays comparable).
  std::size_t max_coverage = 0;
  // Requirements are clamped to this fraction of the achievable supply so
  // every generated instance is satisfiable.
  double supply_margin = 0.8;
};

[[nodiscard]] single_stage_instance random_instance(
    const instance_config& config, rng& gen);

// Per-demander guaranteed supply of `instance`'s bid set: the sum over
// covering sellers of the seller's MINIMUM bid amount — whatever
// alternative bid of a seller wins contributes at least that much (all
// bids of a seller share one coverage set; DESIGN.md §2). This is the
// satisfiability bound the generators clamp against and the streaming
// ingestor (market/ingest.h) caps quantized demand with.
[[nodiscard]] std::vector<units> guaranteed_supply(
    const single_stage_instance& instance);

struct online_config {
  instance_config stage;
  std::size_t rounds = 10;  // T (paper default 10, swept 1..15)
  // Seller lifetime capacity Θ_i in participation units, uniform in
  // [capacity_lo, capacity_hi]. 0,0 = auto: enough for roughly half the
  // horizon (keeps capacity binding but feasible).
  units capacity_lo = 0;
  units capacity_hi = 0;
  // Fraction of sellers whose [t-, t+] window is a strict sub-interval of
  // the horizon (the rest are present throughout).
  double windowed_fraction = 0.5;
  // Persistent per-seller price level: each seller draws a multiplicative
  // factor uniform in [1-bias, 1+bias] once, applied to all its bids in
  // every round. 0 = prices iid across rounds (no consistently cheap
  // sellers); > 0 makes capacity protection matter (some sellers stay cheap
  // for the whole horizon — the situation Algorithm 2's ψ-scaling targets).
  double seller_price_bias = 0.0;
};

[[nodiscard]] online_instance random_online_instance(
    const online_config& config, rng& gen);

// ---------------------------------------------------------------------------
// Region-aware generation (the sharded marketplace's input shape): one
// local auction per edge::topology region, each drawn from an independent
// per-region substream (gen.fork(region)), so a regional instance is
// byte-identical whether regions are generated serially or by concurrent
// shards, and adding a region never perturbs the others.

struct regional_config {
  std::size_t regions = 10;
  // Per-region overrides of the stage's seller/demander counts; empty = use
  // the stage config for every region, otherwise size must equal `regions`.
  std::vector<std::size_t> sellers_per_region;
  std::vector<std::size_t> demanders_per_region;
  // Post-clamp demand multiplier: the base generators clamp requirements to
  // the local guaranteed supply, so every region is locally satisfiable;
  // a scale > 1 re-inflates requirements past local supply, leaving
  // deficits only cross-region spillover can cover. Per-region overrides
  // (empty = scale everywhere) let tests overload a single region.
  double demand_scale = 1.0;
  std::vector<double> demand_scale_per_region;
};

// One local winner-selection problem per region; seller and demander ids
// are region-local.
struct regional_instance {
  std::vector<single_stage_instance> regions;

  [[nodiscard]] std::size_t region_count() const { return regions.size(); }
  void validate() const;  // validates every local instance
};

// Multi-round flavour: one online_instance (rounds + seller profiles) per
// region, for marketplaces that keep a warm msoa_session per shard.
struct regional_online_instance {
  std::vector<online_instance> regions;

  [[nodiscard]] std::size_t region_count() const { return regions.size(); }
  [[nodiscard]] std::size_t horizon() const {
    return regions.empty() ? 0 : regions.front().horizon();
  }
  void validate() const;
};

[[nodiscard]] regional_instance random_regional_instance(
    const instance_config& stage, const regional_config& config, rng& gen);

[[nodiscard]] regional_online_instance random_regional_online_instance(
    const online_config& stage, const regional_config& config, rng& gen);

}  // namespace ecrs::auction
