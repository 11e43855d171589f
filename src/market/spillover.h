// Cross-region spillover re-auctions (the marketplace's second stage).
//
// After every region's local round, demand the local auctions left
// uncovered is re-auctioned against the spare capacity of NEIGHBORING
// regions: for each uncovered region, candidate offers are assembled by
// walking edge::topology::neighbors_by_latency(region, max_latency) — so
// closer helpers are considered first — capped at `max_regions` helper
// regions, and priced at the original asking price plus the
// topology::transfer_cost surcharge for hauling the units across the
// backhaul. One SSAM re-auction per uncovered region then picks the
// cheapest feasible helper set; its winners become spill_awards, which the
// marketplace charges against the helper sellers' capacity via
// msoa_session::consume_external.
//
// Determinism contract: uncovered regions are processed in ascending
// region id, candidates are enumerated in ascending (latency, helper
// region id, seller id) order, and a seller sells into at most one foreign
// region per marketplace round.
//
// The stage is one serial pass on the calling thread:
//
//   1. per region: collect the round's spare offers, build its
//      seller_best_index (cheapest spare bid per seller) and clear its
//      claim flags;
//   2. per region with uncovered demand, ascending: walk the neighbor
//      list, append every unclaimed seller's surcharged best bid to the
//      pooled re-auction (a helper region counts toward max_regions only
//      if it contributed a candidate), run SSAM, claim the winners' sellers
//      and record their awards.
//
// The steady-state round allocates nothing here: the per-region indexes,
// the candidate vector and the re-auction instance/bids/result/scratch
// are pooled across rounds, and awards write covered ids into one pool
// per outcome.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "auction/bid.h"
#include "auction/ssam.h"
#include "common/annotations.h"
#include "edge/topology.h"
#include "market/shard.h"

namespace ecrs::market {

struct spillover_options {
  // Per-unit-per-ms backhaul surcharge (edge::topology::transfer_cost).
  double cost_per_ms = 0.05;
  // Latency budget: helpers further than this (shortest path, ms) are never
  // considered. Infinity = any reachable region.
  double max_latency = std::numeric_limits<double>::infinity();
  // At most this many helper regions per uncovered region (closest first).
  std::size_t max_regions = 4;
  // Configuration of the per-region SSAM re-auction.
  auction::ssam_options stage;
};

// One spillover sale: helper region's seller covers part of the demand
// region's deficit.
struct spill_award {
  std::uint32_t demand_region = 0;
  std::uint32_t helper_region = 0;
  auction::seller_id seller = 0;  // helper-region-local id
  std::size_t bid_index = 0;      // into the helper region's round instance
  // Covered demanders, demand-region-local ids (sorted unique). A view
  // into the owning spillover_outcome's covered_pool: valid as long as
  // that outcome lives, and survives MOVES of the outcome (the pool's heap
  // buffer moves with it) — but not copies, which leave the spans viewing
  // the source. Move outcomes or read them in place.
  std::span<const auction::demander_id> covered;
  auction::units amount = 0;   // units per covered demander
  double latency = 0.0;        // shortest-path ms between the two regions
  double ask = 0.0;            // surcharged asking price (social cost share)
  double payment = 0.0;        // what the platform pays the helper
};

// Per-uncovered-region accounting of what spillover achieved.
struct region_spill {
  std::uint32_t region = 0;
  auction::units requested = 0;  // units the local round left uncovered
  auction::units granted = 0;    // units spillover covered
};

struct spillover_outcome {
  std::vector<spill_award> awards;      // ascending demand region id
  std::vector<region_spill> regions;    // one per uncovered region, ascending
  // Backing store for every award's `covered` span, in award order.
  std::vector<auction::demander_id> covered_pool;
  auction::units unmet_units = 0;       // requested - granted, summed
  double social_cost = 0.0;             // sum of award asks
  double total_payment = 0.0;           // sum of award payments
};

// Sentinel of seller_best_index::best_bid: the seller offered nothing.
inline constexpr std::size_t kNoSpareBid =
    std::numeric_limits<std::size_t>::max();

// Per-helper-region index of one round's spare offers: for every seller
// the cheapest spare bid (ties to the lowest bid index — the order
// spare_offers emits). Replaces the old O(offers · sellers) per-offer
// find_if scan with one O(sellers + offers · log) build consumed by every
// requesting region. Exposed for the regression test that fuzzes it
// against the old scan (tests/market_test.cc).
class seller_best_index {
 public:
  // Rebuild from one region's spare offers (ascending bid index). `local`
  // supplies bid prices; `sellers` is the region's seller count. Reuses
  // capacity — warm rebuilds never allocate.
  ECRS_HOT void build(const auction::single_stage_instance& local,
                      std::span<const spare_offer> offers,
                      std::size_t sellers);

  // Sellers with at least one spare offer, ascending id.
  [[nodiscard]] std::span<const auction::seller_id> sellers() const {
    return sellers_;
  }
  // The cheapest spare bid of `seller`, or kNoSpareBid.
  [[nodiscard]] std::size_t best_bid(auction::seller_id seller) const {
    return best_[seller];
  }

 private:
  std::vector<std::size_t> best_;              // per seller id
  std::vector<auction::seller_id> sellers_;    // ascending, offers only
};

// The spillover stage with persistent cross-round storage. One instance
// serves one marketplace (or test harness); rounds reuse every buffer, so
// the steady state allocates nothing.
class spillover_stage {
 public:
  // `locals`/`shards`/`rounds` are the regions' round instances, shard
  // state and local outcomes; every region whose round left a deficit is
  // re-auctioned from its `uncovered` list. Refills `out` (capacity
  // reused); charging the awards to the helper shards is the caller's.
  void run(const edge::topology& topo,
           std::span<const auction::single_stage_instance> locals,
           std::span<const shard> shards, std::span<const shard_round> rounds,
           const spillover_options& options, spillover_outcome& out);

  // Wall time the last run() spent preparing the helper regions (step 1),
  // milliseconds. Perf telemetry only — never part of the outcome.
  [[nodiscard]] double assembly_ms() const { return assembly_ms_; }

 private:
  // Where re-auction bid i came from: candidates_[i].
  struct candidate {
    std::uint32_t helper_region = 0;
    auction::seller_id seller = 0;  // helper-local
    std::size_t bid_index = 0;      // into the helper's round instance
    double latency = 0.0;
  };
  // Per-region round state.
  struct helper_slot {
    std::vector<spare_offer> offers;
    seller_best_index best;
    std::vector<char> claimed;
    std::vector<char> won_scratch;  // shard::spare_offers scratch
  };

  // Append a re-auction bid, reusing a parked one (and its coverage
  // capacity) when the pool has any.
  auction::bid& push_spill_bid();

  std::vector<helper_slot> helpers_;
  std::vector<candidate> candidates_;  // one request's re-auction bids
  // Pooled re-auction storage.
  auction::single_stage_instance spill_;
  std::vector<auction::bid> bid_pool_;
  auction::coverage_state remaining_;
  auction::ssam_scratch scratch_;
  auction::ssam_result result_;
  // Award covered spans are recorded as offsets while covered_pool grows,
  // then patched to spans once it is stable.
  std::vector<std::pair<std::size_t, std::size_t>> covered_offsets_;
  double assembly_ms_ = 0.0;
};

}  // namespace ecrs::market
