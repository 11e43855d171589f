// Regional ingestion of per-microservice demand estimates into per-region
// shard instances (DESIGN.md section 12).
//
// Instead of materializing one GLOBAL single_stage_instance per round and
// splitting it by region — at the 100-region / ~1M demander scale a full
// copy of every requirement and every bid, every round — the
// round_ingestor owns the per-region standing bid sets once, and each round
// only rewrites the per-region requirement vectors from the estimates
// (the paper's X_i^t, Eq. 1, as demand::estimator produces them):
//
//   1. add_demands: every microservice's estimated resource-seconds are
//      added to its accumulator slot — region m % regions, local slot
//      m / regions, the same round-robin placement
//      workload::generator::region_of uses. Rows are carved from the
//      ingestor's arena at construction (one double row per region), so
//      the per-round loop is pure arithmetic into preallocated memory.
//   2. finalize: per region (parallel across regions, disjoint rows — or
//      serial; identical bytes either way), each accumulator becomes a
//      requirement: ceil(accumulated / unit_demand) units, capped by
//      max_requirement and by the region's guaranteed-supply bound
//      (auction::guaranteed_supply × supply_margin — the generators'
//      satisfiability clamp), then re-inflated by demand_scale exactly
//      like auction::regional_config::demand_scale. Accumulators reset
//      for the next round.
//
// The returned regional_instance is stable storage owned by the ingestor:
// feed it to marketplace::run_round, then add the next round's estimates.
// Bids are standing across rounds, so shard warm-start caches engage. The
// steady state allocates nothing.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "auction/bid.h"
#include "auction/instance_gen.h"
#include "common/annotations.h"
#include "common/arena.h"

namespace ecrs::market {

// Supply cap sentinel: no clamp (supply_margin == 0).
inline constexpr auction::units kNoSupplyCap =
    std::numeric_limits<auction::units>::max();

struct ingest_config {
  std::uint32_t regions = 1;
  // Microservice id space; microservice m lands on region m % regions,
  // local demander slot m / regions (the workload::generator contract).
  std::uint32_t microservices = 1;
  // Resource-seconds of accumulated service demand per requirement unit.
  double unit_demand = 1.0;
  // Hard per-demander requirement cap in units (0 = uncapped), applied
  // before the supply clamp. Mirrors instance_config::requirement_hi.
  auction::units max_requirement = 0;
  // Clamp requirements to this fraction of the region's guaranteed supply
  // (auction::guaranteed_supply over the standing bids); 0 = no clamp.
  double supply_margin = 0.0;
  // Post-clamp demand multiplier, exactly regional_config::demand_scale:
  // > 1 re-inflates requirements past local supply so only cross-region
  // spillover can cover them.
  double demand_scale = 1.0;
  // Worker threads for the quantize pass: 1 = serial, 0 = shared pool at
  // hardware width, k = at most k workers. Identical bytes at any value.
  std::size_t threads = 1;
};

// One microservice's round demand, quantized to auction units: ceil of
// accumulated / unit_demand, capped by max_requirement (when > 0) and
// supply_cap (kNoSupplyCap = none), then scaled by demand_scale (ceil).
// A quotient at or above 2^63 takes the cap; with no cap, or a scaled
// result at or above 2^63, it throws check_error (as does NaN).
[[nodiscard]] auction::units quantize_demand(double accumulated,
                                             const ingest_config& config,
                                             auction::units supply_cap);

class round_ingestor {
 public:
  // Takes ownership of the standing per-region bid sets. Requirement
  // vectors of `standing` are resized to the region's demander count
  // (microservices / regions rounded by slot) and rewritten every round;
  // bids must use region-local ids consistent with that demander count.
  round_ingestor(ingest_config config, auction::regional_instance standing);

  [[nodiscard]] const ingest_config& config() const { return config_; }
  // The current round view (requirements of the last finalize() call).
  [[nodiscard]] const auction::regional_instance& round() const {
    return round_;
  }

  [[nodiscard]] std::uint32_t region_of(std::uint32_t microservice) const {
    return microservice % config_.regions;
  }
  [[nodiscard]] std::uint32_t local_demander(
      std::uint32_t microservice) const {
    return microservice / config_.regions;
  }
  // Demanders hosted on `region` under round-robin placement.
  [[nodiscard]] std::uint32_t demanders_in(std::uint32_t region) const;
  // The region-local guaranteed-supply cap (kNoSupplyCap when unclamped).
  [[nodiscard]] auction::units supply_cap(std::uint32_t region,
                                          std::uint32_t local) const;

  // Add one round's estimated demand, a dense per-microservice vector of
  // resource-seconds (index = global id, size = microservices). Every
  // amount must be finite and >= 0 (check_error otherwise). Callable more
  // than once per round; amounts add up until finalize().
  ECRS_HOT void add_demands(std::span<const double> by_microservice);

  // Close the round: quantize every accumulator into its region's
  // requirement vector (parallel across regions per config.threads,
  // disjoint writes — byte-identical at any thread count), reset the
  // accumulators, and return the round's per-region instances.
  const auction::regional_instance& finalize();

 private:
  ECRS_HOT void quantize_region(std::uint32_t region);

  ingest_config config_;
  auction::regional_instance round_;
  arena arena_;  // accumulator + cap rows, live for the ingestor lifetime
  std::vector<double*> accum_;          // per region, demanders_in(r) slots
  std::vector<auction::units*> caps_;   // per region (empty when unclamped)
};

}  // namespace ecrs::market
