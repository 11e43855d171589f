// Driver for the sharded multi-region marketplace (DESIGN.md §12): runs a
// regional online market — one warm msoa_session shard per ring-backhaul
// region plus the cross-region spillover stage — and tabulates per-round
// totals. Determinism matches the sweep drivers: the whole input derives
// from one rng fork chain, each shard's stream from (seed, region), and
// the marketplace reduces serially in region order, so the table is
// byte-identical at any thread count. Each round's requirements come
// pre-drawn from auction::random_regional_online_instance.
#include <utility>
#include <vector>

#include "auction/instance_gen.h"
#include "common/check.h"
#include "edge/topology.h"
#include "harness/experiments.h"
#include "harness/internal.h"
#include "market/marketplace.h"

namespace ecrs::harness {
namespace {

// Figure tag of this driver in the (seed, figure, point, trial) fork chain
// (DESIGN.md section number; no paper figure exists for the extension).
constexpr std::uint64_t kMarketFigure = 12;

}  // namespace

table marketplace_rounds(const marketplace_config& cfg) {
  ECRS_CHECK_MSG(cfg.regions >= 1, "need at least one region");
  ECRS_CHECK_MSG(cfg.rounds >= 1, "need at least one round");

  // Input: independent per-region online instances with demand re-inflated
  // past local supply, on a unit-latency ring backhaul.
  auction::online_config stage;
  stage.stage = internal::paper_stage(cfg.sellers_per_region,
                                      cfg.demanders_per_region,
                                      /*bids_per_seller=*/2);
  stage.rounds = cfg.rounds;
  auction::regional_config regional;
  regional.regions = cfg.regions;
  regional.demand_scale = cfg.demand_scale;
  rng gen = internal::point_rng(cfg.seed, kMarketFigure, 0, 0);
  const auction::regional_online_instance input =
      auction::random_regional_online_instance(stage, regional, gen);
  input.validate();

  edge::topology topo =
      edge::topology::ring(static_cast<std::uint32_t>(cfg.regions));

  market::marketplace_options options;
  options.threads = cfg.threads;
  // The marketplace already fans out across shards; per-round payment
  // probes stay on the shard's thread (results identical either way).
  options.shard.session.stage.payment_threads = 1;
  options.spillover.stage.payment_threads = 1;

  std::vector<std::vector<auction::seller_profile>> sellers;
  sellers.reserve(cfg.regions);
  for (const auction::online_instance& region : input.regions) {
    sellers.push_back(region.sellers);
  }
  market::marketplace mkt(topo, std::move(sellers), options);

  table out({"round", "social_cost", "payment", "spill_requests",
             "spill_awards", "spill_granted", "unmet_units", "feasible"});
  auction::regional_instance round;
  round.regions.resize(cfg.regions);
  market::marketplace_round result;
  for (std::size_t t = 0; t < cfg.rounds; ++t) {
    for (std::size_t r = 0; r < cfg.regions; ++r) {
      round.regions[r] = input.regions[r].rounds[t];
    }
    mkt.run_round(round, result);

    auction::units granted = 0;
    for (const market::region_spill& spill : result.spillover.regions) {
      granted += spill.granted;
    }
    out.add_row({static_cast<long long>(result.round), result.social_cost,
                 result.total_payment,
                 static_cast<long long>(result.spillover.regions.size()),
                 static_cast<long long>(result.spillover.awards.size()),
                 static_cast<long long>(granted),
                 static_cast<long long>(result.unmet_units),
                 std::string(result.feasible ? "yes" : "no")});
  }
  return out;
}

}  // namespace ecrs::harness
