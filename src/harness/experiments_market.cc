// Driver for the sharded multi-region marketplace (DESIGN.md §12): runs a
// regional online market — one warm msoa_session shard per ring-backhaul
// region plus the cross-region spillover stage — and tabulates per-round
// totals. Determinism matches the sweep drivers: the whole input derives
// from one rng fork chain, each shard's stream from (seed, region), and
// the marketplace reduces serially in region order, so the table is
// byte-identical at any thread count.
//
// Two demand paths share the mechanism:
//  - batch (default): each round's requirements come pre-drawn from
//    auction::random_regional_online_instance;
//  - streaming (cfg.streaming): a workload::generator request stream is
//    quantized into the per-region instances by market::round_ingestor —
//    the ~1M-demander path, no global instance ever materialized.
#include <utility>
#include <vector>

#include "auction/instance_gen.h"
#include "common/check.h"
#include "edge/topology.h"
#include "harness/experiments.h"
#include "harness/internal.h"
#include "market/ingest.h"
#include "market/marketplace.h"
#include "workload/generator.h"

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
  // Streaming mode scales demand through the ingestor's quantization; the
  // pre-drawn requirements are overwritten anyway.
  regional.demand_scale = cfg.streaming ? 1.0 : cfg.demand_scale;
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

  // Streaming path state: the generator's request stream and the ingestor
  // owning the standing (round-1) bid sets.
  std::vector<market::round_ingestor> ingestor;  // 0 or 1 elements
  std::vector<workload::generator> stream;       // 0 or 1 elements
  std::vector<workload::request> batch;
  if (cfg.streaming) {
    auction::regional_instance standing;
    standing.regions.reserve(cfg.regions);
    for (const auction::online_instance& region : input.regions) {
      ECRS_CHECK_MSG(!region.rounds.empty(), "streaming needs round 1 bids");
      standing.regions.push_back(region.rounds.front());
    }
    market::ingest_config icfg;
    icfg.regions = static_cast<std::uint32_t>(cfg.regions);
    icfg.microservices =
        static_cast<std::uint32_t>(cfg.regions * cfg.demanders_per_region);
    icfg.unit_demand = cfg.unit_demand;
    icfg.max_requirement = stage.stage.requirement_hi;
    icfg.supply_margin = stage.stage.supply_margin;
    icfg.demand_scale = cfg.demand_scale;
    icfg.threads = cfg.threads;
    ingestor.emplace_back(icfg, std::move(standing));

    workload::generator_config wcfg;
    wcfg.users = cfg.users;
    wcfg.microservices = icfg.microservices;
    wcfg.regions = icfg.regions;
    wcfg.seed = cfg.seed;
    stream.emplace_back(wcfg);
  }

  std::vector<std::string> columns = {
      "round",        "social_cost",   "payment",     "spill_requests",
      "spill_awards", "spill_granted", "unmet_units", "feasible"};
  if (cfg.perf_columns) {
    columns.push_back("allocs_per_round");
    columns.push_back("spill_assembly_ms");
  }
  table out(std::move(columns));
  auction::regional_instance round;
  if (!cfg.streaming) round.regions.resize(cfg.regions);
  market::marketplace_round result;
  for (std::size_t t = 0; t < cfg.rounds; ++t) {
    const std::uint64_t allocs_before =
        cfg.alloc_count != nullptr ? cfg.alloc_count() : 0;
    if (cfg.streaming) {
      stream.front().round_into(static_cast<double>(t), 1.0, batch);
      mkt.run_round(ingestor.front().ingest(batch), result);
    } else {
      for (std::size_t r = 0; r < cfg.regions; ++r) {
        round.regions[r] = input.regions[r].rounds[t];
      }
      mkt.run_round(round, result);
    }
    const std::uint64_t allocs_after =
        cfg.alloc_count != nullptr ? cfg.alloc_count() : 0;

    auction::units granted = 0;
    for (const market::region_spill& spill : result.spillover.regions) {
      granted += spill.granted;
    }
    std::vector<table::cell> row = {
        static_cast<long long>(result.round), result.social_cost,
        result.total_payment,
        static_cast<long long>(result.spillover.regions.size()),
        static_cast<long long>(result.spillover.awards.size()),
        static_cast<long long>(granted),
        static_cast<long long>(result.unmet_units),
        std::string(result.feasible ? "yes" : "no")};
    if (cfg.perf_columns) {
      // emplace_back, not push_back: gcc 12 reports moving a temporary
      // variant into the row as -Wmaybe-uninitialized.
      row.emplace_back(static_cast<long long>(allocs_after - allocs_before));
      row.emplace_back(mkt.last_timing().spill_assembly_ms);
    }
    out.add_row(std::move(row));
  }
  return out;
}

}  // namespace ecrs::harness
