// Large-scale streaming marketplace byte-identity (PR 9 acceptance): a
// 64-region x 1000-demanders-per-region horizon fed from the workload
// stream through market::round_ingestor must produce byte-identical
// rounds at every thread setting {1, 2, hardware, 0}. Each round sums
// the requests' service demand per microservice, in batch order, into
// the dense vector round_ingestor::add_demands takes. Slow-labeled: quick
// CI lanes run `ctest -LE slow`; the full lanes run it everywhere else.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "auction/instance_gen.h"
#include "edge/topology.h"
#include "harness/internal.h"
#include "market/ingest.h"
#include "market/marketplace.h"
#include "workload/generator.h"

namespace ecrs {
namespace {

constexpr std::uint32_t kRegions = 64;
constexpr std::uint32_t kDemandersPerRegion = 1000;
constexpr std::size_t kRounds = 2;

struct scale_setup {
  auction::regional_online_instance input;
  market::ingest_config icfg;
  workload::generator_config wcfg;
};

scale_setup build_setup() {
  auction::online_config stage;
  stage.stage = harness::internal::paper_stage(/*sellers=*/4,
                                               kDemandersPerRegion,
                                               /*bids_per_seller=*/2);
  stage.stage.max_coverage = 50;  // keep per-bid coverage bounded at scale
  stage.rounds = 1;               // standing (round 1) bids only
  auction::regional_config regional;
  regional.regions = kRegions;
  rng gen = harness::internal::point_rng(7, 12, 2, 0);

  scale_setup setup;
  setup.input =
      auction::random_regional_online_instance(stage, regional, gen);
  setup.icfg.regions = kRegions;
  setup.icfg.microservices = kRegions * kDemandersPerRegion;
  setup.icfg.unit_demand = 4.0;
  setup.icfg.max_requirement = stage.stage.requirement_hi;
  setup.icfg.supply_margin = stage.stage.supply_margin;
  setup.icfg.demand_scale = 1.25;
  setup.wcfg.users = setup.icfg.microservices / 15 + 1;
  setup.wcfg.microservices = setup.icfg.microservices;
  setup.wcfg.regions = kRegions;
  setup.wcfg.seed = 7;
  return setup;
}

// Every decision a round made, bit-exact (doubles by bit pattern).
void digest_round(const market::marketplace_round& round,
                  std::vector<std::uint64_t>& out) {
  const auto push_double = [&](double v) {
    out.push_back(std::bit_cast<std::uint64_t>(v));
  };
  out.push_back(round.round);
  for (const auto& shard : round.shards) {
    out.push_back(shard.outcome.winner_bids.size());
    for (const std::size_t w : shard.outcome.winner_bids) out.push_back(w);
    for (const double p : shard.outcome.payments) push_double(p);
    push_double(shard.outcome.social_cost);
    out.push_back(static_cast<std::uint64_t>(shard.deficit));
  }
  out.push_back(round.spillover.awards.size());
  for (const auto& award : round.spillover.awards) {
    out.push_back(award.demand_region);
    out.push_back(award.helper_region);
    out.push_back(award.seller);
    out.push_back(award.bid_index);
    for (const auto k : award.covered) out.push_back(k);
    out.push_back(static_cast<std::uint64_t>(award.amount));
    push_double(award.ask);
    push_double(award.payment);
  }
  out.push_back(static_cast<std::uint64_t>(round.unmet_units));
  push_double(round.social_cost);
  push_double(round.total_payment);
}

std::vector<std::uint64_t> run_horizon(const scale_setup& setup,
                                       std::size_t threads) {
  edge::topology topo = edge::topology::ring(kRegions);
  market::marketplace_options options;
  options.threads = threads;
  options.shard.session.stage.payment_threads = 1;
  options.spillover.stage.payment_threads = 1;
  std::vector<std::vector<auction::seller_profile>> sellers;
  for (const auto& region : setup.input.regions) {
    sellers.push_back(region.sellers);
  }
  market::marketplace mkt(topo, std::move(sellers), options);

  market::ingest_config icfg = setup.icfg;
  icfg.threads = threads;
  auction::regional_instance standing;
  for (const auto& region : setup.input.regions) {
    standing.regions.push_back(region.rounds.front());
  }
  market::round_ingestor ingestor(icfg, std::move(standing));
  workload::generator gen(setup.wcfg);

  std::vector<workload::request> batch;
  std::vector<double> demand(icfg.microservices);
  market::marketplace_round result;
  std::vector<std::uint64_t> digest;
  for (std::size_t t = 0; t < kRounds; ++t) {
    gen.round_into(static_cast<double>(t), 1.0, batch);
    std::fill(demand.begin(), demand.end(), 0.0);
    for (const workload::request& q : batch) {
      demand[q.microservice] += q.service_demand;
    }
    ingestor.add_demands(demand);
    mkt.run_round(ingestor.finalize(), result);
    digest_round(result, digest);
  }
  return digest;
}

TEST(MarketScale, StreamedHorizonByteIdenticalAcrossThreadCounts) {
  const scale_setup setup = build_setup();
  const std::vector<std::uint64_t> serial = run_horizon(setup, 1);
  EXPECT_FALSE(serial.empty());
  for (const std::size_t threads : {std::size_t{2},
                                    std::size_t{std::thread::hardware_concurrency()},
                                    std::size_t{0}}) {
    const std::vector<std::uint64_t> other = run_horizon(setup, threads);
    EXPECT_EQ(serial, other) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ecrs
