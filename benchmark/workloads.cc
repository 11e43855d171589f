#include "workloads.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "auction/instance_gen.h"
#include "harness/internal.h"

namespace ecrs_bench {

namespace auction = ecrs::auction;

constexpr std::uint32_t kSellers = 8;  // per region, every workload
// Seeds the standing bids and the cluster placement. Drawn from --seed
// instead, they moved cost_per_unit by 20% between seeds, so the quality
// metrics measured the draw rather than the mechanism.
constexpr std::uint64_t kMarketSeed = 1;

workload_spec find_workload(const std::string& name) {
  workload_spec w;
  w.name = name;
  if (name == "stream") {
    // 32 microservices, ≈ 50k requests per round: generation and DES
    // delivery dominate, the market is under 1% of the round.
    w.regions = 8;
    w.demanders = 4;
    w.users = 3333;
    w.quality_rounds = 2000;
  } else if (name == "market") {
    // 10,000 microservices, ≈ 1k requests per round: the shard fan-out,
    // spillover, estimator and ingestion dominate, and spillover is live.
    w.regions = 100;
    w.demanders = 100;
    w.users = 66;
    w.unit_demand = 0.01;
    w.demand_scale = 1.5;
    w.quality_rounds = 8000;
  } else if (name == "flash") {
    // 512 microservices, ≈ 20k requests per round, ×4 bursts for 2 rounds
    // in every 50: the tail is set by the bursts and their queues.
    w.regions = 32;
    w.demanders = 16;
    w.users = 1333;
    w.flash_every = 50;
    w.quality_rounds = 4000;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (stream, market, flash)");
  }
  return w;
}

ecrs::simrun::daemon_setup build_setup(const workload_spec& spec,
                                       std::uint64_t seed,
                                       std::size_t threads) {
  auction::online_config stage;
  stage.stage = ecrs::harness::internal::paper_stage(kSellers, spec.demanders,
                                                     2);
  stage.rounds = 1;  // only the standing (round 1) bid sets are used
  auction::regional_config regional;
  regional.regions = spec.regions;
  ecrs::rng gen = ecrs::harness::internal::point_rng(kMarketSeed, 14, 0, 0);
  auction::regional_online_instance input =
      auction::random_regional_online_instance(stage, regional, gen);

  ecrs::simrun::daemon_setup s;
  s.topology = ecrs::edge::topology::ring(spec.regions);
  s.standing.regions.reserve(spec.regions);
  s.sellers.reserve(spec.regions);
  for (auto& region : input.regions) {
    s.standing.regions.push_back(region.rounds.front());
    for (auction::seller_profile& p : region.sellers) {
      // Widen the one-round window and budget so the market stays live
      // over the whole horizon.
      p.capacity *= 1000000;
      p.t_arrive = 1;
      p.t_depart = 0x7fffffffu;
    }
    s.sellers.push_back(std::move(region.sellers));
  }
  // A demander no standing bid covers gets a requirement of 0 every round
  // and its queue grows without bound. Give every demander at least three
  // covering sellers, round-robin so the augmentation is deterministic; a
  // seller's bids share one coverage set, so extend all of them.
  constexpr std::uint32_t kMinCover = 3;
  for (auto& inst : s.standing.regions) {
    const std::size_t nd = inst.requirements.size();
    const std::size_t ns = kSellers;
    std::vector<std::vector<std::size_t>> bids_of(ns);
    std::vector<std::vector<char>> covers(ns, std::vector<char>(nd, 0));
    for (std::size_t b = 0; b < inst.bids.size(); ++b) {
      const auction::bid& bd = inst.bids[b];
      bids_of[bd.seller].push_back(b);
      for (const auction::demander_id k : bd.coverage) covers[bd.seller][k] = 1;
    }
    for (std::size_t k = 0; k < nd; ++k) {
      std::uint32_t have = 0;
      for (std::size_t i = 0; i < ns; ++i) have += covers[i][k] != 0 ? 1u : 0u;
      std::size_t si = k % ns;
      for (std::size_t tries = 0; have < kMinCover && tries < ns; ++tries) {
        if (!covers[si][k] && !bids_of[si].empty()) {
          const auto id = static_cast<auction::demander_id>(k);
          for (const std::size_t b : bids_of[si]) {
            auto& cov = inst.bids[b].coverage;
            cov.insert(std::lower_bound(cov.begin(), cov.end(), id), id);
          }
          covers[si][k] = 1;
          ++have;
        }
        si = (si + 1) % ns;
      }
    }
  }

  const std::uint32_t services = spec.regions * spec.demanders;
  s.workload.users = spec.users;
  s.workload.microservices = services;
  s.workload.regions = spec.regions;
  s.workload.seed = seed;
  s.cluster.clouds = spec.regions;
  s.cluster.seed = kMarketSeed ^ 0xc0ffeeULL;
  s.estimator = ecrs::demand::make_default_config();
  s.estimator.round_duration = 600.0;
  s.ingest.regions = spec.regions;
  s.ingest.microservices = services;
  s.ingest.unit_demand = spec.unit_demand;
  s.ingest.max_requirement = stage.stage.requirement_hi;
  s.ingest.supply_margin = stage.stage.supply_margin;
  s.ingest.demand_scale = spec.demand_scale;
  s.ingest.threads = 1;
  s.market.threads = threads;
  s.market.shard.session.stage.payment_threads = 1;
  s.market.spillover.stage.payment_threads = 1;
  s.config.round_duration = 600.0;
  s.config.resources_per_unit = spec.unit_demand;
  s.config.scenario.diurnal_amplitude = 0.25;
  s.config.scenario.diurnal_period = 96;  // one "day" of 10-minute rounds
  s.config.scenario.churn_every = 97;     // co-prime with the period
  s.config.scenario.churn_downtime = 23;
  s.config.scenario.flash_every = spec.flash_every;
  s.config.scenario.flash_duration = 2;
  s.config.scenario.flash_factor = 4.0;
  return s;
}

std::uint64_t round_digest(const ecrs::market::marketplace_round& round,
                           std::span<const double> estimates,
                           std::span<const auction::units> grants,
                           ecrs::checkpoint_writer& w) {
  w.clear();
  w.u32(round.round);
  for (const auto& shard : round.shards) {
    w.size(shard.outcome.winner_bids.size());
    for (const std::size_t b : shard.outcome.winner_bids) w.size(b);
    for (const double p : shard.outcome.payments) w.f64(p);
    w.f64(shard.outcome.social_cost);
    w.i64(shard.deficit);
  }
  w.size(round.spillover.awards.size());
  for (const auto& award : round.spillover.awards) {
    w.u32(award.demand_region);
    w.u32(award.seller);
    w.i64(award.amount);
    w.f64(award.payment);
  }
  w.f64(round.social_cost);
  w.f64(round.total_payment);
  w.i64(round.unmet_units);
  for (const double e : estimates) w.f64(e);
  for (const auction::units g : grants) w.i64(g);
  return ecrs::fnv1a64(w.payload());
}

}  // namespace ecrs_bench
