// Edge marketplace: the full paper pipeline, end to end.
//
//   workload generator  →  edge cluster queueing  →  demand estimation (§III)
//        →  per-round auction via msoa_session (§IV)  →  reallocation
//
// Every auction round:
//  1. users flood the cluster with Poisson request batches;
//  2. each microservice's queueing observables feed the demand estimator;
//  3. starved microservices become demanders (their estimated demand X_i^t
//     is the multi-cover requirement), underloaded microservices become
//     sellers bidding their spare allocation — to colocated demanders
//     first, falling back to the neediest remote ones over the backhaul
//     network that connects all edge clouds (§II);
//  4. the MSOA session runs SSAM on capacity/ψ-scaled prices, winners are
//     paid, and the platform moves the sold resources to the demanders.
//
// The run prints a per-round summary and closes with the mechanism totals.
//
//   ./build/examples/edge_marketplace [--rounds=N] [--seed=N] [--users=N]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "auction/msoa.h"
#include "common/flags.h"
#include "common/rng.h"
#include "demand/estimator.h"
#include "edge/cluster.h"
#include "edge/topology.h"
#include "workload/generator.h"

namespace {

struct marketplace_config {
  std::size_t rounds = 8;
  std::uint64_t seed = 1;
  std::uint32_t users = 120;
  std::uint32_t microservices = 20;
  std::uint32_t clouds = 5;
  double round_duration = 600.0;  // paper: 10 minutes
};

// A microservice is starved when it ends the round with queued work, and a
// seller when it ran well below capacity.
constexpr double kStarvedBacklog = 5.0;     // resource-seconds
constexpr double kSellerUtilization = 0.85;  // busy fraction

}  // namespace

int main(int argc, char** argv) {
  using namespace ecrs;
  const flags f(argc, argv);
  marketplace_config cfg;
  cfg.rounds = static_cast<std::size_t>(f.get_int("rounds", 8));
  cfg.seed = static_cast<std::uint64_t>(f.get_int("seed", 1));
  cfg.users = static_cast<std::uint32_t>(f.get_int("users", 120));

  // --- substrate ---------------------------------------------------------
  workload::generator_config wcfg;
  wcfg.users = cfg.users;
  wcfg.microservices = cfg.microservices;
  wcfg.seed = cfg.seed;
  workload::generator traffic(wcfg);

  edge::cluster_config ccfg;
  ccfg.clouds = cfg.clouds;
  // Slightly above the mean load so imbalance, not raw shortage, drives the
  // market (cf. DESIGN.md).
  const double expected_work = static_cast<double>(cfg.users) *
                               (wcfg.sensitive_mean + wcfg.tolerant_mean);
  ccfg.capacity_per_cloud =
      1.4 * expected_work / cfg.round_duration / cfg.clouds;
  ccfg.seed = cfg.seed ^ 0xeadbeefULL;
  edge::cluster cluster(ccfg, traffic.classes());
  // Backhaul ring between the edge clouds (§II); remote help pays a
  // per-unit transfer surcharge proportional to the path latency.
  const edge::topology backhaul = edge::topology::ring(cfg.clouds, 2.0);
  constexpr double kTransferCostPerMs = 0.4;

  demand::estimator estimator(demand::make_default_config());

  // --- market ------------------------------------------------------------
  // Every microservice may sell over the whole horizon; its capacity Θ is
  // its participation budget in coverage units.
  std::vector<auction::seller_profile> profiles(cfg.microservices);
  for (auto& p : profiles) {
    p.capacity = static_cast<auction::units>(2 * cfg.rounds);
    p.t_arrive = 1;
    p.t_depart = static_cast<std::uint32_t>(cfg.rounds);
  }
  auction::msoa_session market(profiles);
  rng pricing(cfg.seed ^ 0x5157ULL);

  double total_cost = 0.0;
  double total_paid = 0.0;
  double unmet_units = 0.0;
  std::printf(
      "round | arrivals | starved | sellers | bought | paid    | unmet\n");

  double now = 0.0;
  for (std::size_t r = 1; r <= cfg.rounds; ++r) {
    const auto batch = traffic.round(now, cfg.round_duration);
    cluster.allocate_fair(cfg.round_duration);
    cluster.route(batch);
    cluster.advance(now, cfg.round_duration);
    const auto stats = cluster.end_round(r, cfg.round_duration);
    const auto estimates = estimator.estimate_round(stats);

    // Build the auction round from the cluster state.
    auction::single_stage_instance round;
    std::vector<std::uint32_t> demander_service;  // demander id -> service
    std::map<std::uint32_t, std::vector<auction::demander_id>>
        demanders_on_cloud;
    for (std::size_t s = 0; s < stats.size(); ++s) {
      if (stats[s].backlog_work > kStarvedBacklog) {
        const auto k =
            static_cast<auction::demander_id>(round.requirements.size());
        // Estimated demand, at least one unit.
        round.requirements.push_back(static_cast<auction::units>(
            std::max(1.0, std::ceil(estimates[s]))));
        demander_service.push_back(stats[s].microservice);
        demanders_on_cloud[cluster.cloud_of(stats[s].microservice)]
            .push_back(k);
      }
    }
    std::size_t seller_count = 0;
    if (!round.requirements.empty()) {
      for (std::size_t s = 0; s < stats.size(); ++s) {
        if (stats[s].backlog_work > kStarvedBacklog) continue;
        if (stats[s].utilization > kSellerUtilization) continue;
        const auto cloud = cluster.cloud_of(stats[s].microservice);
        // Prefer colocated demanders; otherwise help the two neediest ones
        // across the backhaul.
        std::vector<auction::demander_id> coverage;
        const auto it = demanders_on_cloud.find(cloud);
        if (it != demanders_on_cloud.end()) {
          coverage = it->second;
        } else {
          std::vector<auction::demander_id> order(round.requirements.size());
          for (auction::demander_id k = 0; k < order.size(); ++k) order[k] = k;
          std::sort(order.begin(), order.end(),
                    [&](auction::demander_id a, auction::demander_id b2) {
                      return round.requirements[a] > round.requirements[b2];
                    });
          order.resize(std::min<std::size_t>(2, order.size()));
          std::sort(order.begin(), order.end());
          coverage = order;
        }
        // Spare resources over the next round, in whole units.
        const double spare =
            stats[s].allocation * (1.0 - stats[s].utilization);
        const auto amount = static_cast<auction::units>(
            std::max(1.0, std::floor(4.0 * spare)));
        ++seller_count;
        // The seller's true cost includes moving the resources over the
        // backhaul to the farthest covered demander.
        double worst_transfer = 0.0;
        for (auction::demander_id k : coverage) {
          const auto remote = cluster.cloud_of(demander_service[k]);
          worst_transfer = std::max(
              worst_transfer,
              backhaul.transfer_cost(cloud, remote, kTransferCostPerMs));
        }
        // Two alternative offers with private (truthful) costs in the
        // paper's U[10,35] price band, the bigger one dearer.
        for (std::uint32_t j = 0; j < 2; ++j) {
          auction::bid b;
          b.seller = stats[s].microservice;
          b.index = j;
          b.coverage = coverage;
          b.amount = std::max<auction::units>(1, amount - j);
          b.price = pricing.uniform_real(10.0, 35.0) *
                        (1.0 + 0.1 * static_cast<double>(b.amount)) +
                    worst_transfer * static_cast<double>(b.amount);
          round.bids.push_back(std::move(b));
        }
      }
    }

    // Run the mechanism and apply the reallocation.
    const auto outcome = market.run_round(round);
    double bought = 0.0;
    for (std::size_t w = 0; w < outcome.winner_bids.size(); ++w) {
      const auction::bid& b = round.bids[outcome.winner_bids[w]];
      const double moved = static_cast<double>(b.amount) / 4.0;
      cluster.adjust_allocation(b.seller, -moved);
      for (auction::demander_id k : b.coverage) {
        cluster.adjust_allocation(
            demander_service[k],
            moved / static_cast<double>(b.coverage.size()));
      }
      bought += static_cast<double>(b.amount);
      total_paid += outcome.payments[w];
    }
    total_cost += outcome.social_cost;
    // Unmet demand units (rounds where supply could not cover everything).
    auction::coverage_state state(round.requirements);
    for (std::size_t idx : outcome.winner_bids) state.apply(round.bids[idx]);
    unmet_units += static_cast<double>(state.deficit());

    std::printf("%5zu | %8zu | %7zu | %7zu | %6.0f | %7.1f | %5lld\n", r,
                batch.size(), round.requirements.size(), seller_count, bought,
                outcome.social_cost, static_cast<long long>(state.deficit()));
    now += cfg.round_duration;
  }

  std::printf(
      "\ntotals: social cost %.1f, payments %.1f (overhead %.1f%%), unmet "
      "units %.0f\n",
      total_cost, total_paid,
      total_cost > 0.0 ? 100.0 * (total_paid - total_cost) / total_cost : 0.0,
      unmet_units);
  std::printf("online guarantee: alpha=%.2f beta=%.2f -> cost <= %.2f x OPT\n",
              market.alpha(), market.beta(), market.competitive_bound());
  return 0;
}
