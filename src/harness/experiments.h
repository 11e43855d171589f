// Experiment drivers: one function per paper table/figure (see DESIGN.md §5
// for the experiment index). Bench binaries are thin wrappers that print the
// returned table; integration tests call the same drivers at reduced sizes
// and assert on the shapes the paper reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/table.h"

namespace ecrs::harness {

struct sweep_config {
  std::size_t trials = 5;    // instances averaged per data point
  std::uint64_t seed = 1;    // master seed; every point derives from it
  std::size_t demanders = 5; // |Ŝ|: demanding microservices per round
  // Worker threads for the (point, trial) sweep grid: 0 = shared pool at
  // hardware width, 1 = serial, k = at most k workers. Tables are
  // byte-identical for every setting (see harness/sweep.h).
  std::size_t threads = 0;
};

// --- Figure 3(a): SSAM performance ratio vs number of microservices, for
// J = 1 and J = 2 bids per seller. Denominator: exact optimum (DP/B&B),
// falling back to the LP bound on node-budget exhaustion (column
// `exact_frac` reports the fraction of exactly-solved trials).
[[nodiscard]] table fig3a_ssam_ratio(
    const sweep_config& cfg = {},
    const std::vector<std::size_t>& seller_counts = {5, 10, 15, 25, 40, 55,
                                                     75});

// --- Figure 3(b): SSAM social cost, payment and optimal cost vs number of
// microservices, for request loads 100 and 200 (requirements scaled
// proportionally).
[[nodiscard]] table fig3b_ssam_cost(
    const sweep_config& cfg = {},
    const std::vector<std::size_t>& seller_counts = {25, 35, 45, 55, 65, 75},
    const std::vector<std::size_t>& request_loads = {100, 200});

// --- Figure 4(a): per-winner payment vs actual (bid) price for one default
// round — the individual-rationality scatter.
[[nodiscard]] table fig4a_individual_rationality(std::uint64_t seed = 1,
                                                 std::size_t sellers = 25);

// --- Figure 4(b): SSAM running time vs instance size, for request loads
// 100 and 200.
[[nodiscard]] table fig4b_runtime(
    const sweep_config& cfg = {},
    const std::vector<std::size_t>& seller_counts = {25, 50, 100, 200, 400},
    const std::vector<std::size_t>& request_loads = {100, 200});

// --- Figure 5(a), panel 1: MSOA performance ratio vs number of
// microservices, for the four variants (MSOA, MSOA-DA, MSOA-RC, MSOA-OA).
// Denominator: offline LP lower bound (certified; ratios are upper bounds).
[[nodiscard]] table fig5a_msoa_ratio_vs_sellers(
    const sweep_config& cfg = {},
    const std::vector<std::size_t>& seller_counts = {25, 40, 55, 75},
    std::size_t rounds = 10);

// --- Figure 5(a)/(b), panel 2: MSOA performance ratio vs request load.
[[nodiscard]] table fig5b_msoa_ratio_vs_requests(
    const sweep_config& cfg = {},
    const std::vector<std::size_t>& request_loads = {50, 100, 150, 200, 250},
    std::size_t sellers = 25, std::size_t rounds = 10);

// --- Figure 6(a): MSOA performance ratio vs number of rounds T, for
// J ∈ {1, 2, 4} bids per seller.
[[nodiscard]] table fig6a_rounds_bids(
    const sweep_config& cfg = {},
    const std::vector<std::size_t>& round_counts = {1, 3, 5, 7, 9, 11, 13, 15},
    const std::vector<std::size_t>& bids_per_seller = {1, 2, 4},
    std::size_t sellers = 25);

// --- Figure 6(b): MSOA social cost, payment and offline bound vs number of
// microservices for request loads 100 and 200.
[[nodiscard]] table fig6b_msoa_cost(
    const sweep_config& cfg = {},
    const std::vector<std::size_t>& seller_counts = {25, 35, 45, 55, 65, 75},
    const std::vector<std::size_t>& request_loads = {100, 200},
    std::size_t rounds = 10);

// --- §V-A setup validation: the full pipeline (workload generator → edge
// cluster queueing → demand estimator), one row per round, showing that the
// estimated demand tracks queue pressure.
[[nodiscard]] table demand_estimation_pipeline(std::uint64_t seed = 1,
                                               std::size_t rounds = 12,
                                               std::size_t users = 300,
                                               std::size_t microservices = 25,
                                               std::size_t clouds = 10);

// --- §III demand estimation driven event-accurately
// (edge::cluster::deliver_round): requests hit the queues at their exact
// arrival instants, in arrival order, instead of as a round-start batch. Trials
// fan over the sweep grid; one row per round with trial-averaged
// observables.
[[nodiscard]] table demand_estimation_event_driven(
    const sweep_config& cfg = {}, std::size_t rounds = 12,
    std::size_t users = 300, std::size_t microservices = 25,
    std::size_t clouds = 10);

// --- Theorem 3 / Theorem 7 ablation: measured ratios against the proven
// bounds W·Ξ (single-stage) and αβ/(β−1) (online).
[[nodiscard]] table ablation_bounds(
    const sweep_config& cfg = {},
    const std::vector<std::size_t>& bids_per_seller = {1, 2, 4});

// --- Ablation of MSOA's capacity-aware price scaling: the same
// tight-capacity markets run with the ψ-scaling active (Algorithm 2) and
// with it neutralized (α → ∞ makes ∇ = J, a myopic per-round SSAM).
// Expected: scaling lowers long-run social cost and leaves fewer rounds
// starved by early capacity depletion.
[[nodiscard]] table ablation_scaling(
    const sweep_config& cfg = {},
    const std::vector<std::size_t>& round_counts = {6, 10, 14},
    std::size_t sellers = 25);

// --- Mechanism comparison: SSAM under both payment rules, budgeted SSAM,
// reserve-price VCG, pay-as-bid and random selection — efficiency (social
// cost vs the exact optimum) against frugality (total payments).
[[nodiscard]] table payment_rules(
    const sweep_config& cfg = {}, std::size_t sellers = 12);

// --- §I motivation: auction vs posted-price repurchasing. Posted prices
// sweep a multiplier of the mean unit cost; the auction needs no tuning.
[[nodiscard]] table baseline_comparison(
    const sweep_config& cfg = {},
    const std::vector<double>& price_multipliers = {0.5, 0.75, 1.0, 1.5, 2.0,
                                                    3.0});

// --- Sharded multi-region marketplace (DESIGN.md §12): one SSAM/MSOA shard
// per edge cloud region on a ring backhaul, demand over-scaled past local
// supply so the spillover stage has cross-region work every round. One row
// per round: totals, spillover traffic and unmet demand. The table is
// byte-identical at any `threads` setting (tests/market_test enforces it).
struct marketplace_config {
  std::size_t regions = 10;
  std::size_t rounds = 5;
  std::size_t sellers_per_region = 8;
  std::size_t demanders_per_region = 4;
  // Post-clamp demand multiplier (> 1 leaves deficits only neighboring
  // regions can cover; see auction::regional_config::demand_scale).
  double demand_scale = 1.25;
  std::uint64_t seed = 1;
  // Shard fan-out width: 0 = shared pool at hardware width, 1 = serial,
  // k = at most k workers.
  std::size_t threads = 0;
};

[[nodiscard]] table marketplace_rounds(const marketplace_config& cfg = {});

}  // namespace ecrs::harness
