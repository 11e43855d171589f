// Determinism guarantees of the parallel sweep engine and the reusable SSAM
// workspace:
//  - every ported experiment driver emits a byte-identical table for any
//    thread count (the ISSUE/acceptance gate for harness::sweep_runner);
//  - run_ssam / greedy_selection results are bit-identical with a fresh
//    workspace, a persistent (dirty) workspace, and no workspace at all.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "auction/instance_gen.h"
#include "auction/msoa.h"
#include "auction/ssam.h"
#include "common/rng.h"
#include "common/table.h"
#include "harness/experiments.h"
#include "harness/internal.h"

namespace ecrs {
namespace {

std::vector<std::size_t> thread_counts() {
  std::vector<std::size_t> counts{1, 2};
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw > 2) counts.push_back(hw);
  counts.push_back(0);  // shared pool at hardware width
  return counts;
}

harness::sweep_config tiny(std::size_t threads) {
  harness::sweep_config cfg;
  cfg.trials = 3;
  cfg.seed = 17;
  cfg.demanders = 3;
  cfg.threads = threads;
  return cfg;
}

// ------------------------------------------------- drivers, all thread counts

TEST(SweepDeterminism, Fig3aByteIdentical) {
  const std::string serial =
      harness::fig3a_ssam_ratio(tiny(1), {5, 8}).to_csv();
  for (const std::size_t t : thread_counts()) {
    EXPECT_EQ(harness::fig3a_ssam_ratio(tiny(t), {5, 8}).to_csv(), serial)
        << "threads=" << t;
  }
}

TEST(SweepDeterminism, Fig3bByteIdentical) {
  const std::string serial =
      harness::fig3b_ssam_cost(tiny(1), {5, 8}, {100, 200}).to_csv();
  for (const std::size_t t : thread_counts()) {
    EXPECT_EQ(harness::fig3b_ssam_cost(tiny(t), {5, 8}, {100, 200}).to_csv(),
              serial)
        << "threads=" << t;
  }
}

TEST(SweepDeterminism, Fig4bDeterministicColumnsIdentical) {
  // runtime_ms_* are wall-clock; only the deterministic columns must match.
  const auto deterministic_part = [](const table& t) {
    std::string out;
    for (std::size_t r = 0; r < t.rows(); ++r) {
      out += std::to_string(t.number_at(r, 0)) + "," +
             std::to_string(t.number_at(r, 1)) + "," +
             std::to_string(t.number_at(r, 4)) + "," +
             std::to_string(t.number_at(r, 5)) + "\n";
    }
    return out;
  };
  const std::string serial =
      deterministic_part(harness::fig4b_runtime(tiny(1), {5, 8}, {100}));
  for (const std::size_t t : thread_counts()) {
    EXPECT_EQ(
        deterministic_part(harness::fig4b_runtime(tiny(t), {5, 8}, {100})),
        serial)
        << "threads=" << t;
  }
}

TEST(SweepDeterminism, Fig5aByteIdentical) {
  const std::string serial =
      harness::fig5a_msoa_ratio_vs_sellers(tiny(1), {6}, 3).to_csv();
  for (const std::size_t t : thread_counts()) {
    EXPECT_EQ(harness::fig5a_msoa_ratio_vs_sellers(tiny(t), {6}, 3).to_csv(),
              serial)
        << "threads=" << t;
  }
}

TEST(SweepDeterminism, Fig5bByteIdentical) {
  const std::string serial =
      harness::fig5b_msoa_ratio_vs_requests(tiny(1), {100, 200}, 6, 3)
          .to_csv();
  for (const std::size_t t : thread_counts()) {
    EXPECT_EQ(
        harness::fig5b_msoa_ratio_vs_requests(tiny(t), {100, 200}, 6, 3)
            .to_csv(),
        serial)
        << "threads=" << t;
  }
}

TEST(SweepDeterminism, Fig6aByteIdentical) {
  const std::string serial =
      harness::fig6a_rounds_bids(tiny(1), {2, 3}, {1, 2}, 6).to_csv();
  for (const std::size_t t : thread_counts()) {
    EXPECT_EQ(harness::fig6a_rounds_bids(tiny(t), {2, 3}, {1, 2}, 6).to_csv(),
              serial)
        << "threads=" << t;
  }
}

TEST(SweepDeterminism, Fig6bByteIdentical) {
  const std::string serial =
      harness::fig6b_msoa_cost(tiny(1), {6}, {100, 200}, 3).to_csv();
  for (const std::size_t t : thread_counts()) {
    EXPECT_EQ(harness::fig6b_msoa_cost(tiny(t), {6}, {100, 200}, 3).to_csv(),
              serial)
        << "threads=" << t;
  }
}

TEST(SweepDeterminism, AblationBoundsByteIdentical) {
  const std::string serial = harness::ablation_bounds(tiny(1), {1, 2}).to_csv();
  for (const std::size_t t : thread_counts()) {
    EXPECT_EQ(harness::ablation_bounds(tiny(t), {1, 2}).to_csv(), serial)
        << "threads=" << t;
  }
}

TEST(SweepDeterminism, AblationScalingByteIdentical) {
  const std::string serial =
      harness::ablation_scaling(tiny(1), {3, 4}, 6).to_csv();
  for (const std::size_t t : thread_counts()) {
    EXPECT_EQ(harness::ablation_scaling(tiny(t), {3, 4}, 6).to_csv(), serial)
        << "threads=" << t;
  }
}

TEST(SweepDeterminism, BaselineComparisonByteIdentical) {
  const std::string serial =
      harness::baseline_comparison(tiny(1), {0.5, 2.0}).to_csv();
  for (const std::size_t t : thread_counts()) {
    EXPECT_EQ(harness::baseline_comparison(tiny(t), {0.5, 2.0}).to_csv(),
              serial)
        << "threads=" << t;
  }
}

// ------------------------------------------------------ scratch reuse fuzz

void expect_same_result(const auction::ssam_result& a,
                        const auction::ssam_result& b, const char* what) {
  ASSERT_EQ(a.winners.size(), b.winners.size()) << what;
  for (std::size_t w = 0; w < a.winners.size(); ++w) {
    EXPECT_EQ(a.winners[w].bid_index, b.winners[w].bid_index) << what;
    EXPECT_EQ(a.winners[w].payment, b.winners[w].payment) << what;
    EXPECT_EQ(a.winners[w].utility_at_selection,
              b.winners[w].utility_at_selection)
        << what;
    EXPECT_EQ(a.winners[w].ratio_at_selection, b.winners[w].ratio_at_selection)
        << what;
  }
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.social_cost, b.social_cost) << what;
  EXPECT_EQ(a.total_payment, b.total_payment) << what;
  EXPECT_EQ(a.budget_dropped, b.budget_dropped) << what;
  EXPECT_EQ(a.unit_shares, b.unit_shares) << what;
  EXPECT_EQ(a.xi, b.xi) << what;
  EXPECT_EQ(a.ratio_bound, b.ratio_bound) << what;
}

TEST(ScratchReuse, FuzzEquivalentToFreshAllocation) {
  rng gen(2024);
  // One persistent workspace across the whole fuzz run: each call sees the
  // previous call's buffer contents (and sizes), which must never leak into
  // results.
  auction::ssam_scratch persistent;
  for (std::size_t iter = 0; iter < 60; ++iter) {
    const auto sellers = static_cast<std::size_t>(gen.uniform_int(2, 14));
    const auto demanders = static_cast<std::size_t>(gen.uniform_int(1, 6));
    const auto bids = static_cast<std::size_t>(gen.uniform_int(1, 3));
    const auto instance = auction::random_instance(
        harness::internal::paper_stage(sellers, demanders, bids), gen);

    auction::ssam_options opts;
    opts.rule = (iter % 2 == 0) ? auction::payment_rule::critical_value
                                : auction::payment_rule::runner_up;
    if (iter % 5 == 0) opts.payment_budget = 200.0 + 40.0 * (iter % 7);

    const auto fresh = auction::run_ssam(instance, opts, nullptr);
    const auto reused = auction::run_ssam(instance, opts, &persistent);
    expect_same_result(fresh, reused, "run_ssam fresh vs persistent scratch");

    EXPECT_EQ(auction::greedy_selection(instance, nullptr),
              auction::greedy_selection(instance, &persistent));
    EXPECT_EQ(auction::eager_greedy_selection(instance, nullptr),
              auction::eager_greedy_selection(instance, &persistent));
  }
}

TEST(ScratchReuse, MsoaSessionMatchesSerialReference) {
  // run_msoa reuses a session-internal scratch across rounds; re-running the
  // same instance must reproduce itself exactly (the session is fresh each
  // call, so any cross-call difference would implicate the scratch reuse).
  rng gen(7);
  auction::online_config cfg;
  cfg.stage = harness::internal::paper_stage(8, 3, 2);
  cfg.rounds = 4;
  cfg.capacity_lo = 4;
  cfg.capacity_hi = 8;
  const auto truth = auction::random_online_instance(cfg, gen);
  const auto first = auction::run_msoa(truth);
  const auto second = auction::run_msoa(truth);
  ASSERT_EQ(first.rounds.size(), second.rounds.size());
  EXPECT_EQ(first.social_cost, second.social_cost);
  EXPECT_EQ(first.total_payment, second.total_payment);
  EXPECT_EQ(first.psi_final, second.psi_final);
  for (std::size_t r = 0; r < first.rounds.size(); ++r) {
    EXPECT_EQ(first.rounds[r].winner_bids, second.rounds[r].winner_bids);
    EXPECT_EQ(first.rounds[r].payments, second.rounds[r].payments);
  }
}

}  // namespace
}  // namespace ecrs
