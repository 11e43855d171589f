// Unit and property tests for SSAM (Algorithm 1): greedy selection,
// payments, feasibility, the dual certificate, Theorem 2/3 behaviour, and
// the allocation-free steady-state critical-value call.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>

#include "auction/compiled.h"
#include "auction/exact.h"
#include "auction/instance_gen.h"
#include "auction/msoa.h"
#include "auction/properties.h"
#include "auction/ssam.h"
#include "common/check.h"
#include "common/checkpoint.h"
#include "common/rng.h"
#include "common/statistics.h"

namespace {

// Process-wide allocation counter: every operator new in this test binary
// bumps it. Reads around a call count that call's allocations.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// The replacements stay out of line: inlined into a caller, they would show
// the optimizer malloc() on one side and free() on the other of a pair it
// otherwise knows as operator new / operator delete, and gcc would report
// the pair as mismatched (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ecrs::auction {
namespace {

bid make_bid(seller_id s, std::vector<demander_id> cover, units amount,
             double price, std::uint32_t j = 0) {
  bid b;
  b.seller = s;
  b.index = j;
  b.coverage = std::move(cover);
  b.amount = amount;
  b.price = price;
  return b;
}

single_stage_instance two_seller_instance() {
  // One demander needing 4 units; seller 0 offers 4 units at 10, seller 1
  // offers 4 units at 12.
  single_stage_instance inst;
  inst.requirements = {4};
  inst.bids = {make_bid(0, {0}, 4, 10.0), make_bid(1, {0}, 4, 12.0)};
  return inst;
}

// ---------------------------------------------------------------- selection

TEST(GreedySelection, PicksCheapestSufficientBid) {
  const auto inst = two_seller_instance();
  const auto winners = greedy_selection(inst);
  ASSERT_EQ(winners.size(), 1u);
  EXPECT_EQ(winners[0], 0u);
}

TEST(GreedySelection, CombinesSellersWhenNeeded) {
  single_stage_instance inst;
  inst.requirements = {6};
  inst.bids = {make_bid(0, {0}, 4, 8.0), make_bid(1, {0}, 4, 9.0),
               make_bid(2, {0}, 4, 20.0)};
  const auto winners = greedy_selection(inst);
  ASSERT_EQ(winners.size(), 2u);
  EXPECT_EQ(winners[0], 0u);
  EXPECT_EQ(winners[1], 1u);
}

TEST(GreedySelection, AtMostOneBidPerSeller) {
  single_stage_instance inst;
  inst.requirements = {8};
  // Seller 0's two bids are both attractive, but only one may win.
  inst.bids = {make_bid(0, {0}, 4, 1.0, 0), make_bid(0, {0}, 4, 1.1, 1),
               make_bid(1, {0}, 4, 10.0), make_bid(2, {0}, 4, 12.0)};
  const auto winners = greedy_selection(inst);
  std::set<seller_id> sellers;
  for (std::size_t idx : winners) {
    EXPECT_TRUE(sellers.insert(inst.bids[idx].seller).second);
  }
  EXPECT_TRUE(selection_feasible(inst, winners));
}

TEST(GreedySelection, PrefersCostEffectivenessNotPrice) {
  single_stage_instance inst;
  inst.requirements = {10};
  // Bid A: price 10 for 10 units (ratio 1.0); bid B: price 5 for 2 units
  // (ratio 2.5). Greedy must take A first despite its higher price.
  inst.bids = {make_bid(0, {0}, 10, 10.0), make_bid(1, {0}, 2, 5.0)};
  const auto winners = greedy_selection(inst);
  ASSERT_EQ(winners.size(), 1u);
  EXPECT_EQ(winners[0], 0u);
}

TEST(GreedySelection, StopsWhenNothingHelps) {
  single_stage_instance inst;
  inst.requirements = {100};
  inst.bids = {make_bid(0, {0}, 4, 1.0)};
  const auto winners = greedy_selection(inst);
  EXPECT_EQ(winners.size(), 1u);  // partial coverage, then no candidate left
}

TEST(GreedySelection, MultiDemanderCoverage) {
  single_stage_instance inst;
  inst.requirements = {2, 2, 2};
  inst.bids = {make_bid(0, {0, 1, 2}, 2, 9.0),  // covers everything: ratio 1.5
               make_bid(1, {0}, 2, 2.0),        // ratio 1.0
               make_bid(2, {1, 2}, 2, 10.0)};   // ratio 2.5
  const auto winners = greedy_selection(inst);
  // Bid 1 first (ratio 1.0), then bid 0 covers the rest (remaining 4 units,
  // ratio 2.25) beats bid 2 (ratio 2.5).
  ASSERT_EQ(winners.size(), 2u);
  EXPECT_EQ(winners[0], 1u);
  EXPECT_EQ(winners[1], 0u);
}

// ----------------------------------------------------------------- run_ssam

TEST(RunSsam, FeasibleOutcomeOnSatisfiableInstance) {
  const auto inst = two_seller_instance();
  const auto res = run_ssam(inst);
  EXPECT_TRUE(res.feasible);
  EXPECT_DOUBLE_EQ(res.social_cost, 10.0);
  ASSERT_EQ(res.winners.size(), 1u);
  EXPECT_EQ(res.winners[0].utility_at_selection, 4);
  EXPECT_DOUBLE_EQ(res.winners[0].ratio_at_selection, 2.5);
}

TEST(RunSsam, RunnerUpPaymentIsSecondRatioTimesUtility) {
  const auto inst = two_seller_instance();
  const auto res = run_ssam(inst);
  // Runner-up ratio = 12/4 = 3; payment = 4 * 3 = 12.
  ASSERT_EQ(res.winners.size(), 1u);
  EXPECT_DOUBLE_EQ(res.winners[0].payment, 12.0);
  EXPECT_DOUBLE_EQ(res.total_payment, 12.0);
}

TEST(RunSsam, NoCompetitionFallsBackToPayAsBid) {
  single_stage_instance inst;
  inst.requirements = {4};
  inst.bids = {make_bid(0, {0}, 4, 10.0)};
  const auto res = run_ssam(inst);
  ASSERT_EQ(res.winners.size(), 1u);
  EXPECT_DOUBLE_EQ(res.winners[0].payment, 10.0);
}

TEST(RunSsam, InfeasibleInstanceFlagged) {
  single_stage_instance inst;
  inst.requirements = {100};
  inst.bids = {make_bid(0, {0}, 1, 1.0)};
  const auto res = run_ssam(inst);
  EXPECT_FALSE(res.feasible);
}

TEST(RunSsam, EmptyRequirementsSelectNothing) {
  single_stage_instance inst;
  inst.requirements = {0, 0};
  inst.bids = {make_bid(0, {0}, 1, 1.0)};
  const auto res = run_ssam(inst);
  EXPECT_TRUE(res.feasible);
  EXPECT_TRUE(res.winners.empty());
  EXPECT_DOUBLE_EQ(res.social_cost, 0.0);
}

TEST(RunSsam, CriticalValueRuleMatchesThresholdSemantics) {
  const auto inst = two_seller_instance();
  ssam_options opts;
  opts.rule = payment_rule::critical_value;
  const auto res = run_ssam(inst, opts);
  ASSERT_EQ(res.winners.size(), 1u);
  // The winner keeps winning up to price 12 (where seller 1 ties).
  EXPECT_NEAR(res.winners[0].payment, 12.0, 1e-6);
}

TEST(RunSsam, ValidatesInstance) {
  single_stage_instance inst;
  inst.requirements = {1};
  inst.bids = {make_bid(0, {0}, 1, -3.0)};
  EXPECT_THROW(run_ssam(inst), check_error);

  // A negative and a NaN price: every entry point must reject the instance
  // instead of selecting (or pricing) the invalid bids.
  single_stage_instance bad_prices;
  bad_prices.requirements = {2, 2};
  bad_prices.bids = {make_bid(0, {0}, 2, -5.0), make_bid(1, {0, 1}, 2, 4.0),
                     make_bid(2, {1}, 2, std::nan(""))};
  EXPECT_THROW((void)greedy_selection(bad_prices), check_error);
  EXPECT_THROW((void)eager_greedy_selection(bad_prices), check_error);
  EXPECT_THROW((void)wins_with_price(bad_prices, 0, 1.0), check_error);
  EXPECT_THROW((void)critical_value_payment(bad_prices, 0), check_error);

  // A coverage id past the requirement vector.
  single_stage_instance bad_coverage;
  bad_coverage.requirements = {2};
  bad_coverage.bids = {make_bid(0, {0}, 2, 1.0), make_bid(1, {0, 7}, 2, 2.0)};
  EXPECT_THROW((void)eager_greedy_selection(bad_coverage), check_error);
}

// --------------------------------------------------------- wins_with_price

TEST(WinsWithPrice, MonotoneInReport) {
  const auto inst = two_seller_instance();
  EXPECT_TRUE(wins_with_price(inst, 0, 10.0));
  EXPECT_TRUE(wins_with_price(inst, 0, 11.9));
  EXPECT_FALSE(wins_with_price(inst, 0, 12.5));
  // The other bid wins once bid 0 prices itself out.
  EXPECT_TRUE(wins_with_price(inst, 1, 9.0));
}

TEST(CriticalValuePayment, ThrowsForLosingBid) {
  const auto inst = two_seller_instance();
  EXPECT_THROW(critical_value_payment(inst, 1), check_error);
}

TEST(CriticalValuePayment, BinarySearchConverges) {
  const auto inst = two_seller_instance();
  const double cv = critical_value_payment(inst, 0);
  EXPECT_NEAR(cv, 12.0, 1e-6);
  EXPECT_TRUE(wins_with_price(inst, 0, cv - 1e-4));
  EXPECT_FALSE(wins_with_price(inst, 0, cv + 1e-4));
}

// ----------------------------------------------------- dual certificate

TEST(DualCertificate, SharesSumToSocialCost) {
  rng gen(5);
  instance_config cfg;
  cfg.sellers = 10;
  cfg.demanders = 3;
  const auto inst = random_instance(cfg, gen);
  const auto res = run_ssam(inst);
  double share_sum = 0.0;
  for (double f : res.unit_shares) share_sum += f;
  EXPECT_NEAR(share_sum, res.social_cost, 1e-6);
}

TEST(DualCertificate, DualObjectiveIsWeakLowerBound) {
  rng gen(6);
  instance_config cfg;
  cfg.sellers = 8;
  cfg.demanders = 2;
  const auto inst = random_instance(cfg, gen);
  const auto res = run_ssam(inst);
  const auto ref = solve_exact(inst);
  ASSERT_TRUE(ref.exact);
  ASSERT_TRUE(ref.feasible);
  // Weak duality: dual objective <= OPT <= SSAM cost.
  EXPECT_LE(res.dual_objective, ref.cost + 1e-6);
  EXPECT_LE(ref.cost, res.social_cost + 1e-6);
}

TEST(DualCertificate, XiIsOneWithUniformShares) {
  single_stage_instance inst;
  inst.requirements = {4};
  inst.bids = {make_bid(0, {0}, 4, 10.0), make_bid(1, {0}, 4, 12.0)};
  const auto res = run_ssam(inst);
  EXPECT_DOUBLE_EQ(res.xi, 1.0);  // one winner => uniform shares
}

// --------------------------------------------- Theorem 3 (property sweep)

struct RatioCase {
  std::uint64_t seed;
  std::size_t bids_per_seller;
};

class SsamApproximationRatio : public ::testing::TestWithParam<RatioCase> {};

TEST_P(SsamApproximationRatio, WithinTheorem3Bound) {
  rng gen(GetParam().seed);
  instance_config cfg;
  cfg.sellers = 9;
  cfg.demanders = 3;
  cfg.bids_per_seller = GetParam().bids_per_seller;
  const auto inst = random_instance(cfg, gen);
  const auto res = run_ssam(inst);
  const auto ref = solve_exact(inst);
  ASSERT_TRUE(ref.exact);
  if (!ref.feasible) return;
  ASSERT_TRUE(res.feasible);
  EXPECT_LE(res.social_cost, res.ratio_bound * ref.cost + 1e-6)
      << "ratio " << res.social_cost / ref.cost << " exceeds W*Xi = "
      << res.ratio_bound;
  EXPECT_GE(res.social_cost, ref.cost - 1e-6);  // never beats the optimum
}

std::vector<RatioCase> ratio_cases() {
  std::vector<RatioCase> cases;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    for (std::size_t j : {1u, 2u, 3u}) {
      cases.push_back({seed, j});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SsamApproximationRatio,
                         ::testing::ValuesIn(ratio_cases()));

// ------------------------------------------------ single-bid special case

TEST(SsamSingleBidPerSeller, CloseToOptimalOnSmallInstances) {
  // Theorem 3 remark: with one bid per seller the ratio is W_i (Xi = 1 is
  // not guaranteed, but small instances should be near-optimal).
  running_stats ratios;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    rng gen(seed);
    instance_config cfg;
    cfg.sellers = 5;
    cfg.demanders = 1;
    cfg.bids_per_seller = 1;
    const auto inst = random_instance(cfg, gen);
    const auto res = run_ssam(inst);
    const auto ref = solve_exact(inst);
    if (!ref.feasible || ref.cost <= 0.0) continue;
    ratios.add(res.social_cost / ref.cost);
  }
  ASSERT_GT(ratios.count(), 10u);
  EXPECT_LT(ratios.mean(), 1.35);
  EXPECT_GE(ratios.min(), 1.0 - 1e-9);
}

// ------------------------------------------- compiled-path equivalence

TEST(CompiledEquivalence, EagerReferenceMatchesDefaultOnRandomInstances) {
  // Smoke-level check that the compiled CSR engine and the eager bid-vector
  // oracle agree bit for bit (tests/compiled_fuzz_test.cc is the
  // heavyweight sweep).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    rng gen(seed);
    instance_config cfg;
    cfg.sellers = 30;
    cfg.demanders = 4;
    const auto inst = random_instance(cfg, gen);
    for (const payment_rule rule :
         {payment_rule::runner_up, payment_rule::critical_value}) {
      ssam_options opts;
      opts.rule = rule;
      opts.payment_threads = 1;
      const auto base = run_ssam(inst, opts);

      ssam_options eager_ref = opts;
      eager_ref.eager_reference = true;
      const auto other = run_ssam(inst, eager_ref);
      ASSERT_EQ(base.winners.size(), other.winners.size());
      for (std::size_t pos = 0; pos < base.winners.size(); ++pos) {
        EXPECT_EQ(base.winners[pos].bid_index, other.winners[pos].bid_index);
        EXPECT_EQ(base.winners[pos].payment, other.winners[pos].payment);
      }
      EXPECT_EQ(base.social_cost, other.social_cost);
      EXPECT_EQ(base.total_payment, other.total_payment);
      EXPECT_EQ(base.feasible, other.feasible);
    }
  }
}

// Every output field the compiled-path fuzz compares bit for bit
// (tests/compiled_fuzz_test.cc, expect_same_result), appended in a fixed
// order; doubles go in as their bit patterns.
void digest_result(checkpoint_writer& w, const ssam_result& r) {
  w.size(r.winners.size());
  for (const winning_bid& win : r.winners) {
    w.size(win.bid_index);
    w.f64(win.payment);
    w.i64(win.utility_at_selection);
    w.f64(win.ratio_at_selection);
  }
  w.u8(r.feasible ? 1 : 0);
  w.f64(r.social_cost);
  w.f64(r.total_payment);
  w.size(r.budget_dropped);
  w.size(r.unit_shares.size());
  for (const double f : r.unit_shares) w.f64(f);
  w.f64(r.xi);
  w.f64(r.harmonic);
  w.f64(r.ratio_bound);
}

// Fixed golden digest of the production SSAM outputs: a seeded instance
// set under both payment rules with the budget unlimited and binding, one
// critical-value MSOA horizon, and the wins_with_price verdicts at a ladder
// of report factors. Any change to a winner, a payment bit, the budget
// re-check or a probe verdict changes the constant.
TEST(CompiledEquivalence, MatchesGoldenDigest) {
  constexpr std::uint64_t kGoldenDigest = 0x903b6cd1fa0f8525ULL;
  checkpoint_writer w;
  rng gen(0x601DE9u);
  std::size_t budget_drops = 0;
  for (int trial = 0; trial < 32; ++trial) {
    instance_config cfg;
    cfg.sellers = 4 + gen.uniform_int(0, 30);
    cfg.demanders = 1 + gen.uniform_int(0, 6);
    cfg.bids_per_seller = 1 + gen.uniform_int(0, 3);
    cfg.amount_hi = 1 + gen.uniform_int(0, 9);
    const auto inst = random_instance(cfg, gen);

    ssam_options unlimited;
    unlimited.payment_threads = 1;
    const double runner_up_total = run_ssam(inst, unlimited).total_payment;
    for (const payment_rule rule :
         {payment_rule::runner_up, payment_rule::critical_value}) {
      for (const double budget : {0.0, 0.75 * runner_up_total}) {
        ssam_options opts = unlimited;
        opts.rule = rule;
        opts.payment_budget = budget;
        const auto res = run_ssam(inst, opts);
        budget_drops += res.budget_dropped > 0 ? 1 : 0;
        digest_result(w, res);
      }
    }
    for (std::size_t idx = 0; idx < inst.bids.size(); ++idx) {
      for (const double factor : {0.0, 0.25, 1.0, 4.0, 64.0}) {
        w.u8(wins_with_price(inst, idx, factor * inst.bids[idx].price) ? 1
                                                                       : 0);
      }
    }
  }
  EXPECT_GT(budget_drops, 0u) << "no instance exercised the budget re-check";

  online_config online;
  online.stage.sellers = 12;
  online.stage.demanders = 4;
  online.rounds = 6;
  online.seller_price_bias = 0.2;
  const auto horizon = random_online_instance(online, gen);
  msoa_options msoa;
  msoa.stage.rule = payment_rule::critical_value;
  msoa.stage.payment_threads = 1;
  const auto outcome = run_msoa(horizon, msoa);
  w.size(outcome.rounds.size());
  for (const msoa_round_outcome& round : outcome.rounds) {
    w.u32(round.round);
    w.size(round.admitted_bids);
    for (const std::size_t b : round.winner_bids) w.size(b);
    for (const double p : round.true_prices) w.f64(p);
    for (const double p : round.payments) w.f64(p);
    w.f64(round.social_cost);
    w.u8(round.feasible ? 1 : 0);
    digest_result(w, round.stage);
  }
  w.f64(outcome.social_cost);
  w.f64(outcome.total_payment);
  w.u8(outcome.feasible ? 1 : 0);
  w.f64(outcome.alpha);
  for (const double psi : outcome.psi_final) w.f64(psi);
  for (const units used : outcome.capacity_used) w.i64(used);

  EXPECT_EQ(fnv1a64(w.payload()), kGoldenDigest)
      << std::hex << "digest 0x" << fnv1a64(w.payload());
}

// ------------------------------------------- allocation-free steady state

// The steady-state critical-value call: a pre-compiled view, a warm
// ssam_scratch, the into overload and serial payments run without a heap
// allocation, and the into result is bitwise the value overload's. The
// self-audit is off on both calls, as on the release-build hot path.
TEST(SsamSteadyState, WarmCompiledIntoCallAllocatesNothing) {
  rng gen(1);
  instance_config cfg;
  cfg.sellers = 110;
  cfg.demanders = 5;
  cfg.bids_per_seller = 2;
  const auto inst = random_instance(cfg, gen);
  compiled_instance compiled;
  compiled.compile(inst);

  ssam_options opts;
  opts.rule = payment_rule::critical_value;
  opts.payment_threads = 1;
  opts.self_audit = false;
  ssam_scratch scratch;
  ssam_result into;
  run_ssam(compiled, opts, &scratch, into);  // warm-up: buffers grow once

  constexpr int kCalls = 20;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int call = 0; call < kCalls; ++call) {
    run_ssam(compiled, opts, &scratch, into);
  }
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocations, 0u) << "over " << kCalls << " warm calls";

  ASSERT_TRUE(into.feasible);
  ASSERT_FALSE(into.winners.empty());
  checkpoint_writer from_into;
  digest_result(from_into, into);
  checkpoint_writer from_value;
  digest_result(from_value, run_ssam(inst, opts));
  EXPECT_TRUE(std::ranges::equal(from_into.payload(), from_value.payload()));
}

// --------------------------------------------------------------- runtime

TEST(SsamComplexity, GrowsPolynomially) {
  // Smoke test of Theorem 2: doubling the instance should not explode the
  // runtime; also documents that 400-seller instances stay fast.
  rng gen(77);
  instance_config cfg;
  cfg.sellers = 400;
  cfg.demanders = 5;
  const auto inst = random_instance(cfg, gen);
  const auto res = run_ssam(inst);
  EXPECT_TRUE(res.feasible);
}

}  // namespace
}  // namespace ecrs::auction
