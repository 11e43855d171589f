// Cross-mechanism fuzz/stress suite: broad random configurations, every
// solver run on the same instance, and the invariants that tie them
// together. Catches disagreements between the greedy, the exact solvers,
// the LP bound, the payment rules, and the serializers.
#include <gtest/gtest.h>

#include <sstream>

#include "auction/baselines.h"
#include "auction/exact.h"
#include "auction/instance_gen.h"
#include "auction/io.h"
#include "auction/msoa.h"
#include "auction/properties.h"
#include "auction/settlement.h"
#include "auction/ssam.h"
#include "auction/vcg.h"
#include "common/rng.h"

namespace ecrs::auction {
namespace {

instance_config fuzz_config(rng& gen) {
  instance_config cfg;
  cfg.sellers = static_cast<std::size_t>(gen.uniform_int(1, 14));
  cfg.demanders = static_cast<std::size_t>(gen.uniform_int(1, 6));
  cfg.bids_per_seller = static_cast<std::size_t>(gen.uniform_int(1, 4));
  cfg.price_lo = gen.uniform_real(0.0, 5.0);
  cfg.price_hi = cfg.price_lo + gen.uniform_real(0.1, 50.0);
  cfg.requirement_lo = gen.uniform_int(0, 5);
  cfg.requirement_hi = cfg.requirement_lo + gen.uniform_int(0, 40);
  cfg.amount_lo = gen.uniform_int(1, 3);
  cfg.amount_hi = cfg.amount_lo + gen.uniform_int(0, 8);
  cfg.coverage_fraction = gen.uniform_real(0.2, 1.0);
  cfg.supply_margin = gen.uniform_real(0.3, 1.0);
  return cfg;
}

class SingleStageFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SingleStageFuzz, CrossSolverInvariants) {
  rng gen(GetParam() * 2654435761ULL + 17);
  const instance_config cfg = fuzz_config(gen);
  const auto inst = random_instance(cfg, gen);
  ASSERT_NO_THROW(inst.validate());

  // Generator guarantee: every greedy path completes (DESIGN.md §2).
  const auto ssam = run_ssam(inst);
  EXPECT_TRUE(ssam.feasible) << "generator produced a greedy-stranded instance";
  std::vector<std::size_t> winner_indices;
  for (const auto& w : ssam.winners) winner_indices.push_back(w.bid_index);
  EXPECT_TRUE(selection_feasible(inst, winner_indices));

  // IR under both payment rules.
  EXPECT_TRUE(audit_individual_rationality(inst, ssam).ok);
  ssam_options critical;
  critical.rule = payment_rule::critical_value;
  const auto ssam_cv = run_ssam(inst, critical);
  EXPECT_TRUE(audit_individual_rationality(inst, ssam_cv).ok);
  // Both rules select identically (payments differ).
  ASSERT_EQ(ssam.winners.size(), ssam_cv.winners.size());
  for (std::size_t i = 0; i < ssam.winners.size(); ++i) {
    EXPECT_EQ(ssam.winners[i].bid_index, ssam_cv.winners[i].bid_index);
  }

  // The compiled selection must reproduce the eager scan's winner sequence
  // exactly (same order, same tie-breaks), and the full compiled/parallel
  // mechanism must reproduce the serial eager oracle bit-for-bit: same
  // winners, same critical-value payments (the bisection tolerance is
  // shared, and every trajectory probe decides the same verdict as a full
  // replay).
  EXPECT_EQ(greedy_selection(inst), eager_greedy_selection(inst));
  ssam_options reference = critical;
  reference.eager_reference = true;
  reference.payment_threads = 1;
  const auto ssam_ref = run_ssam(inst, reference);
  ASSERT_EQ(ssam_cv.winners.size(), ssam_ref.winners.size());
  for (std::size_t i = 0; i < ssam_cv.winners.size(); ++i) {
    EXPECT_EQ(ssam_cv.winners[i].bid_index, ssam_ref.winners[i].bid_index);
    EXPECT_DOUBLE_EQ(ssam_cv.winners[i].payment, ssam_ref.winners[i].payment);
  }
  EXPECT_DOUBLE_EQ(ssam_cv.total_payment, ssam_ref.total_payment);

  // Exact solver / LP bound ordering: LP <= OPT <= SSAM <= W·Ξ·OPT.
  const auto opt = solve_exact(inst, 400000);
  if (opt.feasible && opt.exact) {
    EXPECT_LE(opt.cost, ssam.social_cost + 1e-6);
    const double lp = lp_bound(inst);
    EXPECT_LE(lp, opt.cost + 1e-6);
    EXPECT_LE(ssam.social_cost, ssam.ratio_bound * opt.cost + 1e-6);
    // VCG sits at the optimum with IR payments.
    const auto vcg = run_vcg(inst, 400000);
    if (vcg.exact && vcg.feasible) {
      EXPECT_NEAR(vcg.social_cost, opt.cost, 1e-6);
      for (std::size_t pos = 0; pos < vcg.winners.size(); ++pos) {
        EXPECT_GE(vcg.payments[pos],
                  inst.bids[vcg.winners[pos]].price - 1e-9);
      }
    }
  }

  // Settlement never runs a deficit.
  EXPECT_TRUE(settle_round(inst, ssam, 0.1).no_economic_loss());

  // Serialization round-trips to an identical auction outcome.
  std::stringstream ss;
  write_instance(ss, inst);
  const auto restored = read_instance(ss);
  const auto replay = run_ssam(restored);
  EXPECT_EQ(replay.winners.size(), ssam.winners.size());
  EXPECT_DOUBLE_EQ(replay.social_cost, ssam.social_cost);

  // Baselines produce feasible-or-flagged outcomes.
  const auto pab = pay_as_bid_greedy(inst);
  EXPECT_EQ(pab.feasible, ssam.feasible);
  rng pick = gen.fork(3);
  const auto rnd = random_selection(inst, pick);
  if (rnd.feasible) {
    EXPECT_TRUE(selection_feasible(inst, rnd.winners));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleStageFuzz,
                         ::testing::Range<std::uint64_t>(1, 41));

class OnlineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineFuzz, MsoaInvariantsOnRandomMarkets) {
  rng gen(GetParam() * 40503ULL + 5);
  online_config cfg;
  cfg.stage = fuzz_config(gen);
  cfg.rounds = static_cast<std::size_t>(gen.uniform_int(1, 8));
  cfg.windowed_fraction = gen.uniform_real(0.0, 1.0);
  cfg.seller_price_bias = gen.uniform_real(0.0, 0.8);
  const auto inst = random_online_instance(cfg, gen);
  ASSERT_NO_THROW(inst.validate());

  const auto res = run_msoa(inst);
  const auto audit = audit_msoa(inst, res);
  EXPECT_TRUE(audit.windows_ok);
  EXPECT_TRUE(audit.capacity_ok);
  EXPECT_TRUE(audit.coverage_ok);
  EXPECT_TRUE(audit.ir_ok);

  // The repair pass guarantees offline feasibility, so the LP bound exists
  // and lower-bounds any feasible online outcome.
  const double bound = offline_lp_bound(inst);
  if (res.feasible) {
    EXPECT_GE(res.social_cost, bound - 1e-6);
  }

  // Online serialization round-trip reproduces the MSOA outcome.
  std::stringstream ss;
  write_online_instance(ss, inst);
  const auto restored = read_online_instance(ss);
  const auto replay = run_msoa(restored);
  EXPECT_DOUBLE_EQ(replay.social_cost, res.social_cost);
  EXPECT_DOUBLE_EQ(replay.total_payment, res.total_payment);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

class DegenerateFuzz : public ::testing::Test {};

TEST(DegenerateFuzz, AllZeroRequirements) {
  rng gen(1);
  instance_config cfg;
  cfg.requirement_lo = 0;
  cfg.requirement_hi = 0;
  const auto inst = random_instance(cfg, gen);
  const auto res = run_ssam(inst);
  EXPECT_TRUE(res.feasible);
  EXPECT_TRUE(res.winners.empty());
  const auto opt = solve_exact(inst);
  EXPECT_DOUBLE_EQ(opt.cost, 0.0);
}

TEST(DegenerateFuzz, SingleSellerSingleDemander) {
  rng gen(2);
  instance_config cfg;
  cfg.sellers = 1;
  cfg.demanders = 1;
  cfg.bids_per_seller = 1;
  const auto inst = random_instance(cfg, gen);
  const auto res = run_ssam(inst);
  EXPECT_TRUE(res.feasible);
  const auto opt = solve_exact(inst);
  EXPECT_NEAR(opt.cost, res.social_cost, 1e-9);  // greedy == optimal here
}

TEST(DegenerateFuzz, ZeroPricesAreHandled) {
  single_stage_instance inst;
  inst.requirements = {3};
  bid b;
  b.seller = 0;
  b.coverage = {0};
  b.amount = 3;
  b.price = 0.0;
  inst.bids = {b};
  const auto res = run_ssam(inst);
  EXPECT_TRUE(res.feasible);
  EXPECT_DOUBLE_EQ(res.social_cost, 0.0);
  EXPECT_GE(res.winners[0].payment, 0.0);
}

}  // namespace
}  // namespace ecrs::auction
