// Tests for MSOA (Algorithm 2): scaling, capacity exclusion, ψ updates,
// payments, the competitive bound, and the evaluation variants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "auction/exact.h"
#include "auction/instance_gen.h"
#include "auction/io.h"
#include "auction/msoa.h"
#include "auction/properties.h"
#include "common/check.h"
#include "common/rng.h"

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

online_instance two_round_instance() {
  online_instance inst;
  inst.rounds.resize(2);
  for (auto& round : inst.rounds) {
    round.requirements = {2};
    round.bids = {make_bid(0, {0}, 2, 3.0), make_bid(1, {0}, 2, 5.0)};
  }
  inst.sellers = {seller_profile{4, 1, 2}, seller_profile{4, 1, 2}};
  return inst;
}

TEST(Msoa, RunsEveryRoundFeasibly) {
  const auto res = run_msoa(two_round_instance());
  EXPECT_TRUE(res.feasible);
  ASSERT_EQ(res.rounds.size(), 2u);
  for (const auto& round : res.rounds) {
    EXPECT_TRUE(round.feasible);
    EXPECT_EQ(round.winner_bids.size(), 1u);
  }
}

TEST(Msoa, PsiGrowsOnlyForWinners) {
  const auto res = run_msoa(two_round_instance());
  // Seller 0 wins both rounds (cheaper), seller 1 never does.
  EXPECT_GT(res.psi_final[0], 0.0);
  EXPECT_DOUBLE_EQ(res.psi_final[1], 0.0);
  EXPECT_EQ(res.capacity_used[0], 2);
  EXPECT_EQ(res.capacity_used[1], 0);
}

TEST(Msoa, ScalingShiftsWinsToFreshSellers) {
  // With a tiny capacity-aware α, seller 0's ψ grows after round 1 and the
  // price gap (3 vs 3.2) flips in round 2.
  online_instance inst = two_round_instance();
  inst.rounds[1].bids[1].price = 3.2;
  inst.sellers[0].capacity = 2;  // β small => ψ grows fast
  msoa_options opts;
  opts.alpha = 1.0;
  const auto res = run_msoa(inst, opts);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(inst.rounds[0].bids[res.rounds[0].winner_bids[0]].seller, 0u);
  EXPECT_EQ(inst.rounds[1].bids[res.rounds[1].winner_bids[0]].seller, 1u);
}

TEST(Msoa, CapacityExclusionBindsHard) {
  online_instance inst = two_round_instance();
  inst.sellers[0].capacity = 1;  // |S| = 1 per win: one win allowed
  const auto res = run_msoa(inst);
  ASSERT_TRUE(res.feasible);
  const auto audit = audit_msoa(inst, res);
  EXPECT_TRUE(audit.capacity_ok);
  // Seller 0 wins round 1, is excluded in round 2.
  EXPECT_EQ(inst.rounds[1].bids[res.rounds[1].winner_bids[0]].seller, 1u);
}

TEST(Msoa, WindowsExcludeBids) {
  online_instance inst = two_round_instance();
  inst.sellers[0].t_arrive = 2;  // seller 0 absent in round 1
  const auto res = run_msoa(inst);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(inst.rounds[0].bids[res.rounds[0].winner_bids[0]].seller, 1u);
  const auto audit = audit_msoa(inst, res);
  EXPECT_TRUE(audit.windows_ok);
}

TEST(Msoa, PaymentsAreIndividuallyRationalAgainstTruePrices) {
  const auto res = run_msoa(two_round_instance());
  for (const auto& round : res.rounds) {
    for (std::size_t i = 0; i < round.winner_bids.size(); ++i) {
      EXPECT_GE(round.payments[i], round.true_prices[i] - 1e-9);
    }
  }
}

TEST(Msoa, CriticalValueStagePaymentsUnscaleSafely) {
  // Critical-value payments pass through the ψ-unscaling step, which now
  // asserts the unscaled value is finite and non-negative before the IR
  // clamp. A multi-round run with growing ψ must stay clean and IR.
  online_instance inst = two_round_instance();
  msoa_options opts;
  opts.stage.rule = payment_rule::critical_value;
  const auto res = run_msoa(inst, opts);
  ASSERT_TRUE(res.feasible);
  for (const auto& round : res.rounds) {
    for (std::size_t i = 0; i < round.winner_bids.size(); ++i) {
      EXPECT_TRUE(std::isfinite(round.payments[i]));
      EXPECT_GE(round.payments[i], round.true_prices[i] - 1e-9);
    }
  }
}

TEST(Msoa, SocialCostSumsTruePrices) {
  const auto res = run_msoa(two_round_instance());
  double total = 0.0;
  for (const auto& round : res.rounds) total += round.social_cost;
  EXPECT_DOUBLE_EQ(total, res.social_cost);
  EXPECT_DOUBLE_EQ(res.social_cost, 6.0);  // seller 0 twice at price 3
}

TEST(Msoa, BetaAndCompetitiveBound) {
  online_instance inst = two_round_instance();
  inst.sellers[0].capacity = 4;
  inst.sellers[1].capacity = 4;
  const auto res = run_msoa(inst);
  // |S| = 1, min capacity 4 => β = 4, bound = α * 4/3.
  EXPECT_DOUBLE_EQ(res.beta, 4.0);
  EXPECT_NEAR(res.competitive_bound, res.alpha * 4.0 / 3.0, 1e-9);
}

TEST(Msoa, InfeasibleRoundIsReportedNotFatal) {
  online_instance inst = two_round_instance();
  inst.rounds[1].requirements = {100};  // cannot be covered
  const auto res = run_msoa(inst);
  EXPECT_FALSE(res.feasible);
  EXPECT_TRUE(res.rounds[0].feasible);
  EXPECT_FALSE(res.rounds[1].feasible);
}

TEST(Msoa, AlphaAutoFreezesAfterFirstRound) {
  const auto res = run_msoa(two_round_instance());
  EXPECT_GE(res.alpha, 1.0);
  msoa_options opts;
  opts.alpha = 5.0;
  const auto res2 = run_msoa(two_round_instance(), opts);
  EXPECT_DOUBLE_EQ(res2.alpha, 5.0);
  // Larger α damps ψ growth.
  EXPECT_LT(res2.psi_final[0], res.psi_final[0] + 1e-12);
}

TEST(Msoa, RejectsNegativeAlpha) {
  msoa_options opts;
  opts.alpha = -1.0;
  EXPECT_THROW(run_msoa(two_round_instance(), opts), check_error);
}

// ----------------------------------------------------------- msoa_session

TEST(MsoaSession, IncrementalMatchesBatchRunner) {
  const auto inst = two_round_instance();
  const auto batch = run_msoa(inst);

  msoa_session session(inst.sellers);
  double social_cost = 0.0;
  for (const auto& round : inst.rounds) {
    social_cost += session.run_round(round).social_cost;
  }
  EXPECT_DOUBLE_EQ(social_cost, batch.social_cost);
  EXPECT_EQ(session.rounds_run(), 2u);
  for (seller_id s = 0; s < inst.sellers.size(); ++s) {
    EXPECT_DOUBLE_EQ(session.psi(s), batch.psi_final[s]);
    EXPECT_EQ(session.capacity_used(s), batch.capacity_used[s]);
  }
  EXPECT_DOUBLE_EQ(session.competitive_bound(), batch.competitive_bound);
}

TEST(MsoaSession, CapacityLeftAccounting) {
  const auto inst = two_round_instance();
  msoa_session session(inst.sellers);
  EXPECT_EQ(session.capacity_left(0), 4);
  session.run_round(inst.rounds[0]);
  EXPECT_EQ(session.capacity_left(0), 3);  // seller 0 won with |S| = 1
}

TEST(MsoaSession, RejectsUnknownSellerInBid) {
  msoa_session session({seller_profile{2, 1, 5}});
  single_stage_instance round;
  round.requirements = {1};
  round.bids = {make_bid(7, {0}, 1, 1.0)};
  EXPECT_THROW(session.run_round(round), check_error);
}

TEST(MsoaSession, RejectsInvalidProfiles) {
  EXPECT_THROW(msoa_session({seller_profile{-1, 1, 2}}), check_error);
  EXPECT_THROW(msoa_session({seller_profile{1, 3, 2}}), check_error);
}

TEST(MsoaSession, BoundBeforeAnyRoundIsAlpha) {
  msoa_session session({seller_profile{2, 1, 5}});
  EXPECT_DOUBLE_EQ(session.competitive_bound(), 1.0);  // α defaults to 1
}

TEST(MsoaSession, InactiveSellerSkipsAdmissionAndRecoversWithState) {
  const auto inst = two_round_instance();
  msoa_session session(inst.sellers);
  EXPECT_TRUE(session.seller_active(0));
  EXPECT_TRUE(session.seller_active(1));

  // Seller 0 is cheaper and wins while active.
  const auto first = session.run_round(inst.rounds[0]);
  ASSERT_EQ(first.winner_bids.size(), 1u);
  EXPECT_EQ(inst.rounds[0].bids[first.winner_bids[0]].seller, 0u);
  const double psi_after_win = session.psi(0);
  EXPECT_GT(psi_after_win, 0.0);

  // Churned out: its bid is skipped as if it never arrived, the rival wins.
  session.set_seller_active(0, false);
  EXPECT_FALSE(session.seller_active(0));
  const auto outage = session.run_round(inst.rounds[1]);
  ASSERT_EQ(outage.winner_bids.size(), 1u);
  EXPECT_EQ(inst.rounds[1].bids[outage.winner_bids[0]].seller, 1u);

  // ψ/χ survive the outage; flags are range-checked.
  session.set_seller_active(0, true);
  EXPECT_TRUE(session.seller_active(0));
  EXPECT_DOUBLE_EQ(session.psi(0), psi_after_win);
  EXPECT_EQ(session.capacity_used(0), 1);
  EXPECT_THROW(session.set_seller_active(9, false), check_error);
}

TEST(MsoaSession, CheckpointRoundTripReplaysIdentically) {
  const auto inst = two_round_instance();
  msoa_session source(inst.sellers);
  (void)source.run_round(inst.rounds[0]);
  source.set_seller_active(1, false);

  checkpoint_writer w;
  source.save(w);
  checkpoint_reader r(w.payload());
  msoa_session restored(inst.sellers);
  restored.load(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(restored.rounds_run(), source.rounds_run());
  EXPECT_FALSE(restored.seller_active(1));
  for (seller_id s = 0; s < inst.sellers.size(); ++s) {
    EXPECT_EQ(restored.psi(s), source.psi(s));
    EXPECT_EQ(restored.capacity_used(s), source.capacity_used(s));
  }

  const auto from_source = source.run_round(inst.rounds[1]);
  const auto from_restored = restored.run_round(inst.rounds[1]);
  EXPECT_EQ(from_restored.winner_bids, from_source.winner_bids);
  EXPECT_EQ(from_restored.payments, from_source.payments);
  EXPECT_EQ(from_restored.social_cost, from_source.social_cost);
  EXPECT_EQ(restored.beta(), source.beta());

  // A session over a different seller set rejects the payload.
  checkpoint_reader again(w.payload());
  msoa_session mismatched({seller_profile{4, 1, 2}});
  EXPECT_THROW(mismatched.load(again), check_error);
}

// A payload with a valid checksum can still hold seller state no round can
// reach; a used count near INT64_MAX would overflow `used_ + weight` in
// the next admission pass. Load must refuse each one.
TEST(MsoaSession, CheckpointRejectsImpossibleSellerState) {
  const auto inst = two_round_instance();
  msoa_session source(inst.sellers);
  (void)source.run_round(inst.rounds[0]);
  checkpoint_writer w;
  source.save(w);
  const std::vector<std::uint8_t> good(w.payload().begin(),
                                       w.payload().end());
  // round u32, alpha f64, beta f64, seller count, then per seller psi f64,
  // used i64, active u8.
  constexpr std::size_t kAlpha = 4;
  constexpr std::size_t kBeta = 12;
  constexpr std::size_t kPsi = 28;
  constexpr std::size_t kUsed = 36;
  const auto restores = [&inst](const std::vector<std::uint8_t>& bytes) {
    checkpoint_reader r(bytes);
    msoa_session target(inst.sellers);
    target.load(r);
    return r.exhausted();
  };
  const auto with = [&good](std::size_t offset, auto v) {
    std::vector<std::uint8_t> bytes = good;
    std::memcpy(bytes.data() + offset, &v, sizeof v);
    return bytes;
  };
  ASSERT_TRUE(restores(good));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(restores(with(kAlpha, nan)), check_error);
  EXPECT_THROW(restores(with(kAlpha, inf)), check_error);
  EXPECT_THROW(restores(with(kAlpha, -1.0)), check_error);
  EXPECT_THROW(restores(with(kBeta, nan)), check_error);
  EXPECT_THROW(restores(with(kBeta, 0.0)), check_error);
  EXPECT_THROW(restores(with(kPsi, nan)), check_error);
  EXPECT_THROW(restores(with(kPsi, inf)), check_error);
  EXPECT_THROW(restores(with(kPsi, -1.0)), check_error);
  EXPECT_THROW(restores(with(kUsed, std::int64_t{-1})), check_error);
  EXPECT_THROW(restores(with(kUsed, std::int64_t{5})), check_error);
  EXPECT_THROW(
      restores(with(kUsed, std::numeric_limits<std::int64_t>::max())),
      check_error);
  // Reachable extremes still restore: a seller at its full capacity, and
  // beta before any admissible bid.
  EXPECT_TRUE(restores(with(kUsed, std::int64_t{4})));
  EXPECT_TRUE(restores(with(kBeta, inf)));
}

TEST(MsoaSession, BetaOneMakesBoundInfinite) {
  // Capacity equal to the participation weight: β = 1, bound diverges.
  msoa_session session({seller_profile{1, 1, 5}});
  single_stage_instance round;
  round.requirements = {1};
  round.bids = {make_bid(0, {0}, 1, 2.0)};
  session.run_round(round);
  EXPECT_DOUBLE_EQ(session.beta(), 1.0);
  EXPECT_EQ(session.competitive_bound(),
            std::numeric_limits<double>::infinity());
}

// ------------------------------------------------------ warm-start cache

// T rounds of the same standing bid vector (the workload the warm-start
// cache targets); requirements optionally vary per round.
std::vector<single_stage_instance> standing_rounds(
    std::size_t rounds, const std::vector<std::vector<units>>& requirements) {
  single_stage_instance base;
  base.bids = {make_bid(0, {0, 1}, 2, 3.0), make_bid(1, {0}, 3, 4.0),
               make_bid(2, {1}, 2, 2.5), make_bid(3, {0, 1}, 1, 6.0)};
  std::vector<single_stage_instance> out;
  for (std::size_t t = 0; t < rounds; ++t) {
    base.requirements = requirements[t % requirements.size()];
    out.push_back(base);
  }
  return out;
}

std::vector<seller_profile> ample_profiles(std::size_t sellers,
                                           std::uint32_t horizon,
                                           units capacity = 1000) {
  std::vector<seller_profile> profiles(sellers);
  for (auto& p : profiles) {
    p.capacity = capacity;
    p.t_arrive = 1;
    p.t_depart = horizon;
  }
  return profiles;
}

void expect_rounds_equal(const msoa_round_outcome& a,
                         const msoa_round_outcome& b) {
  EXPECT_EQ(a.winner_bids, b.winner_bids);
  EXPECT_EQ(a.payments, b.payments);  // bitwise
  EXPECT_EQ(a.true_prices, b.true_prices);
  EXPECT_EQ(a.social_cost, b.social_cost);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.admitted_bids, b.admitted_bids);
  EXPECT_EQ(a.stage.total_payment, b.stage.total_payment);
  EXPECT_EQ(a.stage.budget_dropped, b.stage.budget_dropped);
}

TEST(MsoaWarmStart, StandingBidsMatchColdStartBitwise) {
  const std::size_t rounds = 6;
  const auto instances = standing_rounds(rounds, {{4, 3}});
  msoa_options warm_opts;
  warm_opts.stage.rule = payment_rule::critical_value;
  warm_opts.stage.payment_threads = 1;
  msoa_options cold_opts = warm_opts;
  cold_opts.warm_start = false;

  msoa_session warm(ample_profiles(4, rounds), warm_opts);
  msoa_session cold(ample_profiles(4, rounds), cold_opts);
  for (const auto& round : instances) {
    expect_rounds_equal(warm.run_round(round), cold.run_round(round));
  }
  // Round 1 compiles cold; every later round is served from the cache.
  EXPECT_EQ(warm.warm_rounds(), rounds - 1);
  EXPECT_EQ(cold.warm_rounds(), 0u);
  for (seller_id s = 0; s < 4; ++s) {
    EXPECT_EQ(warm.psi(s), cold.psi(s));
    EXPECT_EQ(warm.capacity_used(s), cold.capacity_used(s));
  }
}

TEST(MsoaWarmStart, VaryingRequirementsStayWarm) {
  // Changing the demand vector between rounds is a patch (set_requirement),
  // not a topology change — the cache must stay warm and bit-identical.
  const std::size_t rounds = 6;
  const auto instances = standing_rounds(rounds, {{4, 3}, {1, 5}, {0, 2}});
  msoa_options warm_opts;
  warm_opts.stage.rule = payment_rule::critical_value;
  warm_opts.stage.payment_threads = 1;
  msoa_options cold_opts = warm_opts;
  cold_opts.warm_start = false;

  msoa_session warm(ample_profiles(4, rounds), warm_opts);
  msoa_session cold(ample_profiles(4, rounds), cold_opts);
  for (const auto& round : instances) {
    expect_rounds_equal(warm.run_round(round), cold.run_round(round));
  }
  EXPECT_EQ(warm.warm_rounds(), rounds - 1);
}

TEST(MsoaWarmStart, CapacityDepletionFallsBackToColdCompile) {
  // Seller capacities deplete after a few wins, shrinking the admitted set:
  // those rounds miss the topology check and recompile cold, and the results
  // still match a warm_start=false session exactly.
  const std::size_t rounds = 5;
  const auto instances = standing_rounds(rounds, {{4, 3}});
  msoa_options warm_opts;
  warm_opts.stage.rule = payment_rule::critical_value;
  warm_opts.stage.payment_threads = 1;
  msoa_options cold_opts = warm_opts;
  cold_opts.warm_start = false;

  // Participation weight is |S| (1 or 2): capacity 4 allows ~2 wins.
  msoa_session warm(ample_profiles(4, rounds, 4), warm_opts);
  msoa_session cold(ample_profiles(4, rounds, 4), cold_opts);
  bool any_depleted = false;
  for (const auto& round : instances) {
    const auto warm_out = warm.run_round(round);
    const auto cold_out = cold.run_round(round);
    expect_rounds_equal(warm_out, cold_out);
    any_depleted = any_depleted || warm_out.admitted_bids < round.bids.size();
  }
  ASSERT_TRUE(any_depleted);  // the scenario actually exercises the fallback
  EXPECT_LT(warm.warm_rounds(), rounds - 1);
}

TEST(MsoaWarmStart, DisabledSessionNeverWarms) {
  const auto instances = standing_rounds(4, {{4, 3}});
  msoa_options opts;
  opts.warm_start = false;
  msoa_session session(ample_profiles(4, 4), opts);
  for (const auto& round : instances) {
    (void)session.run_round(round);
  }
  EXPECT_EQ(session.warm_rounds(), 0u);
}

TEST(MsoaWarmStart, FreshBidsEachRoundNeverWarm) {
  // random_online_instance draws new bids per round, so the topology check
  // must reject the cache every time (warm-start is a standing-bid
  // optimization, not a correctness hazard for churning bids).
  rng gen(31);
  online_config cfg;
  cfg.stage.sellers = 8;
  cfg.stage.demanders = 3;
  cfg.rounds = 5;
  const auto inst = random_online_instance(cfg, gen);
  msoa_session session(inst.sellers, {});
  for (const auto& round : inst.rounds) {
    (void)session.run_round(round);
  }
  EXPECT_EQ(session.warm_rounds(), 0u);
}

// ------------------------------------------------------- property sweeps

class MsoaRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MsoaRandomSweep, AuditCleanOnRandomInstances) {
  rng gen(GetParam());
  online_config cfg;
  cfg.stage.sellers = 10;
  cfg.stage.demanders = 3;
  cfg.rounds = 6;
  const auto inst = random_online_instance(cfg, gen);
  const auto res = run_msoa(inst);
  const auto audit = audit_msoa(inst, res);
  EXPECT_TRUE(audit.windows_ok);
  EXPECT_TRUE(audit.capacity_ok);
  EXPECT_TRUE(audit.coverage_ok);
  EXPECT_TRUE(audit.ir_ok);
}

TEST_P(MsoaRandomSweep, OnlineCostAtLeastOfflineBound) {
  rng gen(GetParam() + 1000);
  online_config cfg;
  cfg.stage.sellers = 6;
  cfg.stage.demanders = 2;
  cfg.rounds = 4;
  cfg.capacity_lo = 4;
  cfg.capacity_hi = 8;
  const auto inst = random_online_instance(cfg, gen);
  const auto res = run_msoa(inst);
  if (!res.feasible) return;
  const double bound = offline_lp_bound(inst);
  EXPECT_GE(res.social_cost, bound - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsoaRandomSweep,
                         ::testing::Range<std::uint64_t>(1, 16));

// Theorem 7 on exactly-solvable instances.
class MsoaCompetitiveRatio : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MsoaCompetitiveRatio, WithinTheorem7Bound) {
  rng gen(GetParam());
  online_config cfg;
  cfg.stage.sellers = 5;
  cfg.stage.demanders = 2;
  cfg.stage.bids_per_seller = 1;
  cfg.rounds = 3;
  cfg.capacity_lo = 4;
  cfg.capacity_hi = 8;
  const auto inst = random_online_instance(cfg, gen);
  const auto offline = offline_exact(inst, 2000000);
  if (!offline.exact || !offline.feasible) return;
  const auto res = run_msoa(inst);
  if (!res.feasible) return;
  ASSERT_LT(res.competitive_bound, std::numeric_limits<double>::infinity());
  EXPECT_LE(res.social_cost, res.competitive_bound * offline.cost + 1e-6)
      << "measured " << res.social_cost / offline.cost << " bound "
      << res.competitive_bound;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsoaCompetitiveRatio,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(MsoaSession, SerializedMarketReplaysIdentically) {
  // An online instance written to disk and replayed through a fresh session
  // produces the same trajectory (the operational recovery path).
  rng gen(21);
  online_config cfg;
  cfg.stage.sellers = 8;
  cfg.stage.demanders = 3;
  cfg.rounds = 4;
  const auto inst = random_online_instance(cfg, gen);
  const auto original = run_msoa(inst);

  std::stringstream ss;
  write_online_instance(ss, inst);
  const auto restored = read_online_instance(ss);
  msoa_session session(restored.sellers);
  double cost = 0.0;
  for (const auto& round : restored.rounds) {
    cost += session.run_round(round).social_cost;
  }
  EXPECT_DOUBLE_EQ(cost, original.social_cost);
}

TEST(MsoaSession, PerRoundBudgetPropagatesToStages) {
  // The nested ssam_options' payment budget applies inside every round.
  online_instance inst = two_round_instance();
  msoa_options opts;
  opts.stage.payment_budget = 1.0;  // below any payment: nothing clears
  const auto res = run_msoa(inst, opts);
  EXPECT_FALSE(res.feasible);
  for (const auto& round : res.rounds) {
    EXPECT_TRUE(round.winner_bids.empty());
  }
}

// ---------------------------------------------------------------- variants

TEST(Variants, ToStringNames) {
  EXPECT_STREQ(to_string(msoa_variant::base), "MSOA");
  EXPECT_STREQ(to_string(msoa_variant::demand_aware), "MSOA-DA");
  EXPECT_STREQ(to_string(msoa_variant::high_capacity), "MSOA-RC");
  EXPECT_STREQ(to_string(msoa_variant::fully_optimized), "MSOA-OA");
}

TEST(Variants, DemandAwareKeepsTruthUnchanged) {
  rng gen(1);
  const auto truth = two_round_instance();
  const auto shaped = apply_variant(truth, msoa_variant::demand_aware, {}, gen);
  for (std::size_t t = 0; t < truth.rounds.size(); ++t) {
    EXPECT_EQ(shaped.rounds[t].requirements, truth.rounds[t].requirements);
  }
  for (std::size_t s = 0; s < truth.sellers.size(); ++s) {
    EXPECT_EQ(shaped.sellers[s].capacity, truth.sellers[s].capacity);
  }
}

TEST(Variants, BaseInflatesDemandsNeverDeflates) {
  rng gen(2);
  const auto truth = two_round_instance();
  variant_options opts;
  opts.demand_noise = 0.5;
  const auto shaped = apply_variant(truth, msoa_variant::base, opts, gen);
  for (std::size_t t = 0; t < truth.rounds.size(); ++t) {
    for (std::size_t k = 0; k < truth.rounds[t].requirements.size(); ++k) {
      EXPECT_GE(shaped.rounds[t].requirements[k],
                truth.rounds[t].requirements[k]);
    }
  }
}

TEST(Variants, HighCapacityScalesSellers) {
  rng gen(3);
  const auto truth = two_round_instance();
  variant_options opts;
  opts.capacity_factor = 2.0;
  const auto shaped =
      apply_variant(truth, msoa_variant::high_capacity, opts, gen);
  for (std::size_t s = 0; s < truth.sellers.size(); ++s) {
    EXPECT_EQ(shaped.sellers[s].capacity, 2 * truth.sellers[s].capacity);
  }
}

TEST(Variants, FullyOptimizedCombinesBoth) {
  rng gen(4);
  const auto truth = two_round_instance();
  const auto shaped =
      apply_variant(truth, msoa_variant::fully_optimized, {}, gen);
  for (std::size_t t = 0; t < truth.rounds.size(); ++t) {
    EXPECT_EQ(shaped.rounds[t].requirements, truth.rounds[t].requirements);
  }
  EXPECT_GT(shaped.sellers[0].capacity, truth.sellers[0].capacity);
}

TEST(Variants, RejectsBadOptions) {
  rng gen(5);
  variant_options opts;
  opts.demand_noise = 1.0;
  EXPECT_THROW(apply_variant(two_round_instance(), msoa_variant::base, opts,
                             gen),
               check_error);
  opts = variant_options{};
  opts.capacity_factor = 0.5;
  EXPECT_THROW(apply_variant(two_round_instance(), msoa_variant::base, opts,
                             gen),
               check_error);
}

TEST(Variants, DemandAwareCostsNoMoreThanNoisyBase) {
  // Perfect demand estimation buys less, so it cannot cost more.
  rng gen(6);
  online_config cfg;
  cfg.stage.sellers = 10;
  cfg.stage.demanders = 3;
  cfg.rounds = 5;
  const auto truth = random_online_instance(cfg, gen);
  rng noise_a = gen.fork(1);
  rng noise_b = gen.fork(1);  // identical noise streams
  variant_options opts;
  opts.demand_noise = 0.4;
  const auto base = apply_variant(truth, msoa_variant::base, opts, noise_a);
  const auto da =
      apply_variant(truth, msoa_variant::demand_aware, opts, noise_b);
  const auto res_base = run_msoa(base);
  const auto res_da = run_msoa(da);
  if (res_base.feasible && res_da.feasible) {
    EXPECT_LE(res_da.social_cost, res_base.social_cost + 1e-9);
  }
}

}  // namespace
}  // namespace ecrs::auction
