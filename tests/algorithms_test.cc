// Tests for the algorithmic variants: compiled greedy selection against the
// eager oracle and the local-search improvement heuristic.
#include <gtest/gtest.h>

#include <algorithm>

#include "auction/exact.h"
#include "auction/instance_gen.h"
#include "auction/local_search.h"
#include "auction/rounding.h"
#include "auction/properties.h"
#include "auction/ssam.h"
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

// --------------------------------------------------------- compiled greedy

class CompiledGreedySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledGreedySweep, MatchesEagerGreedyExactly) {
  rng gen(GetParam() * 7919 + 3);
  instance_config cfg;
  cfg.sellers = 3 + static_cast<std::size_t>(gen.uniform_int(0, 25));
  cfg.demanders = 1 + static_cast<std::size_t>(gen.uniform_int(0, 5));
  cfg.bids_per_seller = 1 + static_cast<std::size_t>(gen.uniform_int(0, 3));
  const auto inst = random_instance(cfg, gen);
  const auto eager = eager_greedy_selection(inst);
  const auto compiled = greedy_selection(inst);
  EXPECT_EQ(compiled, eager);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledGreedySweep,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(CompiledGreedy, HandlesTiesLikeEager) {
  // Three identical bids: both variants must pick the lowest index.
  single_stage_instance inst;
  inst.requirements = {4};
  inst.bids = {make_bid(0, {0}, 4, 10.0), make_bid(1, {0}, 4, 10.0),
               make_bid(2, {0}, 4, 10.0)};
  EXPECT_EQ(greedy_selection(inst), eager_greedy_selection(inst));
  EXPECT_EQ(greedy_selection(inst), (std::vector<std::size_t>{0}));
}

TEST(CompiledGreedy, EmptyRequirementsSelectNothing) {
  single_stage_instance inst;
  inst.requirements = {0};
  inst.bids = {make_bid(0, {0}, 1, 1.0)};
  EXPECT_TRUE(greedy_selection(inst).empty());
}

TEST(CompiledGreedy, StopsOnUnsatisfiableInstances) {
  single_stage_instance inst;
  inst.requirements = {100};
  inst.bids = {make_bid(0, {0}, 2, 1.0), make_bid(1, {0}, 2, 2.0)};
  const auto compiled = greedy_selection(inst);
  EXPECT_EQ(compiled, eager_greedy_selection(inst));
  EXPECT_EQ(compiled.size(), 2u);  // takes everything useful, then stops
}

TEST(CompiledGreedy, LargeInstanceAgreesWithEager) {
  rng gen(99);
  instance_config cfg;
  cfg.sellers = 300;
  cfg.demanders = 8;
  cfg.bids_per_seller = 2;
  const auto inst = random_instance(cfg, gen);
  EXPECT_EQ(greedy_selection(inst), eager_greedy_selection(inst));
}

// -------------------------------------------------------- trajectory probes

// Reference verdict without any trajectory or price-override machinery: set
// the probed bid's price in a copy of the instance and check membership in
// the eager oracle's selection, which shares no code with the compiled
// probe.
bool wins_by_reference(const single_stage_instance& inst, std::size_t idx,
                       double report) {
  single_stage_instance modified = inst;
  modified.bids[idx].price = report;
  const auto winners = eager_greedy_selection(modified);
  return std::find(winners.begin(), winners.end(), idx) != winners.end();
}

class ProbeTrajectorySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProbeTrajectorySweep, VerdictMatchesFullReplay) {
  rng gen(GetParam() * 104729 + 17);
  instance_config cfg;
  cfg.sellers = 3 + static_cast<std::size_t>(gen.uniform_int(0, 12));
  cfg.demanders = 1 + static_cast<std::size_t>(gen.uniform_int(0, 4));
  cfg.bids_per_seller = 1 + static_cast<std::size_t>(gen.uniform_int(0, 2));
  const auto inst = random_instance(cfg, gen);
  for (std::size_t idx = 0; idx < inst.bids.size(); ++idx) {
    // Probe from a free report to far above the bid's own price; the
    // trajectory must never flip a verdict relative to replaying the whole
    // auction.
    for (const double factor : {0.0, 0.25, 1.0, 4.0, 64.0, 1e300}) {
      const double report = inst.bids[idx].price * factor;
      EXPECT_EQ(wins_with_price(inst, idx, report),
                wins_by_reference(inst, idx, report))
          << "bid " << idx << " report " << report;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbeTrajectorySweep,
                         ::testing::Range<std::uint64_t>(1, 16));

// ------------------------------------------------------------ local search

TEST(LocalSearch, DropsRedundantWinners) {
  single_stage_instance inst;
  inst.requirements = {4};
  inst.bids = {make_bid(0, {0}, 4, 5.0), make_bid(1, {0}, 4, 6.0)};
  // A deliberately wasteful initial selection.
  const auto res = improve_selection(inst, {0, 1});
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.winners.size(), 1u);
  EXPECT_DOUBLE_EQ(res.cost, 5.0);
  EXPECT_GE(res.iterations, 1u);
}

TEST(LocalSearch, SwapsToCheaperBidOfSameSeller) {
  single_stage_instance inst;
  inst.requirements = {4};
  inst.bids = {make_bid(0, {0}, 4, 9.0, 0), make_bid(0, {0}, 4, 6.0, 1)};
  const auto res = improve_selection(inst, {0});
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.winners, (std::vector<std::size_t>{1}));
  EXPECT_DOUBLE_EQ(res.cost, 6.0);
}

TEST(LocalSearch, ReplacesWithCheaperSeller) {
  single_stage_instance inst;
  inst.requirements = {4};
  inst.bids = {make_bid(0, {0}, 4, 12.0), make_bid(1, {0}, 4, 7.0)};
  const auto res = improve_selection(inst, {0});
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.winners, (std::vector<std::size_t>{1}));
}

TEST(LocalSearch, InfeasibleInitialReturnedAsIs) {
  single_stage_instance inst;
  inst.requirements = {100};
  inst.bids = {make_bid(0, {0}, 2, 1.0)};
  const auto res = improve_selection(inst);  // greedy can't cover either
  EXPECT_FALSE(res.feasible);
}

TEST(LocalSearch, RejectsDuplicateSellerInInitial) {
  single_stage_instance inst;
  inst.requirements = {2};
  inst.bids = {make_bid(0, {0}, 2, 1.0, 0), make_bid(0, {0}, 2, 2.0, 1)};
  EXPECT_THROW(improve_selection(inst, {0, 1}), check_error);
}

class LocalSearchSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalSearchSweep, NeverWorseThanGreedyNeverBetterThanExact) {
  rng gen(GetParam() * 131 + 11);
  instance_config cfg;
  cfg.sellers = 9;
  cfg.demanders = 3;
  cfg.bids_per_seller = 2;
  const auto inst = random_instance(cfg, gen);
  double greedy_cost = 0.0;
  for (std::size_t idx : greedy_selection(inst)) {
    greedy_cost += inst.bids[idx].price;
  }
  const auto improved = improve_selection(inst);
  ASSERT_TRUE(improved.feasible);
  EXPECT_LE(improved.cost, greedy_cost + 1e-9);
  EXPECT_TRUE(selection_feasible(
      inst, std::vector<std::size_t>(improved.winners.begin(),
                                     improved.winners.end())));
  const auto opt = solve_exact(inst, 400000);
  if (opt.exact && opt.feasible) {
    EXPECT_GE(improved.cost, opt.cost - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalSearchSweep,
                         ::testing::Range<std::uint64_t>(1, 26));

// --------------------------------------------------------- LP rounding

class RoundingSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundingSweep, FeasibleAndBoundedByLp) {
  rng gen(GetParam() * 613 + 7);
  instance_config cfg;
  cfg.sellers = 10;
  cfg.demanders = 3;
  cfg.bids_per_seller = 2;
  const auto inst = random_instance(cfg, gen);
  rng sample = gen.fork(1);
  const auto res = randomized_rounding(inst, sample);
  ASSERT_TRUE(res.feasible);
  EXPECT_TRUE(selection_feasible(inst, res.winners));
  // Never beats the fractional optimum.
  EXPECT_GE(res.social_cost, lp_bound(inst) - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundingSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Rounding, DeterministicGivenGenerator) {
  rng gen(3);
  instance_config cfg;
  cfg.sellers = 8;
  cfg.demanders = 2;
  const auto inst = random_instance(cfg, gen);
  rng a(77);
  rng b(77);
  const auto ra = randomized_rounding(inst, a);
  const auto rb = randomized_rounding(inst, b);
  EXPECT_EQ(ra.winners, rb.winners);
  EXPECT_DOUBLE_EQ(ra.social_cost, rb.social_cost);
}

TEST(Rounding, IntegralLpRoundsExactly) {
  // Two sellers, one clearly cheaper: the LP optimum is integral, so the
  // rounding recovers it.
  single_stage_instance inst;
  inst.requirements = {4};
  inst.bids = {make_bid(0, {0}, 4, 10.0), make_bid(1, {0}, 4, 20.0)};
  rng gen(5);
  const auto res = randomized_rounding(inst, gen);
  ASSERT_TRUE(res.feasible);
  EXPECT_DOUBLE_EQ(res.social_cost, 10.0);
}

TEST(Rounding, GreedyCompletionGuaranteesFeasibility) {
  rng gen(11);
  instance_config cfg;
  cfg.sellers = 12;
  cfg.demanders = 4;
  const auto inst = random_instance(cfg, gen);
  rng sample = gen.fork(2);
  rounding_options opts;
  opts.repetitions = 1;  // a single sample often misses; completion saves it
  const auto res = randomized_rounding(inst, sample, opts);
  EXPECT_TRUE(res.feasible);
}

TEST(Rounding, RejectsZeroRepetitions) {
  single_stage_instance inst;
  inst.requirements = {0};
  rng gen(1);
  rounding_options opts;
  opts.repetitions = 0;
  EXPECT_THROW(randomized_rounding(inst, gen, opts), check_error);
}

}  // namespace
}  // namespace ecrs::auction
