// Unit tests for the compiled CSR instance layout (auction/compiled.h):
// arena and inverted-index construction, the cached instance scalars, the
// incremental state trackers, and the warm-start patch API — every patched
// view must be bit-identical to a cold recompile of the same instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "auction/compiled.h"
#include "auction/instance_gen.h"
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

single_stage_instance small_instance() {
  // 3 demanders, 4 bids from 3 sellers with overlapping coverage.
  single_stage_instance inst;
  inst.requirements = {4, 3, 5};
  inst.bids = {make_bid(0, {0, 1}, 2, 10.0),     // U(∅) = 2 + 2 = 4
               make_bid(0, {2}, 5, 9.0, 1),      // U(∅) = 5
               make_bid(1, {0, 2}, 3, 6.0),      // U(∅) = 3 + 3 = 6
               make_bid(2, {1}, 4, 8.0)};        // U(∅) = 3
  return inst;
}

// Bit-level equality of two compiled views (the warm-start contract).
void expect_same_compiled(const compiled_instance& a,
                          const compiled_instance& b) {
  ASSERT_EQ(a.bid_count(), b.bid_count());
  ASSERT_EQ(a.demander_count(), b.demander_count());
  EXPECT_EQ(a.total_requirement(), b.total_requirement());
  EXPECT_EQ(a.total_supply(), b.total_supply());
  EXPECT_EQ(a.price_bound(), b.price_bound());
  EXPECT_EQ(a.seller_count(), b.seller_count());
  EXPECT_EQ(a.seller_slots(), b.seller_slots());
  EXPECT_EQ(a.requirements(), b.requirements());
  for (std::size_t i = 0; i < a.bid_count(); ++i) {
    EXPECT_EQ(a.price(i), b.price(i)) << "bid " << i;
    EXPECT_EQ(a.amount(i), b.amount(i)) << "bid " << i;
    EXPECT_EQ(a.seller(i), b.seller(i)) << "bid " << i;
    EXPECT_EQ(a.initial_utility(i), b.initial_utility(i)) << "bid " << i;
    ASSERT_EQ(a.coverage_size(i), b.coverage_size(i)) << "bid " << i;
    EXPECT_TRUE(std::equal(a.coverage_begin(i), a.coverage_end(i),
                           b.coverage_begin(i)))
        << "bid " << i;
  }
}

// ----------------------------------------------------------------- compile

TEST(CompiledInstance, FlattensRowsAndArena) {
  const auto inst = small_instance();
  compiled_instance c;
  c.compile(inst);

  ASSERT_EQ(c.bid_count(), 4u);
  ASSERT_EQ(c.demander_count(), 3u);
  for (std::size_t i = 0; i < inst.bids.size(); ++i) {
    EXPECT_EQ(c.price(i), inst.bids[i].price);
    EXPECT_EQ(c.amount(i), inst.bids[i].amount);
    EXPECT_EQ(c.seller(i), inst.bids[i].seller);
    ASSERT_EQ(c.coverage_size(i), inst.bids[i].coverage.size());
    EXPECT_TRUE(std::equal(c.coverage_begin(i), c.coverage_end(i),
                           inst.bids[i].coverage.begin()));
  }
}

TEST(CompiledInstance, CachedScalarsMatchBidVectorApi) {
  const auto inst = small_instance();
  compiled_instance c;
  c.compile(inst);

  EXPECT_EQ(c.seller_count(), inst.seller_count());
  EXPECT_EQ(c.total_requirement(), inst.total_requirement());
  EXPECT_EQ(c.seller_slots(), 3u);  // max seller id 2 + 1
  units supply = 0;
  double price_bound = 1.0;
  for (const bid& b : inst.bids) {
    supply += b.amount * static_cast<units>(b.coverage_size());
    price_bound = std::max(price_bound, b.price);
  }
  EXPECT_EQ(c.total_supply(), supply);
  EXPECT_EQ(c.price_bound(), price_bound);
}

TEST(CompiledInstance, InvertedIndexListsCoveringBidsAscending) {
  const auto inst = small_instance();
  compiled_instance c;
  c.compile(inst);

  const std::vector<std::vector<std::uint32_t>> expected = {
      {0, 2},  // demander 0 covered by bids 0 and 2
      {0, 3},  // demander 1 covered by bids 0 and 3
      {1, 2},  // demander 2 covered by bids 1 and 2
  };
  for (demander_id k = 0; k < 3; ++k) {
    const std::vector<std::uint32_t> got(c.covering_begin(k),
                                         c.covering_end(k));
    EXPECT_EQ(got, expected[k]) << "demander " << k;
  }
}

TEST(CompiledInstance, InitialUtilities) {
  const auto inst = small_instance();
  compiled_instance c;
  c.compile(inst);

  const std::vector<units> expected_util = {4, 5, 6, 3};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.initial_utility(i), expected_util[i]) << "bid " << i;
  }
}

TEST(CompiledInstance, BidCoveringOnlySatisfiedDemandersHasZeroUtility) {
  single_stage_instance inst;
  inst.requirements = {2, 0};
  inst.bids = {make_bid(0, {1}, 3, 5.0),   // covers only the zero demander
               make_bid(1, {0}, 2, 4.0)};
  compiled_instance c;
  c.compile(inst);
  EXPECT_EQ(c.initial_utility(0), 0);
  EXPECT_EQ(c.initial_utility(1), 2);
}

// ----------------------------------------------------- warm-start patching

TEST(CompiledInstance, PricePatchMatchesColdRecompile) {
  rng gen(42);
  instance_config cfg;
  cfg.sellers = 20;
  cfg.demanders = 4;
  auto inst = random_instance(cfg, gen);

  compiled_instance patched;
  patched.compile(inst);
  // Shift a scattering of prices (the per-seller ψ-offset pattern) and one
  // price downwards past everything else.
  for (std::size_t i = 0; i < inst.bids.size(); i += 3) {
    inst.bids[i].price += 7.25 * static_cast<double>(i % 5 + 1);
    patched.set_price(i, inst.bids[i].price);
  }
  inst.bids[1].price = 0.25;
  patched.set_price(1, 0.25);

  compiled_instance cold;
  cold.compile(inst);
  expect_same_compiled(patched, cold);
}

TEST(CompiledInstance, RequirementPatchRederivesUtilities) {
  rng gen(43);
  instance_config cfg;
  cfg.sellers = 15;
  cfg.demanders = 5;
  auto inst = random_instance(cfg, gen);

  compiled_instance patched;
  patched.compile(inst);
  inst.requirements[0] = 0;
  inst.requirements[2] += 13;
  inst.requirements[4] = 1;
  for (demander_id k = 0; k < inst.requirements.size(); ++k) {
    patched.set_requirement(k, inst.requirements[k]);
  }

  compiled_instance cold;
  cold.compile(inst);
  expect_same_compiled(patched, cold);
}

TEST(CompiledInstance, RepeatedMixedPatchesStayExact) {
  rng gen(44);
  instance_config cfg;
  cfg.sellers = 12;
  cfg.demanders = 3;
  auto inst = random_instance(cfg, gen);

  compiled_instance patched;
  patched.compile(inst);
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = round % 2; i < inst.bids.size(); i += 2) {
      inst.bids[i].price += 0.5 + static_cast<double>(round);
      patched.set_price(i, inst.bids[i].price);
    }
    inst.requirements[round % inst.requirements.size()] += 2;
    patched.set_requirement(
        static_cast<demander_id>(round % inst.requirements.size()),
        inst.requirements[round % inst.requirements.size()]);

    compiled_instance cold;
    cold.compile(inst);
    expect_same_compiled(patched, cold);
  }
}

TEST(CompiledInstance, NoOpPatchLeavesViewUnchanged) {
  const auto inst = small_instance();
  compiled_instance c;
  c.compile(inst);
  c.set_price(0, inst.bids[0].price);
  c.set_requirement(1, inst.requirements[1]);

  compiled_instance cold;
  cold.compile(inst);
  expect_same_compiled(c, cold);
}

TEST(CompiledInstance, PatchValidation) {
  const auto inst = small_instance();
  compiled_instance c;
  c.compile(inst);
  EXPECT_THROW(c.set_price(0, -1.0), check_error);
  EXPECT_THROW(c.set_price(99, 1.0), check_error);
  EXPECT_THROW(c.set_requirement(0, -2), check_error);
  EXPECT_THROW(c.set_requirement(99, 1), check_error);
}

// ------------------------------------------------------- state trackers

TEST(CompiledState, TracksCoverageStateExactly) {
  rng gen(7);
  instance_config cfg;
  cfg.sellers = 18;
  cfg.demanders = 4;
  const auto inst = random_instance(cfg, gen);
  compiled_instance c;
  c.compile(inst);

  coverage_state reference(inst.requirements);
  compiled_state state;
  state.reset(c);
  const auto winners = greedy_selection(inst);
  for (std::size_t w : winners) {
    EXPECT_EQ(state.apply(c, w), reference.apply(inst.bids[w]));
    for (demander_id k = 0; k < inst.requirements.size(); ++k) {
      EXPECT_EQ(state.remaining(k), reference.remaining(k)) << "demander " << k;
    }
    EXPECT_EQ(state.deficit(), reference.deficit());
    EXPECT_EQ(state.satisfied(), reference.satisfied());
  }
}

TEST(ScoredState, MaintainsExactUtilitiesThroughApplies) {
  rng gen(8);
  instance_config cfg;
  cfg.sellers = 18;
  cfg.demanders = 4;
  const auto inst = random_instance(cfg, gen);
  compiled_instance c;
  c.compile(inst);

  scored_state scored;
  scored.reset(c);
  coverage_state reference(inst.requirements);
  const auto winners = greedy_selection(inst);
  for (std::size_t w : winners) {
    EXPECT_EQ(scored.apply(c, w), reference.apply(inst.bids[w]));
    EXPECT_EQ(scored.deficit(), reference.deficit());
    // Every bid's cached utility is the exact recomputed marginal utility
    // (changed or not).
    for (std::size_t i = 0; i < c.bid_count(); ++i) {
      EXPECT_EQ(scored.utility(i), reference.marginal_utility(inst.bids[i]))
          << "bid " << i << " after applying " << w;
    }
  }
}

// ---------------------------------------------------- compiled run_ssam

TEST(RunSsamCompiledOverload, MatchesBidVectorEntry) {
  rng gen(9);
  instance_config cfg;
  cfg.sellers = 20;
  cfg.demanders = 4;
  const auto inst = random_instance(cfg, gen);
  ssam_options opts;
  opts.rule = payment_rule::critical_value;

  const auto via_bids = run_ssam(inst, opts);
  compiled_instance c;
  c.compile(inst);
  const auto via_compiled = run_ssam(c, opts);

  ASSERT_EQ(via_bids.winners.size(), via_compiled.winners.size());
  for (std::size_t pos = 0; pos < via_bids.winners.size(); ++pos) {
    EXPECT_EQ(via_bids.winners[pos].bid_index,
              via_compiled.winners[pos].bid_index);
    EXPECT_EQ(via_bids.winners[pos].payment,
              via_compiled.winners[pos].payment);
  }
  EXPECT_EQ(via_bids.feasible, via_compiled.feasible);
  EXPECT_EQ(via_bids.social_cost, via_compiled.social_cost);
  EXPECT_EQ(via_bids.total_payment, via_compiled.total_payment);
}

TEST(RunSsamCompiledOverload, RejectsEagerReference) {
  const auto inst = small_instance();
  compiled_instance c;
  c.compile(inst);
  ssam_options opts;
  opts.eager_reference = true;
  EXPECT_THROW(run_ssam(c, opts), check_error);
}

TEST(CompiledInstance, CompileRejectsOutOfRangeCoverage) {
  single_stage_instance inst;
  inst.requirements = {1};
  inst.bids = {make_bid(0, {3}, 1, 1.0)};  // demander 3 does not exist
  compiled_instance c;
  EXPECT_THROW(c.compile(inst), check_error);
}

}  // namespace
}  // namespace ecrs::auction
