// Randomized equivalence fuzz for the compiled CSR auction engine
// (auction/compiled.h): across random instances, payment rules and payment
// budgets, the engine must be bit-identical — winners, payments, budget_dropped,
// certificate — to the eager bid-vector oracle
// (ssam_options::eager_reference). Also fuzzes MSOA sessions: compiled
// rounds vs. the oracle's per-round path, and warm-start patched sessions
// vs. cold-start and oracle sessions on standing bids. Registered with the
// `slow` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "auction/instance_gen.h"
#include "auction/msoa.h"
#include "auction/online.h"
#include "auction/properties.h"
#include "auction/ssam.h"
#include "common/rng.h"
#include "common/simd.h"

namespace ecrs::auction {
namespace {

// Pins a SIMD tier for one scope, restoring the previous tier on exit.
class simd_tier_guard {
 public:
  explicit simd_tier_guard(simd::level l) : prev_(simd::active_level()) {
    installed_ = simd::force(l);
  }
  ~simd_tier_guard() { simd::force(prev_); }
  simd_tier_guard(const simd_tier_guard&) = delete;
  simd_tier_guard& operator=(const simd_tier_guard&) = delete;
  [[nodiscard]] simd::level installed() const { return installed_; }

 private:
  simd::level prev_;
  simd::level installed_;
};

// Bit-level equality of two full mechanism results (EXPECT_EQ on doubles
// is exact comparison — that is the point).
void expect_same_result(const ssam_result& a, const ssam_result& b,
                        const char* what) {
  ASSERT_EQ(a.winners.size(), b.winners.size()) << what;
  for (std::size_t pos = 0; pos < a.winners.size(); ++pos) {
    EXPECT_EQ(a.winners[pos].bid_index, b.winners[pos].bid_index)
        << what << " pos " << pos;
    EXPECT_EQ(a.winners[pos].payment, b.winners[pos].payment)
        << what << " pos " << pos;
    EXPECT_EQ(a.winners[pos].utility_at_selection,
              b.winners[pos].utility_at_selection)
        << what << " pos " << pos;
    EXPECT_EQ(a.winners[pos].ratio_at_selection,
              b.winners[pos].ratio_at_selection)
        << what << " pos " << pos;
  }
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.social_cost, b.social_cost) << what;
  EXPECT_EQ(a.total_payment, b.total_payment) << what;
  EXPECT_EQ(a.budget_dropped, b.budget_dropped) << what;
  EXPECT_EQ(a.unit_shares, b.unit_shares) << what;
  EXPECT_EQ(a.xi, b.xi) << what;
  EXPECT_EQ(a.harmonic, b.harmonic) << what;
  EXPECT_EQ(a.ratio_bound, b.ratio_bound) << what;
}

void expect_same_round(const msoa_round_outcome& a,
                       const msoa_round_outcome& b, const char* what) {
  EXPECT_EQ(a.round, b.round) << what;
  EXPECT_EQ(a.admitted_bids, b.admitted_bids) << what;
  EXPECT_EQ(a.winner_bids, b.winner_bids) << what;
  EXPECT_EQ(a.true_prices, b.true_prices) << what;
  EXPECT_EQ(a.payments, b.payments) << what;
  EXPECT_EQ(a.social_cost, b.social_cost) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  expect_same_result(a.stage, b.stage, what);
}

instance_config fuzz_config(rng& gen) {
  instance_config cfg;
  cfg.sellers = 4 + gen.uniform_int(0, 40);
  cfg.demanders = 1 + gen.uniform_int(0, 7);
  cfg.bids_per_seller = 1 + gen.uniform_int(0, 3);
  cfg.amount_hi = 1 + gen.uniform_int(0, 9);
  cfg.coverage_fraction = 0.3 + 0.1 * static_cast<double>(gen.uniform_int(0, 6));
  cfg.supply_margin = 0.5 + 0.1 * static_cast<double>(gen.uniform_int(0, 4));
  return cfg;
}

// ------------------------------------------------- single-stage equivalence

TEST(CompiledFuzz, SingleStageMatchesEagerReference) {
  rng gen(0xC0FFEEu);
  ssam_scratch scratch;
  for (int trial = 0; trial < 60; ++trial) {
    const auto inst = random_instance(fuzz_config(gen), gen);
    for (const payment_rule rule :
         {payment_rule::runner_up, payment_rule::critical_value}) {
      // Budget: unlimited, generous, or tight enough to bind sometimes.
      const int budget_kind = gen.uniform_int(0, 2);
      ssam_options opts;
      opts.rule = rule;
      opts.payment_threads = 1;
      opts.self_audit = true;
      if (budget_kind == 1) opts.payment_budget = 1e6;
      if (budget_kind == 2) {
        opts.payment_budget =
            40.0 * static_cast<double>(1 + gen.uniform_int(0, 9));
      }

      const auto via_compiled = run_ssam(inst, opts, &scratch);
      ssam_options eager_ref = opts;
      eager_ref.eager_reference = true;
      expect_same_result(via_compiled, run_ssam(inst, eager_ref, &scratch),
                         "eager_reference");
    }
  }
}

TEST(CompiledFuzz, SelectionAgreesWithEagerReference) {
  rng gen(0xBADF00Du);
  ssam_scratch scratch;
  for (int trial = 0; trial < 80; ++trial) {
    const auto inst = random_instance(fuzz_config(gen), gen);
    EXPECT_EQ(greedy_selection(inst, &scratch),
              eager_greedy_selection(inst, &scratch))
        << "trial " << trial;
  }
}

// --------------------------------------------------------- MSOA equivalence

TEST(CompiledFuzz, MsoaMatchesEagerReferenceRoundPath) {
  rng gen(0x5EED5u);
  for (int trial = 0; trial < 12; ++trial) {
    online_config cfg;
    cfg.stage = fuzz_config(gen);
    cfg.stage.sellers = 4 + gen.uniform_int(0, 16);
    cfg.rounds = 3 + gen.uniform_int(0, 5);
    cfg.windowed_fraction = 0.1 * static_cast<double>(gen.uniform_int(0, 8));
    cfg.seller_price_bias = 0.1 * static_cast<double>(gen.uniform_int(0, 3));
    const auto instance = random_online_instance(cfg, gen);

    msoa_options compiled_opts;
    compiled_opts.stage.rule = payment_rule::critical_value;
    compiled_opts.stage.payment_threads = 1;
    compiled_opts.stage.self_audit = true;
    msoa_options reference_opts = compiled_opts;
    reference_opts.stage.eager_reference = true;

    const auto via_compiled = run_msoa(instance, compiled_opts);
    const auto via_reference = run_msoa(instance, reference_opts);

    ASSERT_EQ(via_compiled.rounds.size(), via_reference.rounds.size());
    for (std::size_t r = 0; r < via_compiled.rounds.size(); ++r) {
      expect_same_round(via_compiled.rounds[r], via_reference.rounds[r],
                        "msoa round");
    }
    EXPECT_EQ(via_compiled.social_cost, via_reference.social_cost);
    EXPECT_EQ(via_compiled.total_payment, via_reference.total_payment);
    EXPECT_EQ(via_compiled.feasible, via_reference.feasible);
    EXPECT_EQ(via_compiled.alpha, via_reference.alpha);
    EXPECT_EQ(via_compiled.psi_final, via_reference.psi_final);
    EXPECT_EQ(via_compiled.capacity_used, via_reference.capacity_used);
  }
}

// Standing-bid sessions: the same bid vector every round (the workload the
// warm-start cache targets), requirements re-drawn per round. The warm
// session must patch every round after the first and stay bit-identical to
// both a cold-start compiled session and an eager-reference session.
TEST(CompiledFuzz, WarmStartSessionMatchesColdAndEagerReference) {
  rng gen(0xFACADEu);
  for (int trial = 0; trial < 10; ++trial) {
    instance_config cfg = fuzz_config(gen);
    cfg.sellers = 4 + gen.uniform_int(0, 12);
    single_stage_instance base = random_instance(cfg, gen);
    const std::size_t rounds = 4 + gen.uniform_int(0, 4);

    seller_id max_seller = 0;
    for (const bid& b : base.bids) max_seller = std::max(max_seller, b.seller);
    std::vector<seller_profile> profiles(max_seller + 1);
    for (auto& p : profiles) {
      p.capacity = 1000;  // ample: admission never changes across rounds
      p.t_arrive = 1;
      p.t_depart = static_cast<std::uint32_t>(rounds);
    }

    std::vector<single_stage_instance> round_instances;
    for (std::size_t t = 0; t < rounds; ++t) {
      single_stage_instance round = base;
      if (t > 0) {
        for (units& x : round.requirements) {
          x = gen.uniform_int(0, static_cast<int>(x));
        }
      }
      round_instances.push_back(std::move(round));
    }

    msoa_options warm_opts;
    warm_opts.stage.rule = payment_rule::critical_value;
    warm_opts.stage.payment_threads = 1;
    warm_opts.stage.self_audit = true;
    msoa_options cold_opts = warm_opts;
    cold_opts.warm_start = false;
    msoa_options reference_opts = warm_opts;
    reference_opts.stage.eager_reference = true;

    msoa_session warm(profiles, warm_opts);
    msoa_session cold(profiles, cold_opts);
    msoa_session reference(profiles, reference_opts);
    for (std::size_t t = 0; t < rounds; ++t) {
      const auto warm_out = warm.run_round(round_instances[t]);
      const auto cold_out = cold.run_round(round_instances[t]);
      const auto reference_out = reference.run_round(round_instances[t]);
      expect_same_round(warm_out, cold_out, "warm vs cold");
      expect_same_round(warm_out, reference_out, "warm vs eager_reference");
      for (seller_id s = 0; s <= max_seller; ++s) {
        EXPECT_EQ(warm.psi(s), cold.psi(s)) << "seller " << s;
        EXPECT_EQ(warm.capacity_used(s), cold.capacity_used(s))
            << "seller " << s;
      }
    }
    EXPECT_EQ(warm.warm_rounds(), rounds - 1) << "trial " << trial;
    EXPECT_EQ(cold.warm_rounds(), 0u);
    EXPECT_EQ(reference.warm_rounds(), 0u);
  }
}

// ------------------------------------------------------- SIMD tier sweeps

// When CI pins ECRS_SIMD=off (the forced-scalar lane), the dispatcher must
// actually be on the scalar tier. Registered before any test that calls
// simd::force(), so the lazily-initialized env decision is still in effect.
TEST(CompiledFuzz, SimdEnvOverrideRespected) {
  const char* env = std::getenv("ECRS_SIMD");
  if (env == nullptr) GTEST_SKIP() << "ECRS_SIMD not set";
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
      std::strcmp(env, "0") == 0) {
    EXPECT_EQ(simd::active_level(), simd::level::scalar);
  }
}

// The AVX2 tier, where the CPU supports it, must reproduce the forced-scalar run
// bit for bit — winners, payments, audit verdicts, certificate — under both
// payment rules (the selection and runner-up scans, plus the probe
// trajectories under critical_value). Instances are drawn
// so the kernels see every interesting shape:
//  - demander counts 8..16 make coverage-row lengths cross
//    simd::kIndexedThreshold and cover every residue of n mod 4 (the widest
//    int64 vector width), so every tail-loop length is exercised;
//  - coverage sizes are uniform in [1, demanders], so CSR row starts land
//    on arbitrary (misaligned) offsets into the coverage arena;
//  - growing seller counts sweep the bid count over every residue mod 4
//    for the ratio_argmin scans.
TEST(CompiledFuzz, SimdTiersBitwiseIdenticalAcrossRules) {
  if (simd::max_supported() == simd::level::scalar) {
    GTEST_SKIP() << "no vector tier on this CPU";
  }

  rng gen(0x51D0CAFEu);
  ssam_scratch scratch;
  for (int trial = 0; trial < 36; ++trial) {
    instance_config cfg = fuzz_config(gen);
    cfg.demanders = 8 + static_cast<std::size_t>(trial % 9);
    cfg.sellers = 5 + static_cast<std::size_t>(trial);
    cfg.coverage_fraction = 1.0;
    const auto inst = random_instance(cfg, gen);

    for (const payment_rule rule :
         {payment_rule::runner_up, payment_rule::critical_value}) {
      // A budget that never binds still turns on the in-loop runner-up
      // estimate scan under critical_value.
      for (const double budget : {0.0, 1e12}) {
        ssam_options opts;
        opts.rule = rule;
        opts.payment_budget = budget;
        opts.payment_threads = 1;
        opts.self_audit = true;

        ssam_result scalar_out;
        {
          const simd_tier_guard pin(simd::level::scalar);
          ASSERT_EQ(pin.installed(), simd::level::scalar);
          scalar_out = run_ssam(inst, opts, &scratch);
        }
        const simd_tier_guard pin(simd::level::avx2);
        ASSERT_EQ(pin.installed(), simd::level::avx2);
        expect_same_result(scalar_out, run_ssam(inst, opts, &scratch),
                           "avx2");
      }
    }
  }
}

// Misaligned CSR rows, explicitly: a leading 1-wide bid shifts every later
// row start to an odd uint32 offset, so no vector load in the wide rows is
// naturally aligned. All tiers must still agree with scalar bitwise.
TEST(CompiledFuzz, SimdTiersAgreeOnMisalignedRows) {
  if (simd::max_supported() == simd::level::scalar) {
    GTEST_SKIP() << "no vector tier on this CPU";
  }
  rng gen(0x0DDA117Eu);
  ssam_scratch scratch;
  for (int trial = 0; trial < 12; ++trial) {
    instance_config cfg;
    cfg.sellers = 9 + static_cast<std::size_t>(trial);
    cfg.demanders = 11 + static_cast<std::size_t>(trial % 5);
    cfg.bids_per_seller = 2;
    cfg.coverage_fraction = 1.0;
    single_stage_instance inst = random_instance(cfg, gen);
    // Force odd row starts: shrink bid 0's coverage to a single demander.
    inst.bids[0].coverage.resize(1);
    inst.validate();

    ssam_options opts;
    opts.rule = payment_rule::critical_value;
    opts.payment_threads = 1;
    opts.self_audit = true;

    ssam_result scalar_out;
    {
      const simd_tier_guard pin(simd::level::scalar);
      scalar_out = run_ssam(inst, opts, &scratch);
    }
    const simd_tier_guard pin(simd::max_supported());
    expect_same_result(scalar_out, run_ssam(inst, opts, &scratch),
                       "misaligned rows");
  }
}

}  // namespace
}  // namespace ecrs::auction
