// Google-benchmark microbenchmarks for the performance-critical kernels:
// SSAM winner selection (Theorem 2's polynomial-time claim, paper Fig. 4b),
// the exact reference solvers, the simplex, the DES core, the workload
// generator, and the SIMD kernels at the scalar and the best tier.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "auction/exact.h"
#include "auction/instance_gen.h"
#include "auction/local_search.h"
#include "auction/msoa.h"
#include "auction/ssam.h"
#include "common/rng.h"
#include "common/simd.h"
#include "demand/estimator.h"
#include "des/simulator.h"
#include "edge/fair_share.h"
#include "lp/simplex.h"
#include "workload/generator.h"

namespace {

ecrs::auction::single_stage_instance make_instance(std::size_t sellers,
                                                   std::size_t demanders,
                                                   std::size_t bids) {
  ecrs::rng gen(42);
  ecrs::auction::instance_config cfg;
  cfg.sellers = sellers;
  cfg.demanders = demanders;
  cfg.bids_per_seller = bids;
  return ecrs::auction::random_instance(cfg, gen);
}

// Before/after pair: the eager oracle's O(n²·m) selection scan over the bid
// vectors vs the compiled selection loop greedy_selection routes through.
void BM_SsamSelectionEager(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::eager_greedy_selection(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SsamSelectionEager)->RangeMultiplier(2)->Range(25, 400)->Complexity();

void BM_SsamSelectionCompiled(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::greedy_selection(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SsamSelectionCompiled)->RangeMultiplier(2)->Range(25, 400)->Complexity();

// Selection plus runner-up payments under the full mechanism: runner_up
// calls run the compiled eager scan.
void BM_SsamRunnerUpAuto(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst));
  }
}
BENCHMARK(BM_SsamRunnerUpAuto)->Arg(100)->Arg(400);

// Allocation-reuse pair: the same mechanism call with and without a
// persistent ssam_scratch (what msoa_session and the sweep engine thread
// through every call).
void BM_SsamFreshWorkspace(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst, {}, nullptr));
  }
}
BENCHMARK(BM_SsamFreshWorkspace)->Arg(100)->Arg(400);

void BM_SsamPersistentWorkspace(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  ecrs::auction::ssam_scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst, {}, &scratch));
  }
}
BENCHMARK(BM_SsamPersistentWorkspace)->Arg(100)->Arg(400);

void BM_LocalSearchImprovement(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::improve_selection(inst));
  }
}
BENCHMARK(BM_LocalSearchImprovement)->Arg(25)->Arg(100);

void BM_SsamFullMechanism(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst));
  }
}
BENCHMARK(BM_SsamFullMechanism)->Arg(25)->Arg(100)->Arg(400);

void BM_SsamCriticalValuePayments(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 3, 2);
  ecrs::auction::ssam_options opts;
  opts.rule = ecrs::auction::payment_rule::critical_value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst, opts));
  }
}
BENCHMARK(BM_SsamCriticalValuePayments)->Arg(10)->Arg(25);

// Before/after pair for the full critical-value mechanism at the paper's
// largest single-round size (75 sellers × 5 bids): the eager oracle (eager
// rescans, full probe auctions, serial payments) vs the compiled engine
// (compiled selection, trajectory probes, parallel payments). Both runs are verified
// to produce identical winner sequences and payments (the bisection
// tolerance is shared) before timing starts.
const ecrs::auction::single_stage_instance& critical_value_75x5_instance() {
  static const auto inst = make_instance(75, 5, 5);
  return inst;
}

void verify_eager_compiled_equivalence(
    benchmark::State& state, const ecrs::auction::ssam_result& eager,
    const ecrs::auction::ssam_result& compiled) {
  if (eager.winners.size() != compiled.winners.size()) {
    state.SkipWithError("eager/compiled winner counts diverged");
    return;
  }
  for (std::size_t i = 0; i < eager.winners.size(); ++i) {
    if (eager.winners[i].bid_index != compiled.winners[i].bid_index ||
        eager.winners[i].payment != compiled.winners[i].payment) {
      state.SkipWithError("eager/compiled winners or payments diverged");
      return;
    }
  }
}

void BM_SsamCriticalValue75x5Eager(benchmark::State& state) {
  const auto& inst = critical_value_75x5_instance();
  ecrs::auction::ssam_options before;
  before.rule = ecrs::auction::payment_rule::critical_value;
  before.eager_reference = true;
  before.payment_threads = 1;
  ecrs::auction::ssam_options after;
  after.rule = ecrs::auction::payment_rule::critical_value;
  verify_eager_compiled_equivalence(state,
                                   ecrs::auction::run_ssam(inst, before),
                                   ecrs::auction::run_ssam(inst, after));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst, before));
  }
}
BENCHMARK(BM_SsamCriticalValue75x5Eager);

void BM_SsamCriticalValue75x5Compiled(benchmark::State& state) {
  const auto& inst = critical_value_75x5_instance();
  ecrs::auction::ssam_options after;
  after.rule = ecrs::auction::payment_rule::critical_value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst, after));
  }
}
BENCHMARK(BM_SsamCriticalValue75x5Compiled);

void BM_ExactDp(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::solve_exact(inst));
  }
}
BENCHMARK(BM_ExactDp)->Arg(10)->Arg(25)->Arg(50);

void BM_ExactBranchAndBound(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::solve_exact(inst));
  }
}
BENCHMARK(BM_ExactBranchAndBound)->Arg(8)->Arg(12);

void BM_LpBound(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::lp_bound(inst));
  }
}
BENCHMARK(BM_LpBound)->Arg(25)->Arg(75);

void BM_MsoaHorizon(benchmark::State& state) {
  ecrs::rng gen(7);
  ecrs::auction::online_config cfg;
  cfg.stage.sellers = 25;
  cfg.stage.demanders = 5;
  cfg.rounds = static_cast<std::size_t>(state.range(0));
  const auto inst = ecrs::auction::random_online_instance(cfg, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_msoa(inst));
  }
}
BENCHMARK(BM_MsoaHorizon)->Arg(5)->Arg(10)->Arg(15);

void BM_SimplexRandomCover(benchmark::State& state) {
  ecrs::rng gen(3);
  ecrs::lp::model m;
  const auto vars = static_cast<std::size_t>(state.range(0));
  for (std::size_t v = 0; v < vars; ++v) {
    m.add_variable(gen.uniform_real(1.0, 10.0));
  }
  for (std::size_t r = 0; r < vars / 2; ++r) {
    std::vector<std::pair<std::size_t, double>> row;
    for (std::size_t v = 0; v < vars; ++v) {
      if (gen.bernoulli(0.3)) row.emplace_back(v, gen.uniform_real(0.5, 2.0));
    }
    if (row.empty()) row.emplace_back(0, 1.0);
    m.add_constraint(row, ecrs::lp::row_sense::ge, gen.uniform_real(1.0, 5.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::lp::solve(m));
  }
}
BENCHMARK(BM_SimplexRandomCover)->Arg(50)->Arg(200);

void BM_DesEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    ecrs::des::simulator sim;
    ecrs::rng gen(1);
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(gen.uniform_real(0.0, 1000.0), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
}
BENCHMARK(BM_DesEventThroughput);

void BM_WorkloadRound(benchmark::State& state) {
  ecrs::workload::generator_config cfg;
  cfg.users = 300;
  cfg.microservices = 25;
  ecrs::workload::generator gen(cfg);
  double now = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.round(now, 600.0));
    now += 600.0;
  }
}
BENCHMARK(BM_WorkloadRound);

void BM_MaxMinFairShare(benchmark::State& state) {
  ecrs::rng gen(5);
  std::vector<double> demands(static_cast<std::size_t>(state.range(0)));
  for (double& d : demands) d = gen.uniform_real(0.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::edge::max_min_fair_share(demands, 100.0));
  }
}
BENCHMARK(BM_MaxMinFairShare)->Arg(10)->Arg(1000);

void BM_DemandEstimatorRound(benchmark::State& state) {
  ecrs::demand::estimator est(ecrs::demand::make_default_config());
  std::vector<ecrs::edge::round_stats> stats(25);
  for (std::size_t s = 0; s < stats.size(); ++s) {
    stats[s].microservice = static_cast<std::uint32_t>(s);
    stats[s].round = 1;
    stats[s].received = 100;
    stats[s].served = 90;
    stats[s].arrived_work = 100.0;
    stats[s].served_work = 90.0;
    stats[s].backlog_work = 10.0;
    stats[s].allocation = 1.0 + static_cast<double>(s);
    stats[s].utilization = 0.7;
    stats[s].cloud_population = 3;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.estimate_round(stats));
  }
}
BENCHMARK(BM_DemandEstimatorRound);

// SIMD kernel lanes: the three ecrs::simd kernels on synthetic rows far
// above simd::kIndexedThreshold, with stride-walked distinct indices (the
// gather pattern wide CSR coverage rows produce). Arg 0 pins the scalar
// tier, Arg 1 the best tier this CPU supports.
struct kernel_rows {
  static constexpr std::size_t kVals = std::size_t{1} << 16;
  static constexpr std::size_t kRow = 4096;
  static constexpr std::size_t kRows = 16;
  static constexpr std::int64_t kBound = 24;
  std::vector<std::int64_t> vals;
  std::vector<std::uint32_t> idx;  // kRows rows of kRow distinct indices
  std::vector<double> price;       // ratio_argmin candidates: 4 * kRow
  std::vector<std::int64_t> util;
  std::vector<std::uint32_t> seller;
  std::vector<char> active;

  kernel_rows() : vals(kVals), idx(kRow * kRows), active(256, 1) {
    ecrs::rng gen(0x51D0);
    for (auto& v : vals) v = gen.uniform_int(0, 48);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      // Coprime stride walk: distinct within each row.
      idx[j] = static_cast<std::uint32_t>((j * 7919) % kVals);
    }
    for (std::size_t j = 0; j < 4 * kRow; ++j) {
      price.push_back(gen.uniform_real(1.0, 40.0));
      util.push_back(gen.uniform_int(0, 30));
      seller.push_back(static_cast<std::uint32_t>(gen.uniform_int(0, 255)));
    }
  }

  [[nodiscard]] const std::uint32_t* row(std::size_t call) const {
    return idx.data() + (call % kRows) * kRow;
  }
};

const kernel_rows& kernel_workload() {
  static const kernel_rows rows;
  return rows;
}

// Installs the tier a kernel lane's Arg selects for the lane's lifetime and
// restores the dispatcher's previous tier afterwards.
class kernel_tier {
 public:
  explicit kernel_tier(benchmark::State& state)
      : saved_(ecrs::simd::active_level()) {
    const ecrs::simd::level tier =
        ecrs::simd::force(state.range(0) == 0 ? ecrs::simd::level::scalar
                                              : ecrs::simd::max_supported());
    state.SetLabel(ecrs::simd::to_string(tier));
  }
  ~kernel_tier() { ecrs::simd::force(saved_); }
  kernel_tier(const kernel_tier&) = delete;
  kernel_tier& operator=(const kernel_tier&) = delete;

 private:
  ecrs::simd::level saved_;
};

void BM_KernelSumMin(benchmark::State& state) {
  const kernel_rows& w = kernel_workload();
  const kernel_tier tier(state);
  std::size_t call = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::simd::sum_min_indexed(
        w.vals.data(), w.row(call++), kernel_rows::kRow, kernel_rows::kBound));
  }
  // Each element gathers an 8-byte value through a 4-byte index.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kernel_rows::kRow * 12));
}
BENCHMARK(BM_KernelSumMin)->Arg(0)->Arg(1);

void BM_KernelConsumeMin(benchmark::State& state) {
  const kernel_rows& w = kernel_workload();
  const kernel_tier tier(state);
  // The values drain toward 0 across calls; every tier's work is
  // data-independent, so the lane's cost does not drift with them.
  std::vector<std::int64_t> vals = w.vals;
  std::size_t call = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vals.data());
    benchmark::DoNotOptimize(ecrs::simd::consume_min_indexed(
        vals.data(), w.row(call++), kernel_rows::kRow, kernel_rows::kBound));
    benchmark::ClobberMemory();
  }
  // Each element reads and writes back an 8-byte value through a 4-byte
  // index.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kernel_rows::kRow * 20));
}
BENCHMARK(BM_KernelConsumeMin)->Arg(0)->Arg(1);

void BM_KernelRatioArgmin(benchmark::State& state) {
  const kernel_rows& w = kernel_workload();
  const kernel_tier tier(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::simd::ratio_argmin(
        w.price.data(), w.util.data(), w.seller.data(), w.active.data(),
        w.price.size(), ecrs::simd::kNoIndex, ecrs::simd::kNoSeller));
  }
  // Each candidate reads an 8-byte price, an 8-byte utility, a 4-byte
  // seller and its 1-byte liveness flag.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.price.size() * 21));
}
BENCHMARK(BM_KernelRatioArgmin)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
