// Lanes for BENCH_pr4.json / BENCH_pr6.json: the compiled CSR instance
// layout (auction/compiled.h) and the MSOA warm-start cache, plus the PR 6
// SIMD kernel micro-lanes and the allocation-free steady-state path.
//
// Workloads, all with critical-value payments on one thread:
//  - a standing-bid MSOA session (same bid vector every round, one demand
//    entry re-drawn per round) over T rounds with n bids: compiled cold
//    rounds (warm_start=false) vs. compiled + warm-start patching;
//  - a single-shot run_ssam on the same stage size: compiled vs. the
//    allocation-free into-API on a pre-compiled view;
//  - the cost of compile() itself, and allocations per session horizon /
//    per steady-state critical-value call (expected 0.0);
//  - the three ecrs::simd kernels on synthetic wide rows, forced-scalar vs.
//    the best tier the CPU offers, with a bytes-touched/roofline report
//    against measured memcpy bandwidth (the indexed kernels are gather
//    bound, so "fraction of memcpy" is the honest ceiling).
// Before timing, a bitwise checksum cross-check aborts unless the warm,
// cold and eager-oracle (ssam_options::eager_reference) sessions agree.
//
// Flags:
//   --trials=N    repeats per timing, mean/stddev reported (default 7)
//   --seed=N      master seed (default 1)
//   --threads=N   payment probe threads (default 1: the acceptance numbers
//                 isolate the layout, not the parallel fan-out)
//   --rounds=N    session horizon T (default 12)
//   --sellers=N   sellers, 2 bids each => n = 2N bids (default 110)
#include <cstdio>
#include <cstdlib>
#include <new>

#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "auction/compiled.h"
#include "auction/instance_gen.h"
#include "auction/msoa.h"
#include "auction/online.h"
#include "auction/ssam.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stopwatch.h"

namespace {

// Process-wide allocation counter (same device as bench/sweep_scaling.cc):
// counter reads around a call give allocations per call.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace ecrs;
using namespace ecrs::auction;

std::uint64_t allocations_now() {
  return g_allocations.load(std::memory_order_relaxed);
}

struct timing {
  double mean_ns = 0.0;
  double stddev_ns = 0.0;
};

// Mean/stddev of fn()'s wall clock over `trials` runs (one warm-up first).
template <typename Fn>
timing time_ns(std::size_t trials, Fn&& fn) {
  fn();  // warm-up: page in code, grow buffers
  std::vector<double> samples;
  samples.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    stopwatch clock;
    fn();
    samples.push_back(clock.elapsed_seconds() * 1e9);
  }
  timing out;
  for (double s : samples) out.mean_ns += s;
  out.mean_ns /= static_cast<double>(samples.size());
  for (double s : samples) {
    out.stddev_ns += (s - out.mean_ns) * (s - out.mean_ns);
  }
  out.stddev_ns = std::sqrt(out.stddev_ns / static_cast<double>(samples.size()));
  return out;
}

void print_result(const char* name, const timing& t, bool trailing_comma) {
  std::printf("    \"%s\": {\"mean_ns\": %.0f, \"stddev_ns\": %.0f}%s\n",
              name, t.mean_ns, t.stddev_ns, trailing_comma ? "," : "");
}

// The standing-bid horizon: the same bid vector every round; one demand
// entry is re-drawn per round so the warm path patches both prices (ψ) and
// requirements.
std::vector<single_stage_instance> make_rounds(const single_stage_instance& base,
                                               std::size_t rounds, rng& gen) {
  std::vector<single_stage_instance> out;
  out.reserve(rounds);
  single_stage_instance round = base;
  for (std::size_t t = 0; t < rounds; ++t) {
    if (t > 0) {
      const auto k = static_cast<std::size_t>(gen.uniform_int(
          0, static_cast<std::int64_t>(round.requirements.size()) - 1));
      round.requirements[k] = gen.uniform_int(
          base.requirements[k] / 2, base.requirements[k]);
    }
    out.push_back(round);
  }
  return out;
}

// One full session horizon; returns a bitwise-comparable checksum.
double run_session(const std::vector<seller_profile>& profiles,
                   const std::vector<single_stage_instance>& rounds,
                   const msoa_options& opts) {
  msoa_session session(profiles, opts);
  double checksum = 0.0;
  for (const auto& round : rounds) {
    const auto outcome = session.run_round(round);
    checksum += outcome.social_cost;
    for (double p : outcome.payments) checksum += p;
  }
  return checksum;
}

template <typename Fn>
double allocations_per_call(std::size_t calls, Fn&& fn) {
  fn();  // warm-up
  const std::uint64_t before = allocations_now();
  for (std::size_t c = 0; c < calls; ++c) fn();
  return static_cast<double>(allocations_now() - before) /
         static_cast<double>(calls);
}

// ------------------------------------------------------ SIMD kernel lanes

// Synthetic wide-row workload for the three ecrs::simd kernels: rows far
// above simd::kIndexedThreshold, stride-walked distinct indices (the gather
// pattern real CSR coverage rows produce once instances grow).
struct kernel_workload {
  std::vector<std::int64_t> vals;
  std::vector<std::int64_t> scratch;   // consume target, reset per call
  std::vector<std::uint32_t> idx;
  std::vector<double> price;
  std::vector<std::int64_t> util;
  std::vector<std::uint32_t> seller;
  std::vector<char> active;
  std::size_t row = 0;                 // indexed-row length
  std::size_t reps = 0;                // kernel calls per timed fn()
  std::int64_t bound = 0;
  std::int64_t sink = 0;               // defeats dead-code elimination

  explicit kernel_workload(rng& gen) {
    constexpr std::size_t kVals = std::size_t{1} << 16;
    row = 4096;
    reps = 64;
    bound = 24;
    vals.resize(kVals);
    for (auto& v : vals) v = gen.uniform_int(0, 48);
    scratch = vals;
    idx.resize(row * reps);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      // Coprime stride walk: distinct within each row of `row` entries.
      idx[j] = static_cast<std::uint32_t>((j * 7919) % kVals);
    }
    const std::size_t n = row * 4;  // ratio_argmin candidate count
    price.resize(n);
    util.resize(n);
    seller.resize(n);
    active.assign(256, 1);
    for (std::size_t j = 0; j < n; ++j) {
      price[j] = gen.uniform_real(1.0, 40.0);
      util[j] = gen.uniform_int(0, 30);
      seller[j] = static_cast<std::uint32_t>(gen.uniform_int(0, 255));
    }
  }
};

timing time_sum_min(std::size_t trials, kernel_workload& w) {
  return time_ns(trials, [&] {
    for (std::size_t r = 0; r < w.reps; ++r) {
      w.sink += simd::sum_min_indexed(w.vals.data(), w.idx.data() + r * w.row,
                                      w.row, w.bound);
    }
  });
}

timing time_consume_min(std::size_t trials, kernel_workload& w) {
  return time_ns(trials, [&] {
    // The reset memcpy is part of both tiers' timed region (identical cost),
    // so the ratio between lanes still isolates the kernel.
    std::memcpy(w.scratch.data(), w.vals.data(),
                w.vals.size() * sizeof(w.vals[0]));
    for (std::size_t r = 0; r < w.reps; ++r) {
      w.sink += simd::consume_min_indexed(w.scratch.data(),
                                          w.idx.data() + r * w.row, w.row,
                                          w.bound);
    }
  });
}

timing time_ratio_argmin(std::size_t trials, kernel_workload& w) {
  return time_ns(trials, [&] {
    for (std::size_t r = 0; r < w.reps; ++r) {
      const simd::ratio_best best = simd::ratio_argmin(
          w.price.data(), w.util.data(), w.seller.data(), w.active.data(),
          w.price.size(), simd::kNoIndex, simd::kNoSeller);
      w.sink += static_cast<std::int64_t>(best.index);
    }
  });
}

// Streaming-copy bandwidth of this machine: the roofline the kernel lanes
// are reported against.
double memcpy_gb_per_s(std::size_t trials) {
  constexpr std::size_t kBytes = std::size_t{16} << 20;
  std::vector<std::byte> src(kBytes), dst(kBytes);
  std::memset(src.data(), 0x5a, kBytes);
  const timing t = time_ns(trials, [&] {
    std::memcpy(dst.data(), src.data(), kBytes);
  });
  // 2x: a copy streams kBytes in and kBytes out.
  return 2.0 * static_cast<double>(kBytes) / t.mean_ns;
}

void print_roofline_lane(const char* name, double bytes_per_call,
                         const timing& t, double memcpy_gbs,
                         bool trailing_comma) {
  const double gbs = bytes_per_call / t.mean_ns;  // bytes/ns == GB/s
  std::printf("    \"%s\": {\"bytes_touched\": %.0f, \"gb_per_s\": %.2f, "
              "\"fraction_of_memcpy\": %.2f}%s\n",
              name, bytes_per_call, gbs, gbs / memcpy_gbs,
              trailing_comma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  const flags f(argc, argv);
  const auto trials = static_cast<std::size_t>(f.get_int("trials", 7));
  const auto seed = static_cast<std::uint64_t>(f.get_int("seed", 1));
  const auto threads = static_cast<std::size_t>(f.get_int("threads", 1));
  const auto rounds = static_cast<std::size_t>(f.get_int("rounds", 12));
  const auto sellers = static_cast<std::size_t>(f.get_int("sellers", 110));

  rng gen(seed);
  instance_config cfg;
  cfg.sellers = sellers;
  cfg.demanders = 5;
  cfg.bids_per_seller = 2;  // n = 2 * sellers bids
  const auto base = random_instance(cfg, gen);
  const auto round_instances = make_rounds(base, rounds, gen);

  seller_id max_seller = 0;
  for (const bid& b : base.bids) {
    if (b.seller > max_seller) max_seller = b.seller;
  }
  std::vector<seller_profile> profiles(max_seller + 1);
  for (auto& p : profiles) {
    p.capacity = 1000000;  // ample: admission is stable, warm-start stays on
    p.t_arrive = 1;
    p.t_depart = static_cast<std::uint32_t>(rounds);
  }

  msoa_options warm_opts;
  warm_opts.stage.rule = payment_rule::critical_value;
  warm_opts.stage.payment_threads = threads;
  warm_opts.stage.self_audit = false;
  msoa_options cold_opts = warm_opts;
  cold_opts.warm_start = false;
  msoa_options reference_opts = warm_opts;
  reference_opts.stage.eager_reference = true;

  // Bitwise cross-check before timing anything.
  const double check_warm = run_session(profiles, round_instances, warm_opts);
  const double check_cold = run_session(profiles, round_instances, cold_opts);
  const double check_reference =
      run_session(profiles, round_instances, reference_opts);
  ECRS_CHECK_MSG(check_warm == check_cold && check_warm == check_reference,
                 "session variants diverged: warm " << check_warm << " cold "
                     << check_cold << " eager_reference "
                     << check_reference);
  {
    msoa_session probe(profiles, warm_opts);
    for (const auto& round : round_instances) (void)probe.run_round(round);
    ECRS_CHECK_MSG(probe.warm_rounds() == rounds - 1,
                   "warm-start did not engage: " << probe.warm_rounds()
                       << " of " << rounds - 1 << " rounds warm");
  }

  const timing session_cold = time_ns(trials, [&] {
    (void)run_session(profiles, round_instances, cold_opts);
  });
  const timing session_warm = time_ns(trials, [&] {
    (void)run_session(profiles, round_instances, warm_opts);
  });

  // Single-shot run_ssam on the same stage size.
  ssam_options stage_compiled;
  stage_compiled.rule = payment_rule::critical_value;
  stage_compiled.payment_threads = threads;
  stage_compiled.self_audit = false;

  ssam_scratch scratch;
  const timing single_compiled = time_ns(trials, [&] {
    (void)run_ssam(base, stage_compiled, &scratch);
  });

  // compile() itself (the cost a warm round avoids, besides validate/copy).
  compiled_instance compiled;
  const timing compile_cost = time_ns(trials, [&] {
    compiled.compile(base);
  });

  // The allocation-free steady state: pre-compiled view + into-API +
  // serial payments, result vectors reused across calls.
  ssam_result into_result;
  const timing single_into = time_ns(trials, [&] {
    run_ssam(compiled, stage_compiled, &scratch, into_result);
  });
  {
    const ssam_result check = run_ssam(base, stage_compiled, &scratch);
    ECRS_CHECK_MSG(check.total_payment == into_result.total_payment &&
                       check.winners.size() == into_result.winners.size(),
                   "into-API diverged from the value overload");
  }

  const double allocs_cold = allocations_per_call(5, [&] {
    (void)run_session(profiles, round_instances, cold_opts);
  });
  const double allocs_warm = allocations_per_call(5, [&] {
    (void)run_session(profiles, round_instances, warm_opts);
  });
  const double allocs_into = allocations_per_call(20, [&] {
    run_ssam(compiled, stage_compiled, &scratch, into_result);
  });

  // SIMD kernel micro-lanes: forced scalar vs. the best tier available.
  rng kernel_gen(seed ^ 0x51D0ull);
  kernel_workload kernels(kernel_gen);
  const simd::level best_tier = simd::max_supported();
  simd::force(simd::level::scalar);
  const timing sum_scalar = time_sum_min(trials, kernels);
  const timing consume_scalar = time_consume_min(trials, kernels);
  const timing ratio_scalar = time_ratio_argmin(trials, kernels);
  simd::force(best_tier);
  const timing sum_simd = time_sum_min(trials, kernels);
  const timing consume_simd = time_consume_min(trials, kernels);
  const timing ratio_simd = time_ratio_argmin(trials, kernels);
  ECRS_CHECK_MSG(kernels.sink != 0, "kernel sink optimized away");

  const double memcpy_gbs = memcpy_gb_per_s(trials);
  const double calls_per_fn = static_cast<double>(kernels.reps);
  // Bytes each kernel call streams: the indexed kernels gather 8B values
  // through 4B indices (consume writes the value back), ratio_argmin reads
  // 8B price + 8B util + 4B seller (+1B liveness) per candidate.
  const double sum_bytes = calls_per_fn *
      static_cast<double>(kernels.row) * (8.0 + 4.0);
  const double consume_bytes = calls_per_fn *
      static_cast<double>(kernels.row) * (8.0 + 8.0 + 4.0);
  const double ratio_bytes = calls_per_fn *
      static_cast<double>(kernels.price.size()) * (8.0 + 8.0 + 4.0 + 1.0);

  std::printf("{\n");
  std::printf("  \"config\": {\"trials\": %zu, \"seed\": %llu, "
              "\"threads\": %zu, \"rounds\": %zu, \"bids\": %zu, "
              "\"demanders\": %zu},\n",
              trials, static_cast<unsigned long long>(seed), threads, rounds,
              base.bids.size(), base.requirements.size());
  std::printf("  \"bit_identical\": true,\n");
  std::printf("  \"simd_tier\": \"%s\",\n", simd::to_string(best_tier));
  std::printf("  \"results_ns_mean\": {\n");
  print_result("MsoaSessionCriticalCold", session_cold, true);
  print_result("MsoaSessionCriticalWarm", session_warm, true);
  print_result("SsamCriticalValueCompiled", single_compiled, true);
  print_result("SsamCriticalValueCompiledInto", single_into, true);
  print_result("CompileInstance", compile_cost, true);
  print_result("KernelSumMinScalar", sum_scalar, true);
  print_result("KernelSumMinSimd", sum_simd, true);
  print_result("KernelConsumeMinScalar", consume_scalar, true);
  print_result("KernelConsumeMinSimd", consume_simd, true);
  print_result("KernelRatioArgminScalar", ratio_scalar, true);
  print_result("KernelRatioArgminSimd", ratio_simd, false);
  std::printf("  },\n");
  std::printf("  \"allocations_per_session\": {\"cold\": %.1f, "
              "\"warm\": %.1f},\n",
              allocs_cold, allocs_warm);
  std::printf("  \"allocations_per_critical_value_call\": %.1f,\n",
              allocs_into);
  std::printf("  \"roofline\": {\n");
  std::printf("    \"memcpy_gb_per_s\": %.2f,\n", memcpy_gbs);
  print_roofline_lane("KernelSumMinSimd", sum_bytes, sum_simd, memcpy_gbs,
                      true);
  print_roofline_lane("KernelConsumeMinSimd", consume_bytes, consume_simd,
                      memcpy_gbs, true);
  print_roofline_lane("KernelRatioArgminSimd", ratio_bytes, ratio_simd,
                      memcpy_gbs, false);
  std::printf("  },\n");
  std::printf("  \"speedups\": {\n");
  std::printf("    \"session_warm_over_cold\": %.2f,\n",
              session_cold.mean_ns / session_warm.mean_ns);
  std::printf("    \"kernel_sum_min_simd_over_scalar\": %.2f,\n",
              sum_scalar.mean_ns / sum_simd.mean_ns);
  std::printf("    \"kernel_consume_min_simd_over_scalar\": %.2f,\n",
              consume_scalar.mean_ns / consume_simd.mean_ns);
  std::printf("    \"kernel_ratio_argmin_simd_over_scalar\": %.2f\n",
              ratio_scalar.mean_ns / ratio_simd.mean_ns);
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
