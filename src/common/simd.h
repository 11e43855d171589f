// Runtime-dispatched SIMD kernels for the compiled auction hot loops.
//
// Three kernels cover the loops that dominate a critical-value call
// (auction/compiled.h, auction/ssam.cc):
//
//  - sum_min_indexed     Σ_j min(bound, vals[idx[j]]) — the marginal-utility
//                        accumulation over a CSR coverage row;
//  - consume_min_indexed same walk, but decrements vals[idx[j]] by the min
//                        and returns the total consumed — the
//                        coverage-decrement sweep of applying a winner;
//  - ratio_argmin        lexicographic (price/util, index) minimum over the
//                        live candidate rows — the eager selection scan, the
//                        probe-trajectory argmin, and the runner-up scan.
//
// Each has a scalar and an AVX2 implementation selected once at startup
// (CPU detection, overridable via the ECRS_SIMD environment variable or the
// force() test hook) through a table of function pointers. Every tier is
// BITWISE-IDENTICAL by construction, not just "close":
//
//  - the two indexed kernels are pure int64 arithmetic; reordering the
//    additions is exact. They require the index row to hold DISTINCT
//    indices (CSR coverage rows are sorted unique), otherwise the gathered
//    read-modify-write of consume_min_indexed would lose updates;
//  - ratio_argmin performs the same IEEE double division per element in
//    every tier. The AVX2 tier converts int64 utilities to double with
//    the exact 2^52 bias trick and fall back to scalar for any chunk
//    holding a utility >= 2^52 (outside the exact range); dead lanes are
//    blended to +inf before the compare so a 0/0 NaN never participates.
//    Lane-local strict-< keeps the first (smallest-index) occurrence per
//    lane and the horizontal reduce is (ratio, index)-lexicographic, which
//    reproduces the scalar ascending scan's argmin exactly.
//
// ECRS_SIMD values: "off" / "scalar" / "0" pin the scalar tier, "avx2"
// pins that tier (clamped to what the CPU supports), anything else —
// including unset — auto-detects. See DESIGN.md §11.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/annotations.h"

namespace ecrs::simd {

// Instruction-set tier of a kernel table. scalar is always available (and
// is the tier of CPUs without AVX2); avx2 is detected at runtime on x86-64.
enum class level : int { scalar = 0, avx2 = 1 };

[[nodiscard]] const char* to_string(level l);

// ratio_argmin sentinels: "no candidate found" / "exclude no seller".
inline constexpr std::uint32_t kNoIndex = 0xFFFFFFFFu;
inline constexpr std::uint32_t kNoSeller = 0xFFFFFFFFu;

// CSR rows shorter than this stay on the caller's inlined scalar loop: the
// dispatch (one relaxed atomic load + one indirect call) plus the gather
// setup costs more than a handful of scalar iterations. Typical bench
// coverage rows are ~5 wide and must not regress.
inline constexpr std::size_t kIndexedThreshold = 8;

struct ratio_best {
  double ratio = 0.0;        // +inf when index == kNoIndex
  std::uint32_t index = 0;
};

// One tier's kernel set. All pointers are always non-null.
struct kernel_table {
  level tier;
  std::int64_t (*sum_min_indexed)(const std::int64_t* vals,
                                  const std::uint32_t* idx, std::size_t n,
                                  std::int64_t bound);
  std::int64_t (*consume_min_indexed)(std::int64_t* vals,
                                      const std::uint32_t* idx, std::size_t n,
                                      std::int64_t bound);
  ratio_best (*ratio_argmin)(const double* price, const std::int64_t* util,
                             const std::uint32_t* seller,
                             const char* seller_active, std::size_t n,
                             std::uint32_t skip_index,
                             std::uint32_t skip_seller);
};

// The dispatched table (lazy-initialized, thread-safe, stable between
// force() calls).
[[nodiscard]] const kernel_table& active();
[[nodiscard]] level active_level();
// Highest tier this CPU can run.
[[nodiscard]] level max_supported();
// Test/bench hook: install the given tier's table (clamped to
// max_supported()); returns the tier actually installed. Not intended for
// use while kernels are running on other threads.
level force(level l);

// Σ_j min(bound, vals[idx[j]]) for j in [0, n). Indices must be distinct.
[[nodiscard]] ECRS_HOT inline std::int64_t sum_min_indexed(
    const std::int64_t* vals, const std::uint32_t* idx, std::size_t n,
    std::int64_t bound) {
  return active().sum_min_indexed(vals, idx, n, bound);
}

// For each j: used = min(bound, vals[idx[j]]); vals[idx[j]] -= used.
// Returns Σ used. Indices must be distinct.
ECRS_HOT inline std::int64_t consume_min_indexed(std::int64_t* vals,
                                                 const std::uint32_t* idx,
                                                 std::size_t n,
                                                 std::int64_t bound) {
  return active().consume_min_indexed(vals, idx, n, bound);
}

// Lexicographic (price[j] / util[j], j) minimum over the candidate rows
// j in [0, n) with util[j] > 0, seller_active[seller[j]] != 0,
// j != skip_index and seller[j] != skip_seller. Returns
// {+inf, kNoIndex} when no row qualifies.
[[nodiscard]] ECRS_HOT inline ratio_best ratio_argmin(
    const double* price, const std::int64_t* util, const std::uint32_t* seller,
    const char* seller_active, std::size_t n, std::uint32_t skip_index,
    std::uint32_t skip_seller) {
  return active().ratio_argmin(price, util, seller, seller_active, n,
                               skip_index, skip_seller);
}

}  // namespace ecrs::simd
