#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/annotations.h"

#if defined(__x86_64__) || defined(__i386__)
#define ECRS_SIMD_X86 1
#include <immintrin.h>
#endif

namespace ecrs::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Largest int64 a double represents exactly via the 2^52 bias trick; any
// chunk holding a utility beyond this is processed scalar.
constexpr std::int64_t kMaxExactUtil = (std::int64_t{1} << 52) - 1;

// ------------------------------------------------------------------ scalar

ECRS_HOT std::int64_t sum_min_scalar(const std::int64_t* vals,
                                     const std::uint32_t* idx,
                            std::size_t n, std::int64_t bound) {
  std::int64_t acc = 0;
  for (std::size_t j = 0; j < n; ++j) {
    acc += std::min(bound, vals[idx[j]]);
  }
  return acc;
}

ECRS_HOT std::int64_t consume_min_scalar(std::int64_t* vals,
                                         const std::uint32_t* idx,
                                std::size_t n, std::int64_t bound) {
  std::int64_t acc = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::int64_t used = std::min(bound, vals[idx[j]]);
    vals[idx[j]] -= used;
    acc += used;
  }
  return acc;
}

// Fold rows [lo, hi) into `best` with the shared lexicographic update —
// also the tail/fallback path of the AVX2 tier, so every tier runs the
// identical per-element arithmetic.
ECRS_HOT void ratio_scan_scalar(const double* price,
                                const std::int64_t* util,
                       const std::uint32_t* seller, const char* seller_active,
                       std::size_t lo, std::size_t hi, std::uint32_t skip_index,
                       std::uint32_t skip_seller, ratio_best& best) {
  for (std::size_t j = lo; j < hi; ++j) {
    if (j == skip_index) continue;
    const std::uint32_t s = seller[j];
    if (s == skip_seller || !seller_active[s]) continue;
    const std::int64_t u = util[j];
    if (u <= 0) continue;
    const double r = price[j] / static_cast<double>(u);
    if (r < best.ratio || (r == best.ratio &&
                           static_cast<std::uint32_t>(j) < best.index)) {
      best.ratio = r;
      best.index = static_cast<std::uint32_t>(j);
    }
  }
}

ECRS_HOT ratio_best ratio_argmin_scalar(const double* price,
                                        const std::int64_t* util,
                               const std::uint32_t* seller,
                               const char* seller_active, std::size_t n,
                               std::uint32_t skip_index,
                               std::uint32_t skip_seller) {
  ratio_best best{kInf, kNoIndex};
  ratio_scan_scalar(price, util, seller, seller_active, 0, n, skip_index,
                    skip_seller, best);
  return best;
}

#if defined(ECRS_SIMD_X86)

// -------------------------------------------------------------------- AVX2
// Compiled with a per-function target attribute so the rest of the binary
// stays at the baseline ISA; only reached when detection says the CPU has
// AVX2.

__attribute__((target("avx2"))) ECRS_HOT inline __m256i min_epi64_avx2(
    __m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

__attribute__((target("avx2"))) ECRS_HOT inline std::int64_t hsum_epi64_avx2(
    __m256i v) {
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

__attribute__((target("avx2"))) ECRS_HOT std::int64_t sum_min_avx2(
    const std::int64_t* vals, const std::uint32_t* idx, std::size_t n,
    std::int64_t bound) {
  const __m256i b = _mm256_set1_epi64x(bound);
  __m256i acc = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + j));
    const __m256i g = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(vals), vi, 8);
    acc = _mm256_add_epi64(acc, min_epi64_avx2(g, b));
  }
  std::int64_t total = hsum_epi64_avx2(acc);
  for (; j < n; ++j) total += std::min(bound, vals[idx[j]]);
  return total;
}

__attribute__((target("avx2"))) ECRS_HOT std::int64_t consume_min_avx2(
    std::int64_t* vals, const std::uint32_t* idx, std::size_t n,
    std::int64_t bound) {
  const __m256i b = _mm256_set1_epi64x(bound);
  __m256i acc = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + j));
    const __m256i g = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(vals), vi, 8);
    const __m256i used = min_epi64_avx2(g, b);
    const __m256i rem = _mm256_sub_epi64(g, used);
    // No 64-bit scatter below AVX-512: four scalar stores. Distinct indices
    // (kernel contract) make the gather+store round-trip exact.
    alignas(32) std::int64_t rbuf[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(rbuf), rem);
    vals[idx[j]] = rbuf[0];
    vals[idx[j + 1]] = rbuf[1];
    vals[idx[j + 2]] = rbuf[2];
    vals[idx[j + 3]] = rbuf[3];
    acc = _mm256_add_epi64(acc, used);
  }
  std::int64_t total = hsum_epi64_avx2(acc);
  for (; j < n; ++j) {
    const std::int64_t used = std::min(bound, vals[idx[j]]);
    vals[idx[j]] -= used;
    total += used;
  }
  return total;
}

// ECRS_NO_SANITIZE_INTEGER: the 2^52 magic-bias int64->double conversion
// and the int64 lane-index -> uint32 narrowing are exact by construction
// (guarded by kMaxExactUtil), but look like implicit-conversion findings to
// -fsanitize=integer.
__attribute__((target("avx2"))) ECRS_HOT ECRS_NO_SANITIZE_INTEGER ratio_best
ratio_argmin_avx2(
    const double* price, const std::int64_t* util, const std::uint32_t* seller,
    const char* seller_active, std::size_t n, std::uint32_t skip_index,
    std::uint32_t skip_seller) {
  ratio_best best{kInf, kNoIndex};
  const __m256i magic_bits = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d magic = _mm256_castsi256_pd(magic_bits);
  const __m256d inf = _mm256_set1_pd(kInf);
  __m256d lane_best = inf;
  __m256i lane_idx = _mm256_set1_epi64x(-1);
  const __m256i iota = _mm256_set_epi64x(3, 2, 1, 0);

  auto lane_ok = [&](std::size_t jj) -> long long {
    if (jj == skip_index) return 0;
    const std::uint32_t s = seller[jj];
    if (s == skip_seller || !seller_active[s]) return 0;
    return -1LL;
  };

  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i u =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(util + j));
    // Exact-conversion guard: any utility >= 2^52 sends the chunk scalar.
    if (_mm256_movemask_pd(_mm256_castsi256_pd(
            _mm256_cmpgt_epi64(u, _mm256_set1_epi64x(kMaxExactUtil))))) {
      ratio_scan_scalar(price, util, seller, seller_active, j, j + 4,
                        skip_index, skip_seller, best);
      continue;
    }
    // Liveness: util > 0 vectorized; the byte-indexed seller liveness and
    // skip rules have no vector form, so they fold in scalar per lane.
    const __m256i live =
        _mm256_set_epi64x(lane_ok(j + 3), lane_ok(j + 2), lane_ok(j + 1),
                          lane_ok(j));
    const __m256i mask = _mm256_and_si256(
        _mm256_cmpgt_epi64(u, _mm256_setzero_si256()), live);
    if (_mm256_testz_si256(mask, mask)) continue;
    const __m256d ud = _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_or_si256(_mm256_and_si256(u, mask), magic_bits)),
        magic);
    const __m256d p = _mm256_loadu_pd(price + j);
    __m256d r = _mm256_div_pd(p, ud);
    // Dead lanes become +inf so a 0/0 NaN never reaches the compare.
    r = _mm256_blendv_pd(inf, r, _mm256_castsi256_pd(mask));
    const __m256d lt = _mm256_cmp_pd(r, lane_best, _CMP_LT_OQ);
    lane_best = _mm256_blendv_pd(lane_best, r, lt);
    const __m256i cur =
        _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(j)), iota);
    lane_idx = _mm256_blendv_epi8(lane_idx, cur, _mm256_castpd_si256(lt));
  }
  ratio_scan_scalar(price, util, seller, seller_active, j, n, skip_index,
                    skip_seller, best);

  alignas(32) double rbuf[4];
  alignas(32) std::int64_t ibuf[4];
  _mm256_store_pd(rbuf, lane_best);
  _mm256_store_si256(reinterpret_cast<__m256i*>(ibuf), lane_idx);
  for (int k = 0; k < 4; ++k) {
    if (ibuf[k] < 0) continue;
    const auto cand = static_cast<std::uint32_t>(ibuf[k]);
    if (rbuf[k] < best.ratio || (rbuf[k] == best.ratio && cand < best.index)) {
      best.ratio = rbuf[k];
      best.index = cand;
    }
  }
  return best;
}

#endif  // ECRS_SIMD_X86

// --------------------------------------------------------------- dispatch

constexpr kernel_table kScalarTable{level::scalar, sum_min_scalar,
                                    consume_min_scalar, ratio_argmin_scalar};
#if defined(ECRS_SIMD_X86)
constexpr kernel_table kAvx2Table{level::avx2, sum_min_avx2, consume_min_avx2,
                                  ratio_argmin_avx2};
#endif

level detect() {
#if defined(ECRS_SIMD_X86)
  return __builtin_cpu_supports("avx2") ? level::avx2 : level::scalar;
#else
  return level::scalar;
#endif
}

const kernel_table& table_for(level l) {
#if defined(ECRS_SIMD_X86)
  switch (l) {
    case level::avx2: return kAvx2Table;
    case level::scalar: break;
  }
#else
  (void)l;
#endif
  return kScalarTable;
}

level clamp_to_support(level l) { return std::min(l, detect()); }

level env_level() {
  const char* env = std::getenv("ECRS_SIMD");
  if (env == nullptr) return detect();
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
      std::strcmp(env, "0") == 0) {
    return level::scalar;
  }
  if (std::strcmp(env, "avx2") == 0) return clamp_to_support(level::avx2);
  return detect();  // unknown value: auto
}

std::atomic<const kernel_table*> g_active{nullptr};

}  // namespace

const char* to_string(level l) {
  switch (l) {
    case level::scalar: return "scalar";
    case level::avx2: return "avx2";
  }
  return "unknown";
}

const kernel_table& active() {
  const kernel_table* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Benign race: concurrent first calls resolve the same env/CPU answer.
    table = &table_for(env_level());
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

level active_level() { return active().tier; }

level max_supported() { return detect(); }

level force(level l) {
  const kernel_table& table = table_for(clamp_to_support(l));
  g_active.store(&table, std::memory_order_release);
  return table.tier;
}

}  // namespace ecrs::simd
