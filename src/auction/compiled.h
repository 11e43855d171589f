// Compiled (CSR / structure-of-arrays) view of a single_stage_instance.
//
// The mechanism hot paths (ssam.cc) used to walk `bid::coverage` — one
// heap-allocated vector per bid — for every marginal-utility evaluation.
// A compiled_instance flattens the whole instance once:
//
//  - per-bid SoA rows: price, amount, seller, and a (offset, length) slice
//    into one contiguous demander-id arena (CSR over coverage sets);
//  - an inverted index (demander -> bids covering it, also CSR), so
//    applying a winner re-scores exactly the bids whose marginal utility
//    actually changed (the scored_state the selection loop and the probe
//    trajectories run on), and requirement patches touch only the
//    affected rows;
//  - the empty-state marginal utilities U_ij(∅), built once instead of
//    per call;
//  - cached instance-level scalars (distinct seller count, max seller id,
//    total requirement, total supply) that the bid-vector API recomputes
//    per call.
//
// Warm-start patching (MSOA, §IV-E): across rounds of an online session
// only per-seller price offsets ∇ = J + |S_ij|·ψ_i and the requirement
// vector change. set_price / set_requirement update the affected rows in
// place (a requirement patch re-derives the initial utilities of the
// covering bids only), so a patched view is bit-identical to a cold
// compile() of the patched instance at a cost proportional to what
// changed.
//
// All structures reuse their buffer capacity across compile() calls, so a
// long-lived compiled_instance (ssam_scratch, msoa_session) stops hitting
// the allocator once it has seen its largest instance.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "auction/bid.h"
#include "common/annotations.h"
#include "common/simd.h"

namespace ecrs::auction {

class compiled_instance {
 public:
  compiled_instance() = default;

  // Full rebuild from a *validated* instance (see
  // single_stage_instance::validate; compile re-checks only cheap bounds).
  // Reuses existing buffer capacity.
  void compile(const single_stage_instance& instance);

  // ------------------------------------------------------------- topology
  [[nodiscard]] std::size_t bid_count() const { return price_.size(); }
  [[nodiscard]] std::size_t demander_count() const {
    return requirements_.size();
  }
  // Distinct sellers appearing in the bids — cached at compile time (the
  // bid-vector single_stage_instance::seller_count() recomputes a
  // distinct-count on every call).
  [[nodiscard]] std::size_t seller_count() const { return seller_count_; }
  // Max seller id + 1: the size of per-seller liveness tables.
  [[nodiscard]] std::size_t seller_slots() const { return seller_slots_; }
  [[nodiscard]] const std::vector<units>& requirements() const {
    return requirements_;
  }
  [[nodiscard]] units total_requirement() const { return total_requirement_; }

  [[nodiscard]] double price(std::size_t i) const { return price_[i]; }
  [[nodiscard]] units amount(std::size_t i) const { return amount_[i]; }
  [[nodiscard]] seller_id seller(std::size_t i) const { return seller_[i]; }
  // Contiguous SoA rows, for the vector kernels (common/simd.h).
  [[nodiscard]] const double* price_data() const { return price_.data(); }
  [[nodiscard]] const units* amount_data() const { return amount_.data(); }
  [[nodiscard]] const seller_id* seller_data() const { return seller_.data(); }
  [[nodiscard]] std::size_t coverage_size(std::size_t i) const {
    return cov_off_[i + 1] - cov_off_[i];
  }
  // CSR slice of bid i's coverage set (sorted unique demander ids).
  [[nodiscard]] const demander_id* coverage_begin(std::size_t i) const {
    return cov_arena_.data() + cov_off_[i];
  }
  [[nodiscard]] const demander_id* coverage_end(std::size_t i) const {
    return cov_arena_.data() + cov_off_[i + 1];
  }
  // Inverted CSR slice: the bids covering demander k, ascending bid index.
  [[nodiscard]] const std::uint32_t* covering_begin(demander_id k) const {
    return inv_arena_.data() + inv_off_[k];
  }
  [[nodiscard]] const std::uint32_t* covering_end(demander_id k) const {
    return inv_arena_.data() + inv_off_[k + 1];
  }

  // Empty-state marginal utility U_ij(∅) = sum_k min(a_ij, X_k).
  [[nodiscard]] units initial_utility(std::size_t i) const {
    return util0_[i];
  }
  // Σ over bids of amount · |coverage| — the probe upper-bound supply.
  [[nodiscard]] units total_supply() const { return total_supply_; }
  // max(1, max bid price): the other probe upper-bound factor. An O(bids)
  // scan, not a cache, so a price patch never leaves it stale (it is read
  // once per critical-value payment).
  [[nodiscard]] double price_bound() const {
    double bound = 1.0;
    for (double p : price_) bound = std::max(bound, p);
    return bound;
  }

  // ------------------------------------------------- warm-start patching
  // Patch one bid's price / one demander's requirement in place; the view
  // is then ready for the next auction. set_requirement re-derives the
  // initial utilities of the covering bids through the inverted index.
  ECRS_HOT void set_price(std::size_t i, double p);
  ECRS_HOT void set_requirement(demander_id k, units x);

 private:
  std::vector<double> price_;
  std::vector<units> amount_;
  std::vector<seller_id> seller_;
  std::vector<std::uint32_t> cov_off_;   // bid_count + 1
  std::vector<demander_id> cov_arena_;   // all coverage sets, concatenated
  std::vector<std::uint32_t> inv_off_;   // demander_count + 1
  std::vector<std::uint32_t> inv_arena_; // bid ids, ascending per demander
  std::vector<units> util0_;
  std::vector<units> requirements_;
  units total_requirement_ = 0;
  units total_supply_ = 0;
  std::size_t seller_count_ = 0;
  std::size_t seller_slots_ = 0;
  // compile() scratch (reused buffers).
  std::vector<std::uint32_t> inv_cursor_;  // inverted-index fill cursors
  std::vector<char> seller_seen_;          // distinct seller count
};

// Remaining-requirement tracking over a compiled instance — the CSR
// analogue of coverage_state, used by the feasibility re-checks (ssam.cc
// and the audit). reset() is O(demanders) and allocation-free at
// steady state.
class compiled_state {
 public:
  void reset(const compiled_instance& c);

  [[nodiscard]] bool satisfied() const { return deficit_ == 0; }
  [[nodiscard]] units deficit() const { return deficit_; }
  [[nodiscard]] units remaining(demander_id k) const { return remaining_[k]; }

  // Apply a winning bid; returns its marginal utility. Rows below
  // simd::kIndexedThreshold stay on the inlined scalar loop (the kernel
  // dispatch costs more than a handful of iterations); longer rows go
  // through the vectorized consume kernel, whose gather/scatter relies on
  // the coverage ids being distinct (CSR contract). Integer sums reorder
  // exactly, so the split is invisible in the result.
  // ecrs-lint: allow(nodiscard)
  ECRS_HOT units apply(const compiled_instance& c, std::size_t i) {
    const units amount = c.amount(i);
    const std::size_t len = c.coverage_size(i);
    units gain = 0;
    if (len >= simd::kIndexedThreshold) {
      gain = simd::consume_min_indexed(remaining_.data(), c.coverage_begin(i),
                                       len, amount);
    } else {
      for (const demander_id* k = c.coverage_begin(i); k != c.coverage_end(i);
           ++k) {
        const units used = std::min(amount, remaining_[*k]);
        remaining_[*k] -= used;
        gain += used;
      }
    }
    deficit_ -= gain;
    return gain;
  }

 private:
  std::vector<units> remaining_;
  units deficit_ = 0;
};

// Selection-loop state that additionally keeps the *exact* current marginal
// utility of every bid, maintained incrementally: apply() walks the
// inverted index of each demander whose remaining requirement changed and
// re-scores only the bids actually touched. utility() is then O(1) where
// coverage_state::marginal_utility is O(|S_ij|).
class scored_state {
 public:
  void reset(const compiled_instance& c);

  [[nodiscard]] bool satisfied() const { return deficit_ == 0; }
  [[nodiscard]] units deficit() const { return deficit_; }
  [[nodiscard]] units remaining(demander_id k) const { return remaining_[k]; }
  // Exact current U_ij(E) of bid i.
  [[nodiscard]] units utility(std::size_t i) const { return util_[i]; }
  // Contiguous utility row, for the ratio_argmin kernel (common/simd.h).
  [[nodiscard]] const units* utilities_data() const { return util_.data(); }

  // Apply winner w; returns its marginal utility.
  // ecrs-lint: allow(nodiscard)
  ECRS_HOT units apply(const compiled_instance& c, std::size_t w);

 private:
  std::vector<units> remaining_;
  std::vector<units> util_;
  units deficit_ = 0;
};

// Raw-array flavour of the scored update, for callers whose buffers live in
// an arena (the per-winner probe slots, auction/ssam.cc) rather than in a
// scored_state. `remaining` has demander_count() slots, `util` bid_count();
// scored_reset fills them with the requirements / initial utilities and
// returns the total requirement (the starting deficit). scored_apply
// consumes winner w's coverage, maintains every exact utility through the inverted index, and
// returns w's marginal utility. scored_state delegates to these, so both
// paths are one implementation.
// Neither maintains a deficit — the caller tracks it from the returns.
[[nodiscard]] ECRS_HOT units scored_reset(const compiled_instance& c,
                                          units* remaining, units* util);
[[nodiscard]] ECRS_HOT units scored_apply(const compiled_instance& c,
                                          units* remaining, units* util,
                                          std::size_t w);

}  // namespace ecrs::auction
