#include "auction/compiled.h"

#include <algorithm>

#include "common/annotations.h"
#include "common/check.h"

namespace ecrs::auction {

void compiled_instance::compile(const single_stage_instance& instance) {
  const std::size_t nbids = instance.bids.size();
  const std::size_t ndem = instance.requirements.size();

  requirements_.assign(instance.requirements.begin(),
                       instance.requirements.end());
  total_requirement_ = 0;
  for (units x : requirements_) {
    ECRS_CHECK_MSG(x >= 0, "compile: negative requirement");
    total_requirement_ += x;
  }

  price_.clear();
  amount_.clear();
  seller_.clear();
  cov_off_.clear();
  cov_arena_.clear();
  price_.reserve(nbids);
  amount_.reserve(nbids);
  seller_.reserve(nbids);
  cov_off_.reserve(nbids + 1);
  cov_off_.push_back(0);

  seller_slots_ = 0;
  total_supply_ = 0;
  for (const bid& b : instance.bids) {
    price_.push_back(b.price);
    amount_.push_back(b.amount);
    seller_.push_back(b.seller);
    for (demander_id k : b.coverage) {
      ECRS_CHECK_MSG(k < ndem, "compile: coverage id out of range");
      cov_arena_.push_back(k);
    }
    cov_off_.push_back(static_cast<std::uint32_t>(cov_arena_.size()));
    seller_slots_ = std::max(seller_slots_,
                             static_cast<std::size_t>(b.seller) + 1);
    total_supply_ += b.amount * static_cast<units>(b.coverage_size());
  }

  // Distinct seller count (cached; the bid-vector API recomputes this).
  seller_seen_.assign(seller_slots_, 0);
  seller_count_ = 0;
  for (seller_id s : seller_) {
    if (!seller_seen_[s]) {
      seller_seen_[s] = 1;
      ++seller_count_;
    }
  }

  // Inverted index by counting sort: per-demander degree, prefix sums,
  // then a fill pass — bids land in ascending index order per demander.
  inv_off_.assign(ndem + 1, 0);
  for (demander_id k : cov_arena_) ++inv_off_[k + 1];
  for (std::size_t k = 0; k < ndem; ++k) inv_off_[k + 1] += inv_off_[k];
  inv_arena_.resize(cov_arena_.size());
  inv_cursor_.assign(inv_off_.begin(), inv_off_.end() - 1);
  for (std::uint32_t i = 0; i < nbids; ++i) {
    for (std::uint32_t j = cov_off_[i]; j < cov_off_[i + 1]; ++j) {
      inv_arena_[inv_cursor_[cov_arena_[j]]++] = i;
    }
  }

  // Empty-state utilities.
  util0_.clear();
  util0_.reserve(nbids);
  for (std::uint32_t i = 0; i < nbids; ++i) {
    util0_.push_back(simd::sum_min_indexed(
        requirements_.data(), cov_arena_.data() + cov_off_[i],
        cov_off_[i + 1] - cov_off_[i], amount_[i]));
  }
}

ECRS_HOT void compiled_instance::set_price(std::size_t i, double p) {
  ECRS_CHECK(i < price_.size());
  ECRS_CHECK_MSG(p >= 0.0, "set_price: negative price");
  price_[i] = p;
}

ECRS_HOT void compiled_instance::set_requirement(demander_id k,
                                               units x) {
  ECRS_CHECK(k < requirements_.size());
  ECRS_CHECK_MSG(x >= 0, "set_requirement: negative requirement");
  const units old = requirements_[k];
  if (old == x) return;
  requirements_[k] = x;
  total_requirement_ += x - old;
  for (const std::uint32_t* it = covering_begin(k); it != covering_end(k);
       ++it) {
    const std::uint32_t i = *it;
    util0_[i] += std::min(amount_[i], x) - std::min(amount_[i], old);
  }
}

// ----------------------------------------------------------- compiled_state

void compiled_state::reset(const compiled_instance& c) {
  remaining_.assign(c.requirements().begin(), c.requirements().end());
  deficit_ = c.total_requirement();
}

// ------------------------------------------------------------- scored_state

ECRS_HOT units scored_reset(const compiled_instance& c, units* remaining,
                            units* util) {
  const std::vector<units>& req = c.requirements();
  std::copy(req.begin(), req.end(), remaining);
  for (std::size_t i = 0; i < c.bid_count(); ++i) {
    util[i] = c.initial_utility(i);
  }
  return c.total_requirement();
}

ECRS_HOT units scored_apply(const compiled_instance& c, units* remaining,
                            units* util, std::size_t w) {
  const units amount = c.amount(w);
  units gain = 0;
  for (const demander_id* kp = c.coverage_begin(w); kp != c.coverage_end(w);
       ++kp) {
    const demander_id k = *kp;
    const units before = remaining[k];
    const units used = std::min(amount, before);
    if (used == 0) continue;
    const units after = before - used;
    remaining[k] = after;
    gain += used;
    for (const std::uint32_t* it = c.covering_begin(k);
         it != c.covering_end(k); ++it) {
      const std::uint32_t b = *it;
      const units a = c.amount(b);
      util[b] -= std::min(a, before) - std::min(a, after);
    }
  }
  return gain;
}

void scored_state::reset(const compiled_instance& c) {
  remaining_.resize(c.demander_count());
  util_.resize(c.bid_count());
  deficit_ = scored_reset(c, remaining_.data(), util_.data());
}

ECRS_HOT units scored_state::apply(const compiled_instance& c,
                                   std::size_t w) {
  const units gain = scored_apply(c, remaining_.data(), util_.data(), w);
  deficit_ -= gain;
  return gain;
}

}  // namespace ecrs::auction
