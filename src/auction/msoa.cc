#include "auction/msoa.h"

#include <algorithm>
#include <cmath>

#include "auction/properties.h"
#include "common/annotations.h"
#include "common/check.h"

namespace ecrs::auction {
namespace {

// Do the admitted bids of `round` have exactly the topology the compiled
// warm-start cache was built from? Prices are NOT compared — the warm path
// re-patches every price from the current round, so only the structure the
// patch API cannot change (seller, amount, coverage) must match.
ECRS_HOT bool topology_matches(const compiled_instance& compiled,
                               const single_stage_instance& round,
                               const std::vector<std::size_t>& admitted) {
  if (compiled.bid_count() != admitted.size()) return false;
  for (std::size_t j = 0; j < admitted.size(); ++j) {
    const bid& b = round.bids[admitted[j]];
    if (b.seller != compiled.seller(j) || b.amount != compiled.amount(j) ||
        b.coverage_size() != compiled.coverage_size(j) ||
        !std::equal(compiled.coverage_begin(j), compiled.coverage_end(j),
                    b.coverage.begin())) {
      return false;
    }
  }
  return true;
}

}  // namespace

msoa_session::msoa_session(std::vector<seller_profile> sellers,
                           msoa_options options)
    : profiles_(std::move(sellers)),
      options_(options),
      alpha_(options.alpha),
      psi_(profiles_.size(), 0.0),
      used_(profiles_.size(), 0),
      active_(profiles_.size(), 1) {
  ECRS_CHECK_MSG(options_.alpha >= 0.0, "alpha must be non-negative");
  for (std::size_t s = 0; s < profiles_.size(); ++s) {
    ECRS_CHECK_MSG(profiles_[s].capacity >= 0,
                   "seller " << s << " has negative capacity");
    ECRS_CHECK_MSG(profiles_[s].t_arrive >= 1 &&
                       profiles_[s].t_arrive <= profiles_[s].t_depart,
                   "seller " << s << " has an invalid window");
  }
}

double msoa_session::psi(seller_id s) const {
  ECRS_CHECK(s < psi_.size());
  return psi_[s];
}

units msoa_session::capacity_used(seller_id s) const {
  ECRS_CHECK(s < used_.size());
  return used_[s];
}

units msoa_session::capacity_left(seller_id s) const {
  ECRS_CHECK(s < used_.size());
  return profiles_[s].capacity - used_[s];
}

double msoa_session::competitive_bound() const {
  if (beta_ == std::numeric_limits<double>::infinity()) {
    // No admissible bid ever appeared; the bound degenerates to α.
    return alpha();
  }
  if (beta_ <= 1.0) return std::numeric_limits<double>::infinity();
  return alpha() * beta_ / (beta_ - 1.0);
}

msoa_round_outcome msoa_session::run_round(const single_stage_instance& round) {
  msoa_round_outcome outcome;
  run_round(round, outcome);
  return outcome;
}

void msoa_session::run_round(const single_stage_instance& round,
                             msoa_round_outcome& outcome) {
  outcome.round = 0;
  outcome.winner_bids.clear();
  outcome.true_prices.clear();
  outcome.payments.clear();
  outcome.social_cost = 0.0;
  outcome.feasible = false;
  outcome.admitted_bids = 0;

  round.validate();
  const std::uint32_t t = ++round_;

  // Admit bids: window + remaining capacity (Algorithm 2 lines 4-8). The
  // first pass only decides WHO participates (and updates β); whether the
  // admitted set is materialized as a scaled-price bid vector or patched
  // into the warm-start cache is decided afterwards.
  original_index_.clear();
  for (std::size_t idx = 0; idx < round.bids.size(); ++idx) {
    const bid& b = round.bids[idx];
    ECRS_CHECK_MSG(b.seller < profiles_.size(),
                   "bid references unknown seller " << b.seller);
    if (t < profiles_[b.seller].t_arrive || t > profiles_[b.seller].t_depart) {
      continue;
    }
    if (!active_[b.seller]) continue;  // churned out: as if the bid never came
    const auto weight = static_cast<units>(b.coverage_size());
    if (used_[b.seller] + weight > profiles_[b.seller].capacity) {
      continue;  // lines 5-6: exceeds Θ_i, excluded from the candidate set
    }
    original_index_.push_back(idx);
    // β = min Θ_i/|S_ij| over admissible bids (Lemma 4).
    beta_ = std::min(beta_,
                     static_cast<double>(profiles_[b.seller].capacity) /
                         static_cast<double>(weight));
  }

  const bool reference = options_.stage.eager_reference;
  const bool warm = options_.warm_start && !reference && cache_valid_ &&
                    round.requirements.size() == compiled_.demander_count() &&
                    topology_matches(compiled_, round, original_index_);

  outcome.round = t;
  outcome.admitted_bids = original_index_.size();
  if (warm) {
    // Standing bids: patch the per-seller ψ offsets ∇ = J + |S_ij|·ψ_i and
    // the demand vector in place and run on the cached view — no
    // validate, no bid copies, no recompile. The patched view is
    // bit-identical to a cold compile of the scaled round.
    for (std::size_t j = 0; j < original_index_.size(); ++j) {
      const bid& b = round.bids[original_index_[j]];
      const auto weight = static_cast<units>(b.coverage_size());
      compiled_.set_price(
          j, b.price + static_cast<double>(weight) * psi_[b.seller]);
    }
    for (demander_id k = 0; k < round.requirements.size(); ++k) {
      compiled_.set_requirement(k, round.requirements[k]);
    }
    ++warm_rounds_;
    run_ssam(compiled_, options_.stage, &scratch_, outcome.stage);
  } else {
    // Cold round: materialize the scaled candidate instance in the session
    // (`scaled_`) so steady-state rounds reuse its buffers — admitted bids
    // are copy-assigned into existing slots to keep their coverage
    // vectors' capacity.
    scaled_.requirements.assign(round.requirements.begin(),
                                round.requirements.end());
    std::size_t admitted = 0;
    for (const std::size_t idx : original_index_) {
      const bid& b = round.bids[idx];
      if (admitted == scaled_.bids.size()) scaled_.bids.emplace_back();
      bid& sb = scaled_.bids[admitted];
      sb = b;
      sb.price = b.price + static_cast<double>(static_cast<units>(
                               b.coverage_size())) *
                               psi_[b.seller];
      ++admitted;
    }
    scaled_.bids.resize(admitted);
    if (reference) {
      run_ssam(scaled_, options_.stage, &scratch_, outcome.stage);
    } else {
      scaled_.validate();
      compiled_.compile(scaled_);
      cache_valid_ = true;
      run_ssam(compiled_, options_.stage, &scratch_, outcome.stage);
    }
  }
  outcome.feasible = outcome.stage.feasible;

  // Freeze α on the first round that actually selected something.
  if (alpha_ <= 0.0 && !outcome.stage.winners.empty()) {
    alpha_ = std::max(1.0, outcome.stage.ratio_bound);
  }

  for (const winning_bid& w : outcome.stage.winners) {
    const std::size_t orig = original_index_[w.bid_index];
    const bid& b = round.bids[orig];
    const auto weight = static_cast<units>(b.coverage_size());
    const double scale_term = static_cast<double>(weight) * psi_[b.seller];

    outcome.winner_bids.push_back(orig);
    outcome.true_prices.push_back(b.price);
    // Unscale the payment; never below the true asking price (IR). Every
    // payment rule must pay at least the scaled asking price, so the
    // unscaled value is finite and non-negative BEFORE the IR clamp — a
    // payment rule that violates this would otherwise be silently laundered
    // through std::max below.
    const double unscaled = w.payment - scale_term;
    ECRS_CHECK_MSG(std::isfinite(unscaled) && unscaled >= 0.0,
                   "seller " << b.seller << " round " << t
                             << ": unscaled payment " << unscaled
                             << " (scaled " << w.payment << ", scale term "
                             << scale_term << ") is negative or non-finite");
    outcome.payments.push_back(std::max(b.price, unscaled));
    outcome.social_cost += b.price;

    // Algorithm 2 lines 11-12: ψ and χ updates for winners.
    const double theta = static_cast<double>(profiles_[b.seller].capacity);
    ECRS_CHECK_MSG(theta > 0.0, "winner with zero capacity");
    const double a = alpha();
    psi_[b.seller] =
        psi_[b.seller] * (1.0 + static_cast<double>(weight) / (a * theta)) +
        b.price * static_cast<double>(weight) / (a * theta * theta);
    used_[b.seller] += weight;
  }
}

void msoa_session::consume_external(seller_id s, units weight, double price) {
  ECRS_CHECK_MSG(s < profiles_.size(), "unknown seller " << s);
  ECRS_CHECK_MSG(weight >= 1, "external consumption needs positive weight");
  ECRS_CHECK_MSG(price >= 0.0, "external price must be non-negative");
  ECRS_CHECK_MSG(used_[s] + weight <= profiles_[s].capacity,
                 "seller " << s << " lacks capacity for external sale of "
                           << weight << " units");
  // Same update as a local win (Algorithm 2 lines 11-12): the seller's
  // future bids are scaled as if it had won a coverage-|weight| bid at
  // `price` this round.
  const double theta = static_cast<double>(profiles_[s].capacity);
  const double a = alpha();
  psi_[s] = psi_[s] * (1.0 + static_cast<double>(weight) / (a * theta)) +
            price * static_cast<double>(weight) / (a * theta * theta);
  used_[s] += weight;
}

void msoa_session::set_seller_active(seller_id s, bool active) {
  ECRS_CHECK_MSG(s < active_.size(), "unknown seller " << s);
  active_[s] = active ? 1 : 0;
}

bool msoa_session::seller_active(seller_id s) const {
  ECRS_CHECK_MSG(s < active_.size(), "unknown seller " << s);
  return active_[s] != 0;
}

void msoa_session::save(checkpoint_writer& w) const {
  w.u32(round_);
  w.f64(alpha_);
  w.f64(beta_);
  w.size(profiles_.size());
  for (std::size_t s = 0; s < profiles_.size(); ++s) {
    w.f64(psi_[s]);
    w.i64(used_[s]);
    w.u8(active_[s] ? 1 : 0);
  }
}

void msoa_session::load(checkpoint_reader& r) {
  round_ = r.u32();
  alpha_ = r.f64();
  beta_ = r.f64();
  // Only states run_round can reach: α frozen at a finite non-negative
  // value, β a positive ratio or +inf, ψ finite and non-negative, and no
  // seller past its lifetime capacity (used_ + weight must not overflow).
  ECRS_CHECK_MSG(std::isfinite(alpha_) && alpha_ >= 0.0 && beta_ > 0.0,
                 "checkpoint holds alpha " << alpha_ << ", beta " << beta_);
  const std::size_t n = r.size();
  ECRS_CHECK_MSG(n == profiles_.size(),
                 "checkpoint holds " << n << " sellers, session has "
                                     << profiles_.size());
  for (std::size_t s = 0; s < n; ++s) {
    psi_[s] = r.f64();
    used_[s] = r.i64();
    active_[s] = r.u8() ? 1 : 0;
    ECRS_CHECK_MSG(std::isfinite(psi_[s]) && psi_[s] >= 0.0 &&
                       used_[s] >= 0 && used_[s] <= profiles_[s].capacity,
                   "checkpoint holds psi " << psi_[s] << " and "
                                           << used_[s] << " used units for "
                                           << "seller " << s);
  }
  // The compiled warm-start view is rebuilt lazily on the next cold round;
  // warm and cold rounds are bit-identical, so resume replays exactly.
  cache_valid_ = false;
}

msoa_result run_msoa(const online_instance& instance,
                     const msoa_options& options) {
  instance.validate();
  msoa_session session(instance.sellers, options);

  msoa_result result;
  for (const single_stage_instance& round : instance.rounds) {
    msoa_round_outcome outcome = session.run_round(round);
    result.feasible = result.feasible && outcome.feasible;
    result.social_cost += outcome.social_cost;
    for (double p : outcome.payments) result.total_payment += p;
    result.rounds.push_back(std::move(outcome));
  }

  result.alpha = session.alpha();
  result.beta = session.beta();
  result.competitive_bound = session.competitive_bound();
  result.psi_final.reserve(instance.sellers.size());
  result.capacity_used.reserve(instance.sellers.size());
  for (seller_id s = 0; s < instance.sellers.size(); ++s) {
    result.psi_final.push_back(session.psi(s));
    result.capacity_used.push_back(session.capacity_used(s));
  }

  // Per-round stages already self-audited inside run_ssam (scaled prices);
  // this pass re-checks the online invariants — windows, lifetime
  // capacities, IR against TRUE prices — and the cross-round accounting.
  if (options.stage.self_audit) {
    audit_or_throw(instance, result, audit_options{});
  }
  return result;
}

const char* to_string(msoa_variant v) {
  switch (v) {
    case msoa_variant::base: return "MSOA";
    case msoa_variant::demand_aware: return "MSOA-DA";
    case msoa_variant::high_capacity: return "MSOA-RC";
    case msoa_variant::fully_optimized: return "MSOA-OA";
  }
  return "unknown";
}

online_instance apply_variant(const online_instance& truth,
                              msoa_variant variant,
                              const variant_options& options, rng& gen) {
  ECRS_CHECK_MSG(options.demand_noise >= 0.0 && options.demand_noise < 1.0,
                 "demand noise must be in [0,1)");
  ECRS_CHECK_MSG(options.capacity_factor >= 1.0,
                 "capacity factor must be >= 1");
  online_instance out = truth;

  const bool noisy_demand = variant == msoa_variant::base ||
                            variant == msoa_variant::high_capacity;
  const bool scaled_capacity = variant == msoa_variant::high_capacity ||
                               variant == msoa_variant::fully_optimized;

  if (noisy_demand) {
    for (single_stage_instance& round : out.rounds) {
      for (units& x : round.requirements) {
        if (x == 0) continue;
        // Estimation error never under-provisions: the platform rounds the
        // noisy estimate up so demanders still receive what they need (the
        // cost of imperfect estimation is buying too much, not starving).
        const double factor =
            1.0 + gen.uniform_real(0.0, options.demand_noise);
        x = static_cast<units>(
            std::ceil(static_cast<double>(x) * factor));
      }
    }
  }
  if (scaled_capacity) {
    for (seller_profile& p : out.sellers) {
      p.capacity = static_cast<units>(
          std::ceil(static_cast<double>(p.capacity) * options.capacity_factor));
    }
  }
  return out;
}

}  // namespace ecrs::auction
