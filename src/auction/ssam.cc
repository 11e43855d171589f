#include "auction/ssam.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "auction/compiled.h"
#include "auction/properties.h"
#include "common/annotations.h"
#include "common/arena.h"
#include "common/check.h"
#include "common/simd.h"
#include "common/statistics.h"
#include "common/thread_pool.h"

namespace ecrs::auction {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Hard cap on bisection rounds: the relative-gap criterion can stall only
// when the critical value degenerates towards zero, in which case the
// absolute floor below ends the search.
constexpr std::size_t kMaxBisectionRounds = 200;
constexpr double kBisectionAbsoluteFloor = 1e-12;

// Cost-effectiveness of a bid given the current coverage state; infinite
// when the bid adds nothing.
ECRS_HOT double ratio_of(const bid& b, double price,
                         const coverage_state& state,
                units& utility_out) {
  utility_out = state.marginal_utility(b);
  if (utility_out <= 0) return kInf;
  return price / static_cast<double>(utility_out);
}

seller_id max_seller_of(const single_stage_instance& instance) {
  seller_id max_seller = 0;
  for (const bid& b : instance.bids) {
    max_seller = std::max(max_seller, b.seller);
  }
  return max_seller;
}

std::size_t seller_slots_of(const single_stage_instance& instance) {
  return instance.bids.empty()
             ? 0
             : static_cast<std::size_t>(max_seller_of(instance)) + 1;
}

// One step of a winner's probe trajectory: the competing bid the greedy
// selects at this step when the probed bid never wins, with its exact
// ratio, and the probed bid's marginal utility entering the step. A
// bisection probe at report p then resolves by walking these steps with
// two comparisons each (see trajectory_probe_wins) instead of replaying
// the whole auction.
struct probe_step {
  double ratio = 0.0;        // exact price / U of the selected competitor
  std::uint32_t idx = 0;     // its bid row (the (ratio, idx) tie-break)
  units probed_utility = 0;  // U_i(E) before this selection
  bool collision = false;    // competitor shares the probed bid's seller
};

// Per-winner critical-value workspace, carved from the calling thread's
// bump arena (common/arena.h) instead of owning vectors: one trajectory
// precompute per winner, reused across every probe of that winner's
// bisection. All buffers are plain trivially-destructible arrays, so a
// whole fan-out's slots are reclaimed by one arena rewind. The slots are
// carved serially on the calling thread BEFORE the parallel payment
// fan-out; workers only touch their own slot's disjoint memory and never
// call into the arena, which keeps the fan-out race-free.
struct probe_slot {
  units* remaining = nullptr;     // demander_count — scored remaining
  units* util = nullptr;          // bid_count — exact utilities
  char* seller_active = nullptr;  // seller_slots — per-seller liveness
  probe_step* steps = nullptr;    // capacity seller_count + 1 (see below)
  std::size_t step_count = 0;
  units end_probed_utility = 0;  // U_i when the trajectory ran out of bids
  bool end_satisfied = false;    // trajectory ended with demand met
};

// The step capacity is exact, not a guess: every recorded non-terminal step
// deactivates a distinct seller, and a terminal step ends the recording —
// so at most seller_count + 1 steps exist for any probed bid.
ECRS_HOT probe_slot carve_probe_slot(arena& a, const compiled_instance& c) {
  probe_slot slot;
  slot.remaining = a.alloc_array<units>(c.demander_count());
  slot.util = a.alloc_array<units>(c.bid_count());
  slot.seller_active = a.alloc_array<char>(c.seller_slots());
  slot.steps = a.alloc_array<probe_step>(c.seller_count() + 1);
  return slot;
}

}  // namespace

// Every buffer the selection loops touch, grown on demand and reused
// across calls. The compiled path's per-winner probe slots live in the
// calling thread's bump arena, not here (see probe_slot above), so a
// scratch that migrates between threads never drags another thread's arena
// memory along.
struct ssam_scratch::impl {
  // Bid-vector eager reference.
  coverage_state state;             // selection loop
  std::vector<char> active;         // per-bid liveness
  std::vector<char> seller_active;  // per-seller liveness
  coverage_state replay;            // feasibility re-check
  // Compiled path.
  compiled_instance compiled;        // compile-on-entry shim target
  scored_state scored;               // selection: exact utilities
  std::vector<char> cseller_active;  // per-seller liveness
  compiled_state creplay;            // feasibility re-check
};

// One-time workspace construction: the only allocation of a scratch.
ssam_scratch::ssam_scratch() : impl_(std::make_unique<impl>()) {}
ssam_scratch::~ssam_scratch() = default;
ssam_scratch::ssam_scratch(ssam_scratch&&) noexcept = default;
ssam_scratch& ssam_scratch::operator=(ssam_scratch&&) noexcept = default;

ssam_scratch::impl& ssam_scratch::buffers() { return *impl_; }

namespace {

// ---------------------------------------------------------------------------
// The eager reference loop (eager_reference, eager_greedy_selection): a
// full O(n·m) rescan of every active bid per selection over the bid
// vectors, with the original per-bid deactivation sweep. It shares no code
// with the compiled path, which makes it the oracle the compiled engine is
// tested against. `override_index` (== bids.size() disables it) replaces
// the price of one bid with `override_price` for critical-value probing.
// Each selection is reported through `on_win`, which may inspect the
// candidate set via the provided coverage state and `seller_active` vector
// (indexed by seller id — a bid is a candidate iff its seller is active,
// constraint (9)) and returns false to veto the selection and stop the
// auction (budget exhaustion).
template <typename OnWin>
ECRS_HOT void eager_greedy_loop(const single_stage_instance& instance,
                       ssam_scratch::impl& ws, std::size_t override_index,
                       double override_price, OnWin&& on_win) {
  const std::size_t nbids = instance.bids.size();
  coverage_state& state = ws.state;
  state.reset(instance.requirements);
  ws.active.assign(nbids, 1);
  ws.seller_active.assign(seller_slots_of(instance), 1);

  auto price_of = [&](std::size_t idx) {
    return idx == override_index ? override_price : instance.bids[idx].price;
  };

  while (!state.satisfied()) {
    // Pick the active bid with the lowest ratio; ties break on the lowest
    // bid index for determinism.
    std::size_t best = nbids;
    units best_utility = 0;
    double best_ratio = kInf;
    for (std::size_t idx = 0; idx < nbids; ++idx) {
      if (!ws.active[idx]) continue;
      units utility = 0;
      const double ratio =
          ratio_of(instance.bids[idx], price_of(idx), state, utility);
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best = idx;
        best_utility = utility;
      }
    }
    if (best == nbids) break;  // nothing helps: requirements unsatisfiable

    if (!on_win(best, best_utility, best_ratio, state, ws.seller_active)) {
      break;
    }

    state.apply(instance.bids[best]);
    // Remove every bid of the winning seller (constraint (9)).
    const seller_id winner_seller = instance.bids[best].seller;
    for (std::size_t idx = 0; idx < nbids; ++idx) {
      if (ws.active[idx] && instance.bids[idx].seller == winner_seller) {
        ws.active[idx] = 0;
      }
    }
    ws.seller_active[winner_seller] = 0;
  }
}

// Reference probe: replays the whole eager auction with the probed bid's
// price replaced and reports whether the bid was ever selected. Allocates
// its own workspace — this is the oracle, not the hot path.
bool reference_wins_with_price(const single_stage_instance& instance,
                               std::size_t bid_index, double price_report) {
  ssam_scratch local;
  bool won = false;
  eager_greedy_loop(instance, local.buffers(), bid_index, price_report,
                    [&](std::size_t idx, units, double, const coverage_state&,
                        const std::vector<char>&) {
                      won = won || idx == bid_index;
                      return true;
                    });
  return won;
}

// Reference critical-value bisection: every probe replays the full eager
// auction.
double reference_critical_value(const single_stage_instance& instance,
                                std::size_t bid_index, double relative_eps) {
  ECRS_CHECK(bid_index < instance.bids.size());
  ECRS_CHECK_MSG(relative_eps > 0.0 && relative_eps < 1.0,
                 "bisection tolerance must be in (0, 1)");
  auto probe = [&](double report) {
    return reference_wins_with_price(instance, bid_index, report);
  };
  const double own_price = instance.bids[bid_index].price;
  ECRS_CHECK_MSG(probe(own_price),
                 "critical value requested for a losing bid");

  // Upper probe: a report so high the bid can only win if it faces no
  // competition at all.
  double max_price = 1.0;
  units total_supply = 0;
  for (const bid& b : instance.bids) {
    max_price = std::max(max_price, b.price);
    total_supply += b.amount * static_cast<units>(b.coverage_size());
  }
  const double hi_probe =
      (max_price + 1.0) * static_cast<double>(std::max<units>(total_supply, 1));
  if (probe(hi_probe)) {
    // No competition can displace this bid: pay-as-bid fallback.
    return own_price;
  }

  double lo = own_price;  // certified winning
  double hi = hi_probe;   // certified losing
  for (std::size_t round = 0;
       round < kMaxBisectionRounds && hi - lo > relative_eps * hi &&
       hi - lo > kBisectionAbsoluteFloor;
       ++round) {
    const double mid = 0.5 * (lo + hi);
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ---------------------------------------------------------------------------
// The compiled selection loop: a full O(n) argmin scan per pick over the
// exact utilities, served by the ratio_argmin kernel over the contiguous
// price/utility/seller rows (the scored apply that keeps the utilities
// exact walks only the inverted-index rows of the covered demanders). The
// kernel returns the (ratio, index)-lexicographic minimum — exactly what
// the reference loop's ascending strict-< scan selects. `on_win` has the
// reference loop's contract, except that the candidate view is the
// contiguous exact-utility row, which lets the runner-up scan reuse the
// same kernel.
template <typename OnWin>
ECRS_HOT void compiled_greedy_loop(const compiled_instance& c,
                                   ssam_scratch::impl& ws, OnWin&& on_win) {
  scored_state& scored = ws.scored;
  scored.reset(c);
  ws.cseller_active.assign(c.seller_slots(), 1);

  while (!scored.satisfied()) {
    const simd::ratio_best pick = simd::ratio_argmin(
        c.price_data(), scored.utilities_data(), c.seller_data(),
        ws.cseller_active.data(), c.bid_count(), simd::kNoIndex,
        simd::kNoSeller);
    if (pick.index == simd::kNoIndex) {
      break;  // nothing helps: requirements unsatisfiable
    }
    const std::size_t best = pick.index;

    if (!on_win(best, scored.utility(best), pick.ratio,
                scored.utilities_data(), ws.cseller_active)) {
      break;
    }

    scored.apply(c, best);
    ws.cseller_active[c.seller(best)] = 0;
  }
}

// Record the probe trajectory for one winner: the greedy selection sequence
// with the probed bid excluded, each step carrying the selected competitor's
// exact (ratio, idx) and the probed bid's marginal utility entering the
// step. Why this suffices for every probe price p: until the probed bid is
// selected it occupies no seller slot and covers nothing, so the
// competitors' selections are exactly this excluded sequence. At step s the
// probed bid wins iff its exact key p / U_i(s) beats the step's
// (ratio, idx) lexicographically; a step whose competitor shares the probed
// bid's seller is terminal (constraint (9) bars the bid from then on), as
// is U_i(s) = 0 (utilities only shrink). If the trajectory exhausts all
// competitors with demand unmet, the probed bid is the last resort and wins
// at any price. The recording stops at the first terminal step, so |steps|
// is at most the winner count.
ECRS_HOT void build_probe_trajectory(const compiled_instance& c,
                                     probe_slot& slot,
                                     std::size_t bid_index) {
  units deficit = scored_reset(c, slot.remaining, slot.util);
  std::fill_n(slot.seller_active, c.seller_slots(), char{1});
  slot.step_count = 0;
  slot.end_probed_utility = 0;
  slot.end_satisfied = false;
  const seller_id probed_seller = c.seller(bid_index);

  while (deficit > 0) {
    // Exact (ratio, idx)-lexicographic argmin over the active competitors
    // (the vector kernel over the slot's contiguous exact utilities).
    const simd::ratio_best pick = simd::ratio_argmin(
        c.price_data(), slot.util, c.seller_data(), slot.seller_active,
        c.bid_count(), static_cast<std::uint32_t>(bid_index),
        simd::kNoSeller);
    const units probed_u = slot.util[bid_index];
    if (pick.index == simd::kNoIndex) {
      slot.end_probed_utility = probed_u;  // last resort; end_satisfied false
      return;
    }
    probe_step step;
    step.ratio = pick.ratio;
    step.idx = pick.index;
    step.probed_utility = probed_u;
    step.collision = c.seller(pick.index) == probed_seller;
    slot.steps[slot.step_count++] = step;
    if (step.collision || probed_u <= 0) return;  // terminal for every probe
    deficit -= scored_apply(c, slot.remaining, slot.util, pick.index);
    slot.seller_active[c.seller(pick.index)] = 0;
  }
  slot.end_satisfied = true;
}

// Does the probed bid win at report p, resolved against the precomputed
// trajectory? Identical verdicts to a full replay of the exact greedy
// (the eager reference's reference_wins_with_price): both decide "is the
// bid ever selected", this one in O(|steps|).
ECRS_HOT bool trajectory_probe_wins(const probe_slot& slot,
                                    std::size_t bid_index, double report) {
  const auto probed_idx = static_cast<std::uint32_t>(bid_index);
  for (std::size_t i = 0; i < slot.step_count; ++i) {
    const probe_step& s = slot.steps[i];
    if (s.probed_utility <= 0) return false;  // can never contribute again
    const double key = report / static_cast<double>(s.probed_utility);
    if (key < s.ratio || (key == s.ratio && probed_idx < s.idx)) return true;
    if (s.collision) return false;  // seller slot taken (constraint (9))
  }
  if (slot.end_satisfied) return false;  // demand met without the bid
  return slot.end_probed_utility > 0;    // last useful bid wins at any price
}

// Compiled critical-value bisection: same bounds, same probe sequence, same
// arithmetic as the reference — the upper probe reuses the compile-time
// price bound and total supply instead of re-scanning the bids, and every
// probe resolves against the winner's precomputed trajectory instead of
// replaying the auction (bit-identical verdicts, so bit-identical
// payments).
ECRS_HOT double compiled_critical_value(const compiled_instance& c,
                                        std::size_t bid_index,
                                        double relative_eps,
                                        probe_slot& slot) {
  ECRS_CHECK(bid_index < c.bid_count());
  ECRS_CHECK_MSG(relative_eps > 0.0 && relative_eps < 1.0,
                 "bisection tolerance must be in (0, 1)");
  build_probe_trajectory(c, slot, bid_index);
  auto probe = [&](double report) {
    return trajectory_probe_wins(slot, bid_index, report);
  };
  const double own_price = c.price(bid_index);
  ECRS_CHECK_MSG(probe(own_price),
                 "critical value requested for a losing bid");

  // Upper probe: a report so high the bid can only win if it faces no
  // competition at all.
  const double hi_probe =
      (c.price_bound() + 1.0) *
      static_cast<double>(std::max<units>(c.total_supply(), 1));
  if (probe(hi_probe)) {
    // No competition can displace this bid: pay-as-bid fallback.
    return own_price;
  }

  double lo = own_price;  // certified winning
  double hi = hi_probe;   // certified losing
  for (std::size_t round = 0;
       round < kMaxBisectionRounds && hi - lo > relative_eps * hi &&
       hi - lo > kBisectionAbsoluteFloor;
       ++round) {
    const double mid = 0.5 * (lo + hi);
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Reset a (possibly reused) result to its default state, keeping the
// vectors' capacity — the into-API overloads rely on this for their
// 0-allocation steady state.
void reset_result(ssam_result& out) {
  out.winners.clear();
  out.feasible = false;
  out.social_cost = 0.0;
  out.total_payment = 0.0;
  out.budget_dropped = 0;
  out.unit_shares.clear();
  out.xi = 1.0;
  out.harmonic = 0.0;
  out.ratio_bound = 1.0;
  out.dual_objective = 0.0;
}

// The production mechanism body, running entirely on the compiled view.
void run_ssam_compiled(const compiled_instance& c, const ssam_options& options,
                       ssam_scratch::impl& ws, ssam_result& result) {
  reset_result(result);
  double budget_spent = 0.0;  // runner-up payment estimates

  auto on_win = [&](std::size_t idx, units utility, double ratio,
                    const units* util_data,
                    const std::vector<char>& seller_active) {
    winning_bid w;
    w.bid_index = idx;
    w.utility_at_selection = utility;
    w.ratio_at_selection = ratio;

    const bool need_estimate = options.rule == payment_rule::runner_up ||
                               options.payment_budget > 0.0;
    double estimate = c.price(idx);
    if (need_estimate) {
      // Best competing ratio among bids of *other* sellers still active
      // (Algorithm 1 line 6; see DESIGN.md for why same-seller
      // alternatives are excluded): the argmin kernel over the exact
      // utilities with the winner's seller excluded — the winner itself has
      // that seller, so skip_seller subsumes the other == idx skip.
      const double runner_ratio =
          simd::ratio_argmin(c.price_data(), util_data, c.seller_data(),
                             seller_active.data(), c.bid_count(),
                             simd::kNoIndex, c.seller(idx))
              .ratio;
      if (runner_ratio != kInf) {
        estimate = static_cast<double>(utility) * runner_ratio;
      }
      // Line 7 pays U·(runner ratio); the winner was selected because its
      // own ratio is minimal, so payment >= price always.
      estimate = std::max(estimate, c.price(idx));
    }
    if (options.payment_budget > 0.0 &&
        budget_spent + estimate > options.payment_budget) {
      return false;  // W depleted: stop the auction here (paper §IV)
    }
    budget_spent += estimate;
    if (options.rule == payment_rule::runner_up) w.payment = estimate;

    // Theorem 3 accounting: the winning price is distributed over the
    // `utility` covered units as equal shares f = ratio.
    for (units u = 0; u < utility; ++u) {
      result.unit_shares.push_back(ratio);
    }

    result.winners.push_back(w);
    result.social_cost += c.price(idx);
    return true;
  };

  compiled_greedy_loop(c, ws, on_win);

  if (options.rule == payment_rule::critical_value) {
    // Every payment is an independent pure probe of the instance, so they
    // run concurrently; each worker writes only its own winner's
    // arena-carved probe slot, so the outcome is identical for any thread
    // count. All slots are carved serially on the calling thread before
    // the fan-out (workers never touch the arena — see probe_slot), and
    // one scope rewind reclaims the whole fan-out's memory on exit.
    arena& slab = arena::for_thread();
    const arena::scope payment_scope(slab);
    const std::size_t nwinners = result.winners.size();
    probe_slot* slots = slab.alloc_array<probe_slot>(nwinners);
    for (std::size_t pos = 0; pos < nwinners; ++pos) {
      slots[pos] = carve_probe_slot(slab, c);
    }
    auto pay_one = [&](std::size_t pos) {
      result.winners[pos].payment = compiled_critical_value(
          c, result.winners[pos].bid_index, options.critical_value_eps,
          slots[pos]);
    };
    if (options.payment_threads == 1 || nwinners < 2) {
      for (std::size_t pos = 0; pos < nwinners; ++pos) {
        pay_one(pos);
      }
    } else {
      thread_pool::shared().parallel_for(nwinners, pay_one,
                                         options.payment_threads);
    }

    // Budget re-verification: the in-loop gate only saw runner-up
    // ESTIMATES; the actual critical-value payments can exceed them. Drop
    // trailing winners (reverse selection order) until the realized total
    // respects W, then let the feasibility replay below re-certify the
    // surviving set (paper §IV budget feasibility).
    if (options.payment_budget > 0.0) {
      double total = 0.0;
      for (const winning_bid& w : result.winners) total += w.payment;
      while (!result.winners.empty() && total > options.payment_budget) {
        const winning_bid& last = result.winners.back();
        total -= last.payment;
        result.unit_shares.resize(
            result.unit_shares.size() -
            static_cast<std::size_t>(last.utility_at_selection));
        result.winners.pop_back();
        ++result.budget_dropped;
      }
      if (result.budget_dropped > 0) {
        result.social_cost = 0.0;
        for (const winning_bid& w : result.winners) {
          result.social_cost += c.price(w.bid_index);
        }
      }
    }
  }

  for (const winning_bid& w : result.winners) {
    result.total_payment += w.payment;
  }

  // Feasibility: replay the winners against a fresh state.
  compiled_state& replay = ws.creplay;
  replay.reset(c);
  for (const winning_bid& w : result.winners) {
    replay.apply(c, w.bid_index);
  }
  result.feasible = replay.satisfied();

  // Dual certificate.
  if (!result.unit_shares.empty()) {
    const auto [lo_it, hi_it] = std::minmax_element(
        result.unit_shares.begin(), result.unit_shares.end());
    result.xi = *lo_it > 0.0 ? *hi_it / *lo_it : 1.0;
  }
  result.harmonic = harmonic_number(result.unit_shares.size());
  result.ratio_bound = std::max(1.0, result.harmonic * result.xi);
  result.dual_objective = result.social_cost / result.ratio_bound;

  if (options.self_audit) {
    audit_options audit;
    audit.payment_budget = options.payment_budget;
    audit_or_throw(c, result, audit);
  }
}

// The bid-vector reference body (eager_reference): the pre-compiled-view
// mechanism, kept as the oracle for the compiled engine.
void run_ssam_reference(const single_stage_instance& instance,
                        const ssam_options& options, ssam_scratch::impl& ws,
                        ssam_result& result) {
  reset_result(result);
  double budget_spent = 0.0;  // runner-up payment estimates

  eager_greedy_loop(
      instance, ws, instance.bids.size(), 0.0,
      [&](std::size_t idx, units utility, double ratio,
          const coverage_state& state, const std::vector<char>& seller_active) {
        winning_bid w;
        w.bid_index = idx;
        w.utility_at_selection = utility;
        w.ratio_at_selection = ratio;

        const bool need_estimate = options.rule == payment_rule::runner_up ||
                                   options.payment_budget > 0.0;
        double estimate = instance.bids[idx].price;
        if (need_estimate) {
          // Best competing ratio among bids of *other* sellers still active
          // (Algorithm 1 line 6; see DESIGN.md for why same-seller
          // alternatives are excluded).
          const seller_id self = instance.bids[idx].seller;
          double runner_ratio = kInf;
          for (std::size_t other = 0; other < instance.bids.size(); ++other) {
            if (other == idx) continue;
            if (instance.bids[other].seller == self) continue;
            if (!seller_active[instance.bids[other].seller]) continue;
            units u = 0;
            const double r = ratio_of(instance.bids[other],
                                      instance.bids[other].price, state, u);
            runner_ratio = std::min(runner_ratio, r);
          }
          if (runner_ratio != kInf) {
            estimate = static_cast<double>(utility) * runner_ratio;
          }
          // Line 7 pays U·(runner ratio); the winner was selected because
          // its own ratio is minimal, so payment >= price always.
          estimate = std::max(estimate, instance.bids[idx].price);
        }
        if (options.payment_budget > 0.0 &&
            budget_spent + estimate > options.payment_budget) {
          return false;  // W depleted: stop the auction here (paper §IV)
        }
        budget_spent += estimate;
        if (options.rule == payment_rule::runner_up) w.payment = estimate;

        // Theorem 3 accounting: the winning price is distributed over the
        // `utility` covered units as equal shares f = ratio.
        for (units u = 0; u < utility; ++u) {
          result.unit_shares.push_back(ratio);
        }

        result.winners.push_back(w);
        result.social_cost += instance.bids[idx].price;
        return true;
      });

  if (options.rule == payment_rule::critical_value) {
    // Every payment is an independent pure probe of the instance, so they
    // run concurrently; each worker writes only its own winner's slot and
    // each probe allocates its own workspace, so the outcome is identical
    // for any thread count.
    auto pay_one = [&](std::size_t pos) {
      result.winners[pos].payment = reference_critical_value(
          instance, result.winners[pos].bid_index, options.critical_value_eps);
    };
    if (options.payment_threads == 1 || result.winners.size() < 2) {
      for (std::size_t pos = 0; pos < result.winners.size(); ++pos) {
        pay_one(pos);
      }
    } else {
      thread_pool::shared().parallel_for(result.winners.size(), pay_one,
                                         options.payment_threads);
    }

    // Budget re-verification: the in-loop gate only saw runner-up
    // ESTIMATES; the actual critical-value payments can exceed them. Drop
    // trailing winners (reverse selection order) until the realized total
    // respects W, then let the feasibility replay below re-certify the
    // surviving set (paper §IV budget feasibility).
    if (options.payment_budget > 0.0) {
      double total = 0.0;
      for (const winning_bid& w : result.winners) total += w.payment;
      while (!result.winners.empty() && total > options.payment_budget) {
        const winning_bid& last = result.winners.back();
        total -= last.payment;
        result.unit_shares.resize(
            result.unit_shares.size() -
            static_cast<std::size_t>(last.utility_at_selection));
        result.winners.pop_back();
        ++result.budget_dropped;
      }
      if (result.budget_dropped > 0) {
        result.social_cost = 0.0;
        for (const winning_bid& w : result.winners) {
          result.social_cost += instance.bids[w.bid_index].price;
        }
      }
    }
  }

  for (const winning_bid& w : result.winners) {
    result.total_payment += w.payment;
  }

  // Feasibility: replay the winners against a fresh state.
  coverage_state& replay = ws.replay;
  replay.reset(instance.requirements);
  for (const winning_bid& w : result.winners) {
    replay.apply(instance.bids[w.bid_index]);
  }
  result.feasible = replay.satisfied();

  // Dual certificate.
  if (!result.unit_shares.empty()) {
    const auto [lo_it, hi_it] = std::minmax_element(
        result.unit_shares.begin(), result.unit_shares.end());
    result.xi = *lo_it > 0.0 ? *hi_it / *lo_it : 1.0;
  }
  result.harmonic = harmonic_number(result.unit_shares.size());
  result.ratio_bound = std::max(1.0, result.harmonic * result.xi);
  result.dual_objective = result.social_cost / result.ratio_bound;

  if (options.self_audit) {
    audit_options audit;
    audit.payment_budget = options.payment_budget;
    audit_or_throw(instance, result, audit);
  }
}

void check_run_options(const ssam_options& options) {
  ECRS_CHECK_MSG(options.payment_budget >= 0.0,
                 "payment budget must be non-negative");
  ECRS_CHECK_MSG(
      options.critical_value_eps > 0.0 && options.critical_value_eps < 1.0,
      "bisection tolerance must be in (0, 1)");
}

}  // namespace

std::vector<std::size_t> greedy_selection(const single_stage_instance& instance,
                                          ssam_scratch* scratch) {
  instance.validate();
  std::optional<ssam_scratch> local;
  if (scratch == nullptr) scratch = &local.emplace();
  ssam_scratch::impl& ws = scratch->buffers();
  ws.compiled.compile(instance);
  std::vector<std::size_t> winners;
  compiled_greedy_loop(ws.compiled, ws,
                       [&](std::size_t idx, units, double, const units*,
                           const std::vector<char>&) {
                         winners.push_back(idx);
                         return true;
                       });
  return winners;
}

std::vector<std::size_t> eager_greedy_selection(
    const single_stage_instance& instance, ssam_scratch* scratch) {
  instance.validate();
  std::optional<ssam_scratch> local;
  if (scratch == nullptr) scratch = &local.emplace();
  std::vector<std::size_t> winners;
  eager_greedy_loop(instance, scratch->buffers(), instance.bids.size(), 0.0,
                    [&](std::size_t idx, units, double, const coverage_state&,
                        const std::vector<char>&) {
                      winners.push_back(idx);
                      return true;
                    });
  return winners;
}

// Both single-bid entry points resolve against the same per-winner probe
// trajectory the run_ssam payment fan-out uses.
bool wins_with_price(const single_stage_instance& instance,
                     std::size_t bid_index, double price_report) {
  instance.validate();
  ECRS_CHECK(bid_index < instance.bids.size());
  ECRS_CHECK_MSG(price_report >= 0.0, "price reports must be non-negative");
  compiled_instance compiled;
  compiled.compile(instance);
  arena& slab = arena::for_thread();
  const arena::scope probe_scope(slab);
  probe_slot slot = carve_probe_slot(slab, compiled);
  build_probe_trajectory(compiled, slot, bid_index);
  return trajectory_probe_wins(slot, bid_index, price_report);
}

double critical_value_payment(const single_stage_instance& instance,
                              std::size_t bid_index, double relative_eps) {
  instance.validate();
  ECRS_CHECK(bid_index < instance.bids.size());
  compiled_instance compiled;
  compiled.compile(instance);
  arena& slab = arena::for_thread();
  const arena::scope probe_scope(slab);
  probe_slot slot = carve_probe_slot(slab, compiled);
  return compiled_critical_value(compiled, bid_index, relative_eps, slot);
}

void run_ssam(const single_stage_instance& instance,
              const ssam_options& options, ssam_scratch* scratch,
              ssam_result& out) {
  instance.validate();
  check_run_options(options);
  std::optional<ssam_scratch> local;
  if (scratch == nullptr) scratch = &local.emplace();
  ssam_scratch::impl& ws = scratch->buffers();
  if (options.eager_reference) {
    run_ssam_reference(instance, options, ws, out);
    return;
  }
  ws.compiled.compile(instance);
  run_ssam_compiled(ws.compiled, options, ws, out);
}

void run_ssam(const compiled_instance& compiled, const ssam_options& options,
              ssam_scratch* scratch, ssam_result& out) {
  ECRS_CHECK_MSG(!options.eager_reference,
                 "the eager reference needs the original instance; "
                 "call run_ssam(single_stage_instance) instead");
  check_run_options(options);
  std::optional<ssam_scratch> local;
  if (scratch == nullptr) scratch = &local.emplace();
  run_ssam_compiled(compiled, options, scratch->buffers(), out);
}

ssam_result run_ssam(const single_stage_instance& instance,
                     const ssam_options& options, ssam_scratch* scratch) {
  ssam_result result;
  run_ssam(instance, options, scratch, result);
  return result;
}

ssam_result run_ssam(const compiled_instance& compiled,
                     const ssam_options& options, ssam_scratch* scratch) {
  ssam_result result;
  run_ssam(compiled, options, scratch, result);
  return result;
}

}  // namespace ecrs::auction
