// Microservice demand estimation (paper §III).
//
// Turns per-round queueing observables into a scalar resource demand
//   X_i^t = (1/w_γ)·γ_i^t + (1/w_ℝ)·ℝ_i^t + (1/w_𝕋)·𝕋_i^t          (Eq. 1)
// with
//   γ_i^t = ζ·θ_i/π_i                       (waiting-time indicator)
//   ℝ_i^t = (ς_i − ϖ_i)/t                   (processing-rate indicator)
//   𝕋_i^t = Δ·(a_i/a_max)·(L_i·t/V(n̄))·1/(1−L_i)   (request-rate, Eq. 2)
// The scaling factors 1/w are derived by AHP (DESIGN.md §2). Since "the
// demands of all microservices at t−1, t−2, … are more important" (§III),
// estimates are exponentially smoothed over the round history.
//
// Streaming contract (DESIGN.md section 13): the per-round path is
// observe() once per microservice followed by one estimates_into() —
// Holt level/trend state updates IN PLACE in flat indexed arrays (no
// per-call map, no fresh result vector), so a closed-loop daemon's
// steady-state estimation is allocation-free. estimate_round() remains as
// a thin compatibility wrapper over the same path and is bit-identical to
// the historical map-based implementation. With forget_after > 0, history
// entries unseen for that many finalized rounds are dropped, bounding the
// estimator's footprint by the peak number of concurrently live ids under
// microservice churn.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "common/checkpoint.h"
#include "edge/microservice.h"

namespace ecrs::demand {

struct indicator_values {
  double waiting = 0.0;      // γ_i^t
  double processing = 0.0;   // ℝ_i^t
  double request_rate = 0.0; // 𝕋_i^t
};

struct estimator_config {
  double zeta = 1.0;    // ζ: waiting-time scale
  double delta = 1.0;   // Δ: request-rate scale
  // Criterion weights w_γ, w_ℝ, w_𝕋; Eq. (1) uses their reciprocals as
  // importance factors. Defaults come from ahp::default_demand_judgments()
  // via make_default_config().
  double w_waiting = 3.5;      // 1/(2/7)
  double w_processing = 7.0;   // 1/(1/7)
  double w_request_rate = 1.75;  // 1/(4/7)
  // EWMA factor on history: estimate = (1−s)·raw + s·previous. s = 0
  // disables smoothing.
  double smoothing = 0.4;
  // Holt double-exponential (level + trend) smoothing factor for the trend
  // component. 0 = plain EWMA (no trend). With a trend, the estimate
  // anticipates demand that is still rising — useful for the bursty loads
  // of §V. Must satisfy 0 <= trend_smoothing < 1.
  double trend_smoothing = 0.0;
  // Utilization is clamped to at most this value so the 1/(1−L) term stays
  // finite under saturation.
  double max_utilization = 0.95;
  double round_duration = 600.0;  // paper: 10-minute rounds
  // Drop history entries unseen for this many finalized rounds (0 = keep
  // forever). Bounds memory under microservice churn: the footprint tracks
  // the PEAK concurrently-live id count, not the cumulative id space.
  std::uint64_t forget_after = 0;
};

// Config with AHP-derived weights (waiting 2/7, processing 1/7, request
// rate 4/7 — see ahp::default_demand_judgments()).
[[nodiscard]] estimator_config make_default_config();

class estimator {
 public:
  explicit estimator(estimator_config config);

  [[nodiscard]] const estimator_config& config() const { return config_; }

  // The three indicators for one microservice-round. `a_max` is the largest
  // allocation among all microservices this round (Eq. 2).
  [[nodiscard]] indicator_values indicators(const edge::round_stats& s,
                                            double a_max) const;

  // Raw (unsmoothed) Eq. (1) demand; never negative.
  [[nodiscard]] double raw_demand(const edge::round_stats& s,
                                  double a_max) const;

  // Smoothed estimate for one microservice; updates its history.
  double estimate(const edge::round_stats& s, double a_max);

  // ---- streaming round API -------------------------------------------------
  // Record one microservice's round observables into the pending round.
  // The a_max-dependent factor of Eq. (2) is deferred until the round's
  // maximum allocation is known, so observation order is free and no stats
  // vector has to be materialized. Allocation-free once the pending
  // buffers reached their steady-state capacity.
  ECRS_HOT void observe(const edge::round_stats& s);

  // Close the pending round: compute every observed entry's smoothed
  // estimate (observe order), commit the Holt updates in place, reset the
  // pending round, and — with forget_after > 0 — drop stale history.
  // `out.size()` must equal observed(). Pure arithmetic over flat arrays.
  ECRS_HOT void estimates_into(std::span<double> out);

  // Entries observed in the pending (not yet finalized) round.
  [[nodiscard]] std::size_t observed() const { return pending_.size(); }

  // Estimate a whole round at once. Compatibility wrapper over
  // observe()/estimates_into(): bit-identical to the historical map-based
  // implementation, but the only allocation left is the returned vector.
  std::vector<double> estimate_round(const std::vector<edge::round_stats>& stats);

  // Last smoothed estimate for a microservice (0 if never seen).
  [[nodiscard]] double last_estimate(std::uint32_t microservice) const;

  void reset_history();

  // ---- history telemetry (churn regression tests) --------------------------
  [[nodiscard]] std::size_t history_size() const { return slot_id_.size(); }
  // Capacity of the flat history storage — the RSS proxy the churn
  // regression bounds (capacities never shrink, so a flat capacity over a
  // long churning horizon means a flat resident set).
  [[nodiscard]] std::size_t history_capacity() const {
    return slot_id_.capacity() + table_slot_.capacity();
  }
  // Rounds finalized through estimates_into()/estimate_round().
  [[nodiscard]] std::uint64_t rounds_observed() const { return rounds_; }

  // ---- checkpoint/restore (common/checkpoint.h) ----------------------------
  // Only valid between rounds (nothing observed and not yet finalized);
  // load restores the Holt state and round counter bit for bit.
  void save(checkpoint_writer& w) const;
  void load(checkpoint_reader& r);

 private:
  // One observe() record: the indicator components that do not depend on
  // the round's a_max, plus the deferred allocation.
  struct pending_entry {
    std::uint32_t slot = 0;
    double waiting = 0.0;
    double processing = 0.0;
    double q = 0.0;               // (L·t)/V(n̄), the a_max-free Eq. 2 factor
    double one_minus_util = 0.0;  // 1 − L
    double allocation = 0.0;      // a_i, divided by a_max at finalize
  };

  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  // Eq. (1)-(2), written once: split() computes the a_max-free components
  // (slot left 0), finish() applies a_max and returns the indicators,
  // weigh() returns their AHP-weighted sum floored at 0.
  ECRS_HOT pending_entry split(const edge::round_stats& s) const;
  ECRS_HOT indicator_values finish(const pending_entry& p, double a_max) const;
  ECRS_HOT double weigh(const indicator_values& v) const;

  // Locate (or append) the flat-history slot of `id`.
  ECRS_HOT std::uint32_t find_or_create_slot(std::uint32_t id);
  [[nodiscard]] std::uint32_t find_slot(std::uint32_t id) const;
  // Commit one raw observation to slot `slot`'s Holt state; returns the
  // one-step-ahead forecast (the smoothed estimate).
  ECRS_HOT double advance_holt(std::uint32_t slot, double raw);
  // Rebuild the id -> slot table over the current slots.
  // ECRS_HOT_ESCAPE from the hot path's perspective: runs only when the
  // live id set grows past the table's load factor or shrinks via
  // forget_stale — both cold at steady state.
  ECRS_HOT_ESCAPE void rebuild_table(std::size_t min_slots);
  // Swap-remove every slot unseen for forget_after rounds, then rebuild
  // the table compactly. O(live) scan; no-op when nothing is stale.
  void forget_stale();

  estimator_config config_;
  std::uint64_t rounds_ = 0;  // finalized rounds

  // Flat Holt history, struct-of-arrays; slot order is insertion order
  // (perturbed only by forget_stale's swap-removes).
  std::vector<std::uint32_t> slot_id_;
  std::vector<double> slot_level_;
  std::vector<double> slot_trend_;
  std::vector<std::uint64_t> slot_seen_;  // rounds_ value at last touch
  std::vector<char> slot_init_;           // 0 until the first observation

  // Open-addressing id -> slot index (linear probing, power-of-two size,
  // <= 70% load). table_slot_[i] == kEmptySlot marks an empty cell.
  std::vector<std::uint32_t> table_key_;
  std::vector<std::uint32_t> table_slot_;

  // The pending (streamed, not yet finalized) round.
  std::vector<pending_entry> pending_;
  double round_a_max_ = 0.0;
};

}  // namespace ecrs::demand
