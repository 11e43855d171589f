#include "demand/estimator.h"

#include <algorithm>
#include <cmath>

#include "ahp/ahp.h"
#include "common/check.h"
#include "common/rng.h"

namespace ecrs::demand {
namespace {

// id -> table position hash (splitmix64 finalizer on the widened id).
ECRS_HOT std::uint64_t hash_id(std::uint32_t id) {
  std::uint64_t state = id;
  return splitmix64(state);
}

}  // namespace

estimator_config make_default_config() {
  estimator_config cfg;
  const ahp::ahp_result weights =
      ahp::derive_weights(ahp::default_demand_judgments());
  // Eq. (1) multiplies each indicator by 1/w; we store w = 1/weight so the
  // AHP importance weight is applied directly.
  cfg.w_waiting = 1.0 / weights.weights[0];
  cfg.w_processing = 1.0 / weights.weights[1];
  cfg.w_request_rate = 1.0 / weights.weights[2];
  return cfg;
}

estimator::estimator(estimator_config config) : config_(config) {
  ECRS_CHECK_MSG(config_.w_waiting > 0.0 && config_.w_processing > 0.0 &&
                     config_.w_request_rate > 0.0,
                 "criterion weights must be positive");
  ECRS_CHECK_MSG(config_.smoothing >= 0.0 && config_.smoothing < 1.0,
                 "smoothing factor must be in [0,1)");
  ECRS_CHECK_MSG(
      config_.trend_smoothing >= 0.0 && config_.trend_smoothing < 1.0,
      "trend smoothing factor must be in [0,1)");
  ECRS_CHECK_MSG(
      config_.max_utilization > 0.0 && config_.max_utilization < 1.0,
      "max utilization must be in (0,1)");
  ECRS_CHECK_MSG(config_.round_duration > 0.0,
                 "round duration must be positive");
}

ECRS_HOT estimator::pending_entry estimator::split(
    const edge::round_stats& s) const {
  ECRS_CHECK_MSG(s.round >= 1, "rounds are 1-based");
  pending_entry p;

  // γ_i^t = ζ·θ_i/π_i. With no arrivals the completion ratio is taken as 1
  // (nothing is waiting).
  const double completion =
      s.received > 0
          ? static_cast<double>(s.served) / static_cast<double>(s.received)
          : 1.0;
  p.waiting = config_.zeta * completion;

  // ℝ_i^t = (ς_i − ϖ_i)/t: the processing-rate gap between what the
  // microservice needs (clear arrivals + backlog within the round) and what
  // it achieved, relaxed by the elapsed rounds. Negative gaps (over-served)
  // clamp to zero.
  const double needed = s.required_rate(config_.round_duration);
  const double achieved = s.achieved_rate(config_.round_duration);
  p.processing =
      std::max(0.0, needed - achieved) / static_cast<double>(s.round);

  // The a_max-free factors of 𝕋_i^t, with L clamped below 1 and V(n̄) =
  // co-located microservice count (density of neighbours).
  const double util = std::clamp(s.utilization, 0.0, config_.max_utilization);
  const double density = static_cast<double>(std::max(1u, s.cloud_population));
  p.q = util * static_cast<double>(s.round) / density;
  p.one_minus_util = 1.0 - util;
  p.allocation = s.allocation;
  return p;
}

ECRS_HOT indicator_values estimator::finish(const pending_entry& p,
                                            double a_max) const {
  // 𝕋_i^t = Δ·(a_i/a_max)·(L_i·t/V(n̄))·1/(1−L_i).
  const double alloc_ratio = a_max > 0.0 ? p.allocation / a_max : 0.0;
  return {p.waiting, p.processing,
          config_.delta * alloc_ratio * p.q / p.one_minus_util};
}

ECRS_HOT double estimator::weigh(const indicator_values& v) const {
  const double x = v.waiting / config_.w_waiting +
                   v.processing / config_.w_processing +
                   v.request_rate / config_.w_request_rate;
  return std::max(0.0, x);
}

indicator_values estimator::indicators(const edge::round_stats& s,
                                       double a_max) const {
  return finish(split(s), a_max);
}

double estimator::raw_demand(const edge::round_stats& s, double a_max) const {
  return weigh(indicators(s, a_max));
}

std::uint32_t estimator::find_slot(std::uint32_t id) const {
  if (table_slot_.empty()) return kEmptySlot;
  const std::size_t mask = table_slot_.size() - 1;
  std::size_t pos = static_cast<std::size_t>(hash_id(id)) & mask;
  while (table_slot_[pos] != kEmptySlot) {
    if (table_key_[pos] == id) return table_slot_[pos];
    pos = (pos + 1) & mask;
  }
  return kEmptySlot;
}

ECRS_HOT_ESCAPE void estimator::rebuild_table(std::size_t min_slots) {
  std::size_t cells = 16;
  // Power-of-two size keeping the load factor at or below ~70%.
  while (cells * 7 < (min_slots + 1) * 10) cells *= 2;
  if (cells < table_slot_.size()) cells = table_slot_.size();
  table_key_.assign(cells, 0);
  table_slot_.assign(cells, kEmptySlot);
  const std::size_t mask = cells - 1;
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    std::size_t pos = static_cast<std::size_t>(hash_id(slot_id_[slot])) & mask;
    while (table_slot_[pos] != kEmptySlot) pos = (pos + 1) & mask;
    table_key_[pos] = slot_id_[slot];
    table_slot_[pos] = slot;
  }
}

ECRS_HOT std::uint32_t estimator::find_or_create_slot(std::uint32_t id) {
  if (table_slot_.empty()) rebuild_table(1);
  const std::size_t mask = table_slot_.size() - 1;
  std::size_t pos = static_cast<std::size_t>(hash_id(id)) & mask;
  while (table_slot_[pos] != kEmptySlot) {
    if (table_key_[pos] == id) return table_slot_[pos];
    pos = (pos + 1) & mask;
  }
  const auto slot = static_cast<std::uint32_t>(slot_id_.size());
  slot_id_.push_back(id);
  slot_level_.push_back(0.0);
  slot_trend_.push_back(0.0);
  slot_seen_.push_back(rounds_);
  slot_init_.push_back(0);
  if ((slot_id_.size() + 1) * 10 > table_slot_.size() * 7) {
    rebuild_table(slot_id_.size());
  } else {
    table_key_[pos] = id;
    table_slot_[pos] = slot;
  }
  return slot;
}

ECRS_HOT double estimator::advance_holt(std::uint32_t slot, double raw) {
  if (slot_init_[slot] == 0) {
    slot_level_[slot] = raw;
    slot_trend_[slot] = 0.0;
    slot_init_[slot] = 1;
    return raw;
  }
  const double previous_level = slot_level_[slot];
  // Level: EWMA of the raw observation around the trend-projected level.
  slot_level_[slot] = (1.0 - config_.smoothing) * raw +
                      config_.smoothing * (previous_level + slot_trend_[slot]);
  // Trend (Holt): EWMA of consecutive level differences; 0 keeps it off.
  if (config_.trend_smoothing > 0.0) {
    slot_trend_[slot] =
        config_.trend_smoothing * (slot_level_[slot] - previous_level) +
        (1.0 - config_.trend_smoothing) * slot_trend_[slot];
  }
  // One-step-ahead forecast, floored at zero (demands are non-negative).
  return std::max(0.0, slot_level_[slot] + slot_trend_[slot]);
}

double estimator::estimate(const edge::round_stats& s, double a_max) {
  const double raw = raw_demand(s, a_max);
  const std::uint32_t slot = find_or_create_slot(s.microservice);
  slot_seen_[slot] = rounds_;
  return advance_holt(slot, raw);
}

ECRS_HOT void estimator::observe(const edge::round_stats& s) {
  // The a_max factor of Eq. (2) is deferred to estimates_into, where the
  // round's maximum allocation is known.
  pending_entry p = split(s);
  p.slot = find_or_create_slot(s.microservice);
  pending_.push_back(p);
  if (s.allocation > round_a_max_) round_a_max_ = s.allocation;
}

ECRS_HOT void estimator::estimates_into(std::span<double> out) {
  ECRS_CHECK_MSG(out.size() == pending_.size(),
                 "estimates_into span holds " << out.size() << " slots for "
                                              << pending_.size()
                                              << " observed entries");
  const double a_max = round_a_max_;
  ++rounds_;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const pending_entry& p = pending_[i];
    out[i] = advance_holt(p.slot, weigh(finish(p, a_max)));
    slot_seen_[p.slot] = rounds_;
  }
  pending_.clear();
  round_a_max_ = 0.0;
  if (config_.forget_after > 0) forget_stale();
}

void estimator::forget_stale() {
  std::size_t n = slot_id_.size();
  std::size_t i = 0;
  bool dropped = false;
  while (i < n) {
    if (rounds_ - slot_seen_[i] >= config_.forget_after) {
      --n;
      slot_id_[i] = slot_id_[n];
      slot_level_[i] = slot_level_[n];
      slot_trend_[i] = slot_trend_[n];
      slot_seen_[i] = slot_seen_[n];
      slot_init_[i] = slot_init_[n];
      dropped = true;
    } else {
      ++i;
    }
  }
  if (!dropped) return;
  slot_id_.resize(n);
  slot_level_.resize(n);
  slot_trend_.resize(n);
  slot_seen_.resize(n);
  slot_init_.resize(n);
  rebuild_table(n);
}

std::vector<double> estimator::estimate_round(
    const std::vector<edge::round_stats>& stats) {
  ECRS_CHECK_MSG(pending_.empty(),
                 "estimate_round cannot interleave with a pending streamed "
                 "round; finalize with estimates_into first");
  for (const edge::round_stats& s : stats) observe(s);
  std::vector<double> out(stats.size());
  estimates_into(out);
  return out;
}

double estimator::last_estimate(std::uint32_t microservice) const {
  const std::uint32_t slot = find_slot(microservice);
  if (slot == kEmptySlot || slot_init_[slot] == 0) return 0.0;
  return std::max(0.0, slot_level_[slot] + slot_trend_[slot]);
}

void estimator::reset_history() {
  slot_id_.clear();
  slot_level_.clear();
  slot_trend_.clear();
  slot_seen_.clear();
  slot_init_.clear();
  table_key_.clear();
  table_slot_.clear();
  pending_.clear();
  round_a_max_ = 0.0;
  rounds_ = 0;
}

void estimator::save(checkpoint_writer& w) const {
  ECRS_CHECK_MSG(pending_.empty(),
                 "estimator checkpoints are only valid at round boundaries "
                 "(pending round not finalized)");
  w.u64(rounds_);
  w.size(slot_id_.size());
  for (std::size_t i = 0; i < slot_id_.size(); ++i) {
    w.u32(slot_id_[i]);
    w.f64(slot_level_[i]);
    w.f64(slot_trend_[i]);
    w.u64(slot_seen_[i]);
    w.u8(static_cast<std::uint8_t>(slot_init_[i]));
  }
}

void estimator::load(checkpoint_reader& r) {
  reset_history();
  rounds_ = r.u64();
  const std::size_t n = r.size();
  // 29 bytes per slot; a corrupt count must fail here, not in a giant
  // resize.
  ECRS_CHECK_MSG(n <= r.remaining() / 29,
                 "estimator checkpoint declares " << n
                                                  << " slots but the payload "
                                                     "is too short");
  slot_id_.reserve(n);
  slot_level_.reserve(n);
  slot_trend_.reserve(n);
  slot_seen_.reserve(n);
  slot_init_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    slot_id_.push_back(r.u32());
    slot_level_.push_back(r.f64());
    slot_trend_.push_back(r.f64());
    slot_seen_.push_back(r.u64());
    slot_init_.push_back(static_cast<char>(r.u8()));
  }
  rebuild_table(n);
}

}  // namespace ecrs::demand
