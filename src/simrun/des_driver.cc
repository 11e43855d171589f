#include "simrun/des_driver.h"

#include <cmath>
#include <utility>

#include "common/check.h"

namespace ecrs::edge {

des_driver::des_driver(des::simulator& sim, cluster& cl,
                       workload::generator& traffic, demand::estimator& est,
                       des_driver_config config)
    : sim_(sim),
      cluster_(cl),
      traffic_(traffic),
      estimator_(est),
      config_(config) {
  ECRS_CHECK_MSG(std::isfinite(config_.round_duration) &&
                     config_.round_duration > 0.0,
                 "round duration must be finite and positive, got "
                     << config_.round_duration);
  ECRS_CHECK_MSG(config_.rounds >= 1, "need at least one round");
  ECRS_CHECK_MSG(
      traffic_.microservice_count() == cluster_.microservice_count(),
      "traffic source and cluster disagree on the number of microservices");
  service_clock_.assign(cluster_.microservice_count(), 0.0);
}

void des_driver::catch_up(std::uint32_t m, double now) {
  double& mark = service_clock_[m];
  if (now > mark) {
    cluster_.service(m).advance(mark, now - mark);
    mark = now;
  }
}

void des_driver::deliver(const workload::request& r) {
  microservice& svc = cluster_.service(r.microservice);
  const double now = sim_.now();
  double& mark = service_clock_[r.microservice];
  if (now > mark) {
    svc.advance(mark, now - mark);
    mark = now;
  }
  svc.enqueue(r);
  ++delivered_;
}

void des_driver::schedule_round(std::uint64_t round) {
  const double start =
      static_cast<double>(round - 1) * config_.round_duration;
  const double end = start + config_.round_duration;

  // Allocate for the round using the state visible at its start.
  cluster_.allocate_fair(config_.round_duration);

  // Generate into the reusable batch buffer. It is safe to overwrite: the
  // previous round's deliveries all carry timestamps strictly before its
  // boundary, which fired before this call, so the old stream/closures have
  // fully drained.
  traffic_.round_into(start, config_.round_duration, batch_);

  if (config_.delivery == delivery_mode::per_event) {
    // Reference shape: one scheduled closure per request, capturing a
    // reference into the round-lived batch (no per-request copy).
    for (const workload::request& r : batch_) {
      sim_.schedule_at(r.arrival_time, [this, &r] { deliver(r); });
    }
  } else if (!batch_.empty()) {
    // Batched: register the whole time-sorted batch as one stream record;
    // a single cursor drains it in arrival order, interleaved with the
    // round boundary exactly like the per-event reference.
    arrivals_.resize(batch_.size());
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      arrivals_[i] = batch_[i].arrival_time;
    }
    sim_.schedule_stream(arrivals_,
                         [this](std::size_t i) { deliver(batch_[i]); });
  }

  // Round boundary: drain up to the boundary, close the round, estimate,
  // hand over to the callback, then arm the next round.
  sim_.schedule_at(end, [this, round, end] {
    // Sync every service to the boundary before closing the round (and
    // before allocate_fair changes allocations for the next one).
    for (std::uint32_t m = 0; m < service_clock_.size(); ++m) {
      catch_up(m, end);
    }
    const auto stats = cluster_.end_round(round, config_.round_duration);
    const auto estimates = estimator_.estimate_round(stats);
    ++completed_;
    if (callback_) callback_(round, stats, estimates);
    if (round < config_.rounds) schedule_round(round + 1);
  });
}

void des_driver::run() {
  ECRS_CHECK_MSG(completed_ == 0, "driver has already run");
  ECRS_CHECK_MSG(sim_.now() == 0.0, "driver requires a fresh simulator");
  schedule_round(1);
  sim_.run();
}

}  // namespace ecrs::edge
