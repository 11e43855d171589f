#include "simrun/des_driver.h"

#include <cmath>

#include "common/check.h"

namespace ecrs::edge {

des_driver::des_driver(cluster& cl, workload::generator& traffic,
                       demand::estimator& est, des_driver_config config)
    : cluster_(cl),
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

void des_driver::run_round(std::uint64_t round) {
  const double start =
      static_cast<double>(round - 1) * config_.round_duration;
  const double end = start + config_.round_duration;

  // Allocate for the round using the state visible at its start.
  cluster_.allocate_fair(config_.round_duration);
  traffic_.round_into(start, config_.round_duration, batch_);

  double previous = start;
  for (const workload::request& r : batch_) {
    ECRS_CHECK_MSG(r.arrival_time >= previous,
                   "arrivals out of order at request " << r.id);
    ECRS_CHECK_MSG(r.arrival_time <= end,
                   "request " << r.id << " arrives past the round end");
    previous = r.arrival_time;
    catch_up(r.microservice, r.arrival_time);
    cluster_.service(r.microservice).enqueue(r);
    ++delivered_;
  }

  // Sync every service to the boundary before closing the round (and
  // before allocate_fair changes allocations for the next one).
  for (std::uint32_t m = 0; m < service_clock_.size(); ++m) {
    catch_up(m, end);
  }
  const auto stats = cluster_.end_round(round, config_.round_duration);
  const auto estimates = estimator_.estimate_round(stats);
  ++completed_;
  if (callback_) callback_(round, stats, estimates);
}

void des_driver::run() {
  ECRS_CHECK_MSG(completed_ == 0, "driver has already run");
  for (std::uint64_t round = 1; round <= config_.rounds; ++round) {
    run_round(round);
  }
}

}  // namespace ecrs::edge
