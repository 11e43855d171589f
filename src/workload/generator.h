// Workload generator (paper §V-A).
//
// 300 edge users issue requests to microservices. Each microservice serves
// one of two QoS classes: delay-sensitive request batches arrive with
// Poisson mean 5 per round, delay-tolerant with Poisson mean 10 per round.
// Service demands are exponential around a configurable mean.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/checkpoint.h"
#include "common/rng.h"
#include "workload/request.h"

namespace ecrs::workload {

struct generator_config {
  std::uint32_t users = 300;
  std::uint32_t microservices = 25;
  // Fraction of microservices that are delay-sensitive.
  double delay_sensitive_fraction = 0.5;
  // Poisson mean of requests per (user, round) for each class, spread across
  // the microservices of that class.
  double sensitive_mean = 5.0;
  double tolerant_mean = 10.0;
  // Mean resource-seconds of work per request (exponentially distributed).
  double mean_service_demand = 1.0;
  // Per-class overrides (paper's future-work extension: "diverse processing
  // time of each task"). 0 = use mean_service_demand.
  double sensitive_mean_demand = 0.0;
  double tolerant_mean_demand = 0.0;
  // Edge cloud regions hosting the microservices (sharded marketplace).
  // Microservice m is hosted on region m % regions, so every request is
  // tagged with the region that must serve it. 1 = the single-market
  // setups of PRs 1-7 (every request tagged region 0; streams unchanged).
  std::uint32_t regions = 1;
  std::uint64_t seed = 42;
};

// The arrival order, a total order: arrival time, then QoS class
// (delay-sensitive first among equal times, the paper's priority), then
// request id.
[[nodiscard]] inline bool arrives_before(const request& a, const request& b) {
  if (a.arrival_time != b.arrival_time) return a.arrival_time < b.arrival_time;
  if (a.qos != b.qos) return a.qos < b.qos;
  return a.id < b.id;
}

// Index buffers order_arrivals reuses from call to call.
struct arrival_order_scratch {
  std::vector<std::uint32_t> bucket_end;  // per bucket: where it ends
  std::vector<std::uint32_t> source;      // per slot: the index it takes
};

// Sort `batch` in place by arrives_before in O(n) expected time, for
// arrivals spread over [round_start, round_start + duration]. Request i goes
// to bucket floor((t_i - round_start) * n / duration), clamped to
// [0, n - 1]; the key is monotone in t, so bucket order is already arrival
// order. The bucket counts become target slots, the permutation is applied
// in place by following its cycles, and each bucket is then std::sort-ed on
// its own; most hold a handful of requests, and a batch whose times all
// coincide stays O(n log n). Arrival times outside the window are still
// ordered correctly, only more slowly. Needs finite `round_start` and a
// finite positive `duration`.
void order_arrivals(std::span<request> batch, double round_start,
                    double duration, arrival_order_scratch& scratch);

// Per-round batch: the requests that arrived during one auction round, in
// the arrives_before order.
class generator {
 public:
  explicit generator(generator_config config);

  [[nodiscard]] const generator_config& config() const { return config_; }

  [[nodiscard]] std::uint32_t microservice_count() const {
    return config_.microservices;
  }

  // QoS class assigned to each microservice (index = microservice id).
  [[nodiscard]] qos_class class_of(std::uint32_t microservice) const;
  // All of them, indexed by microservice id (what edge::cluster places).
  [[nodiscard]] const std::vector<qos_class>& classes() const {
    return class_by_service_;
  }

  // Edge cloud region hosting a microservice (round-robin over
  // config.regions; deterministic, no rng involved).
  [[nodiscard]] std::uint32_t region_of(std::uint32_t microservice) const;

  // Generate all requests arriving in [round_start, round_start + duration),
  // in the arrives_before order. `round_start` and the round end must be
  // finite and `duration` positive.
  [[nodiscard]] std::vector<request> round(double round_start,
                                           double duration);

  // Same stream of requests, written into a caller-owned buffer: `batch` is
  // cleared, reserved from expected_arrivals_per_round(), and refilled, so
  // a driver that reuses one buffer pays no allocation in steady state (the
  // ordering's index buffers are the generator's and are reused too).
  void round_into(double round_start, double duration,
                  std::vector<request>& batch);

  // Total expected arrivals per round across all users (sanity metric).
  [[nodiscard]] double expected_arrivals_per_round() const;

  // Effective mean service demand of a QoS class (override or global).
  [[nodiscard]] double mean_demand_of(qos_class cls) const;

  // Scale the per-class Poisson arrival means for subsequent rounds
  // (service demands are untouched). Scenario programs drive this per
  // round: diurnal cycles, flash crowds. 1.0 = configured rates; must be
  // finite and >= 0, and the expected arrivals per round at this scale
  // must stay below kMaxExpectedArrivals.
  void set_rate_scale(double scale);
  [[nodiscard]] double rate_scale() const { return rate_scale_; }
  // The largest expected round a scale may ask for: order_arrivals indexes
  // a batch with 32-bit slots.
  static constexpr double kMaxExpectedArrivals = 4294967295.0;  // 2^32 - 1

  // Checkpoint the generator's dynamic state (rng state, next request id,
  // current rate scale). Class assignment and target lists are
  // construction-time deterministic from the config and not serialized.
  void save(ecrs::checkpoint_writer& w) const;
  void load(ecrs::checkpoint_reader& r);

 private:
  generator_config config_;
  rng gen_;
  std::uint64_t next_request_id_ = 1;
  double rate_scale_ = 1.0;
  std::vector<qos_class> class_by_service_;
  // Microservice ids by class, ascending: round_into targets a class with
  // one uniform draw instead of rejection sampling the full id space.
  std::vector<std::uint32_t> sensitive_ids_;
  std::vector<std::uint32_t> tolerant_ids_;
  arrival_order_scratch order_scratch_;
};

}  // namespace ecrs::workload
