// Edge-cloud cluster: a set of capacity-constrained edge clouds hosting
// microservices (paper §II). Every cloud is reachable from every access
// point, so routing reduces to delivering each request to the cloud hosting
// its target microservice. Resources inside a cloud are distributed by the
// fair-sharing policy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "common/rng.h"
#include "edge/microservice.h"
#include "workload/request.h"

namespace ecrs::edge {

struct edge_cloud {
  std::uint32_t id = 0;
  double capacity = 0.0;                  // resource units
  std::vector<std::uint32_t> hosted;      // microservice ids
};

struct cluster_config {
  std::uint32_t clouds = 10;              // paper: 10 base stations
  double capacity_per_cloud = 30.0;       // resource units per cloud
  std::uint64_t seed = 7;
};

class cluster {
 public:
  // Places one microservice per entry of `qos` (index = microservice id)
  // uniformly at random onto the configured clouds.
  cluster(cluster_config config, const std::vector<workload::qos_class>& qos);

  [[nodiscard]] std::size_t microservice_count() const {
    return services_.size();
  }
  [[nodiscard]] std::size_t cloud_count() const { return clouds_.size(); }
  [[nodiscard]] const edge_cloud& cloud(std::uint32_t id) const;
  [[nodiscard]] const microservice& service(std::uint32_t id) const;
  [[nodiscard]] microservice& service(std::uint32_t id);
  [[nodiscard]] std::uint32_t cloud_of(std::uint32_t microservice_id) const;

  // Deliver a batch of requests to their target microservices.
  void route(const std::vector<workload::request>& batch);

  // Recompute each cloud's allocations by max-min fair sharing over the
  // microservices' current demand proxies (backlog plus projected arrivals
  // per unit time, with a minimal keep-alive share). `sensitive_weight` > 1
  // biases the water level toward delay-sensitive microservices (paper
  // §V-A priority); 1.0 = unweighted.
  void allocate_fair(double round_duration, double sensitive_weight = 1.0);

  // Grant `amount` extra resources to one microservice (the platform
  // reallocating reclaimed resources after an auction round), or reclaim
  // with a negative amount (clamped at zero).
  void adjust_allocation(std::uint32_t microservice_id, double amount);

  // Serve all queues for `duration` seconds starting at `now`.
  void advance(double now, double duration);

  // Event-accurate delivery of one round: each request of the time-sorted
  // `batch` is enqueued at its arrival time, after advancing only its
  // target queue from that queue's clock (allocations are constant within
  // a round, so how the drain is sliced does not matter); then every queue
  // is synced to `end`. Needs finite start < end, arrivals in
  // non-decreasing order within [start, end] and known microservice ids.
  ECRS_HOT void deliver_round(std::span<const workload::request> batch,
                              double start, double end);

  // Close the round: per-microservice statistics, with cloud populations.
  [[nodiscard]] std::vector<round_stats> end_round(std::uint64_t round,
                                                   double round_duration);

  // Checkpoint every microservice's runtime state. Placement and cloud
  // capacities are construction-time (deterministic from config_.seed), so
  // only the per-service state is serialized; load verifies the service
  // count matches the constructed topology.
  void save(ecrs::checkpoint_writer& w) const;
  void load(ecrs::checkpoint_reader& r);

 private:
  cluster_config config_;
  std::vector<edge_cloud> clouds_;
  std::vector<microservice> services_;
  std::vector<std::uint32_t> placement_;  // microservice id -> cloud id
  // deliver_round's per-service clocks: reset every round and reused, so
  // steady-state rounds do not allocate. Not checkpoint state.
  std::vector<double> clock_;
};

}  // namespace ecrs::edge
