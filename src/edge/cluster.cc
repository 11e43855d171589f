#include "edge/cluster.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "edge/fair_share.h"

namespace ecrs::edge {

cluster::cluster(cluster_config config,
                 const std::vector<workload::qos_class>& qos)
    : config_(config) {
  ECRS_CHECK_MSG(config_.clouds > 0, "need at least one edge cloud");
  ECRS_CHECK_MSG(config_.capacity_per_cloud > 0.0,
                 "cloud capacity must be positive");
  ECRS_CHECK_MSG(!qos.empty(), "need at least one microservice");

  clouds_.reserve(config_.clouds);
  for (std::uint32_t c = 0; c < config_.clouds; ++c) {
    clouds_.push_back(edge_cloud{c, config_.capacity_per_cloud, {}});
  }

  rng gen(config_.seed);
  services_.reserve(qos.size());
  placement_.reserve(qos.size());
  for (std::uint32_t s = 0; s < qos.size(); ++s) {
    services_.emplace_back(s, qos[s]);
    const auto cloud_id = static_cast<std::uint32_t>(
        gen.uniform_int(0, static_cast<std::int64_t>(config_.clouds) - 1));
    placement_.push_back(cloud_id);
    clouds_[cloud_id].hosted.push_back(s);
  }
}

const edge_cloud& cluster::cloud(std::uint32_t id) const {
  ECRS_CHECK(id < clouds_.size());
  return clouds_[id];
}

const microservice& cluster::service(std::uint32_t id) const {
  ECRS_CHECK(id < services_.size());
  return services_[id];
}

microservice& cluster::service(std::uint32_t id) {
  ECRS_CHECK(id < services_.size());
  return services_[id];
}

std::uint32_t cluster::cloud_of(std::uint32_t microservice_id) const {
  ECRS_CHECK(microservice_id < placement_.size());
  return placement_[microservice_id];
}

void cluster::route(const std::vector<workload::request>& batch) {
  for (const workload::request& r : batch) {
    ECRS_CHECK_MSG(r.microservice < services_.size(),
                   "request targets unknown microservice " << r.microservice);
    services_[r.microservice].enqueue(r);
  }
}

void cluster::allocate_fair(double round_duration, double sensitive_weight) {
  ECRS_CHECK(round_duration > 0.0);
  ECRS_CHECK_MSG(sensitive_weight >= 1.0,
                 "sensitive weight must be at least 1");
  // A microservice's demand proxy: clear its backlog plus a recurrence of
  // last round's arrivals (with headroom) within one round, but never below
  // a minimal keep-alive share so idle services stay responsive. Backlog
  // alone converges to allocation = arrival rate, i.e. permanent
  // saturation; the arrival term lets underloaded services drain.
  constexpr double kKeepAlive = 0.05;
  constexpr double kHeadroom = 1.25;
  for (const edge_cloud& cl : clouds_) {
    if (cl.hosted.empty()) continue;
    std::vector<double> demands;
    std::vector<double> weights;
    demands.reserve(cl.hosted.size());
    weights.reserve(cl.hosted.size());
    for (std::uint32_t s : cl.hosted) {
      const double projected =
          services_[s].backlog_work() +
          kHeadroom * services_[s].last_round_arrived_work();
      demands.push_back(std::max(kKeepAlive, projected / round_duration));
      weights.push_back(
          services_[s].qos() == workload::qos_class::delay_sensitive
              ? sensitive_weight
              : 1.0);
    }
    const std::vector<double> alloc =
        sensitive_weight > 1.0
            ? weighted_max_min_fair_share(demands, weights, cl.capacity)
            : max_min_fair_share(demands, cl.capacity);
    for (std::size_t k = 0; k < cl.hosted.size(); ++k) {
      services_[cl.hosted[k]].set_allocation(alloc[k]);
    }
  }
}

void cluster::adjust_allocation(std::uint32_t microservice_id, double amount) {
  ECRS_CHECK(microservice_id < services_.size());
  microservice& svc = services_[microservice_id];
  svc.set_allocation(std::max(0.0, svc.allocation() + amount));
}

void cluster::advance(double now, double duration) {
  for (microservice& svc : services_) svc.advance(now, duration);
}

ECRS_HOT void cluster::deliver_round(std::span<const workload::request> batch,
                                     double start, double end) {
  ECRS_CHECK_MSG(std::isfinite(start) && std::isfinite(end) && start < end,
                 "delivery window [" << start << ", " << end
                                     << "] must be finite and non-empty");
  clock_.assign(services_.size(), start);
  double previous = start;
  for (const workload::request& r : batch) {
    ECRS_CHECK_MSG(r.arrival_time >= previous,
                   "arrivals out of order at request " << r.id);
    ECRS_CHECK_MSG(r.arrival_time <= end,
                   "request " << r.id << " arrives past the round end");
    ECRS_CHECK_MSG(r.microservice < services_.size(),
                   "request targets unknown microservice " << r.microservice);
    previous = r.arrival_time;
    microservice& svc = services_[r.microservice];
    double& mark = clock_[r.microservice];
    if (r.arrival_time > mark) {
      svc.advance(mark, r.arrival_time - mark);
      mark = r.arrival_time;
    }
    svc.enqueue(r);
  }
  for (std::size_t m = 0; m < services_.size(); ++m) {
    if (end > clock_[m]) services_[m].advance(clock_[m], end - clock_[m]);
  }
}

std::vector<round_stats> cluster::end_round(std::uint64_t round,
                                            double round_duration) {
  std::vector<round_stats> stats;
  stats.reserve(services_.size());
  for (microservice& svc : services_) {
    const auto population = static_cast<std::uint32_t>(
        clouds_[placement_[svc.id()]].hosted.size());
    stats.push_back(svc.end_round(round, round_duration, population));
  }
  return stats;
}

void cluster::save(ecrs::checkpoint_writer& w) const {
  w.size(services_.size());
  for (const microservice& svc : services_) svc.save(w);
}

void cluster::load(ecrs::checkpoint_reader& r) {
  const std::size_t n = r.size();
  ECRS_CHECK_MSG(n == services_.size(),
                 "checkpoint holds " << n << " microservices, cluster has "
                                     << services_.size());
  for (microservice& svc : services_) svc.load(r);
}

}  // namespace ecrs::edge
