#include "edge/microservice.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ecrs::edge {

double round_stats::required_rate(double round_duration) const {
  ECRS_CHECK(round_duration > 0.0);
  return (arrived_work + backlog_work) / round_duration;
}

double round_stats::achieved_rate(double round_duration) const {
  ECRS_CHECK(round_duration > 0.0);
  return served_work / round_duration;
}

microservice::microservice(std::uint32_t id, workload::qos_class qos)
    : id_(id), qos_(qos) {}

double microservice::backlog_work() const {
  if (queue_.empty()) return 0.0;
  const queued& head = queue_.front();
  const double total =
      queued_demand_sum_ - (head.req.service_demand - head.remaining);
  return total > 0.0 ? total : 0.0;
}

void microservice::set_allocation(double resources) {
  ECRS_CHECK_MSG(resources >= 0.0, "allocation must be non-negative");
  allocation_ = resources;
}

void microservice::enqueue(const workload::request& r) {
  ECRS_CHECK_MSG(r.microservice == id_,
                 "request for microservice " << r.microservice
                                             << " routed to " << id_);
  ECRS_CHECK_MSG(r.service_demand >= 0.0, "negative service demand");
  queue_.push_back(queued{r, r.service_demand});
  queued_demand_sum_ += r.service_demand;
  ++round_received_;
  ++total_received_;
  round_arrived_work_ += r.service_demand;
}

void microservice::advance(double now, double duration) {
  ECRS_CHECK_MSG(duration >= 0.0, "negative duration");
  round_elapsed_ += duration;
  if (allocation_ <= 0.0 || queue_.empty()) return;

  double budget = allocation_ * duration;  // resource-seconds available
  double clock = now;
  while (budget > 0.0 && !queue_.empty()) {
    queued& head = queue_.front();
    const double spend = std::min(budget, head.remaining);
    head.remaining -= spend;
    budget -= spend;
    clock += spend / allocation_;
    round_served_work_ += spend;
    round_busy_time_ += spend / allocation_;
    if (head.remaining <= 1e-12) {
      ++round_served_;
      ++total_served_;
      round_wait_sum_ += std::max(0.0, clock - head.req.arrival_time);
      queued_demand_sum_ -= head.req.service_demand;
      queue_.pop_front();
    }
  }
  // Pin the incremental sum back to exact zero whenever the queue drains so
  // rounding residue cannot accumulate across rounds.
  if (queue_.empty()) queued_demand_sum_ = 0.0;
}

round_stats microservice::end_round(std::uint64_t round, double round_duration,
                                    std::uint32_t cloud_population) {
  ECRS_CHECK(round_duration > 0.0);
  ECRS_CHECK(cloud_population >= 1);
  round_stats s;
  s.microservice = id_;
  s.round = round;
  s.received = round_received_;
  s.served = round_served_;
  s.arrived_work = round_arrived_work_;
  s.served_work = round_served_work_;
  s.backlog_work = backlog_work();
  s.allocation = allocation_;
  const double elapsed = round_elapsed_ > 0.0 ? round_elapsed_ : round_duration;
  s.utilization = std::clamp(round_busy_time_ / elapsed, 0.0, 1.0);
  s.mean_wait = round_served_ > 0
                    ? round_wait_sum_ / static_cast<double>(round_served_)
                    : 0.0;
  s.cloud_population = cloud_population;

  last_arrived_work_ = round_arrived_work_;
  round_received_ = 0;
  round_served_ = 0;
  round_arrived_work_ = 0.0;
  round_served_work_ = 0.0;
  round_busy_time_ = 0.0;
  round_wait_sum_ = 0.0;
  round_elapsed_ = 0.0;
  return s;
}

void microservice::save(ecrs::checkpoint_writer& w) const {
  w.u32(id_);
  w.u8(static_cast<std::uint8_t>(qos_));
  w.f64(allocation_);
  w.f64(queued_demand_sum_);
  w.u64(round_received_);
  w.u64(round_served_);
  w.f64(round_arrived_work_);
  w.f64(round_served_work_);
  w.f64(round_busy_time_);
  w.f64(round_wait_sum_);
  w.f64(round_elapsed_);
  w.u64(total_received_);
  w.u64(total_served_);
  w.f64(last_arrived_work_);
  w.size(queue_.size());
  for (const queued& q : queue_) {
    w.u64(q.req.id);
    w.u32(q.req.user);
    w.u32(q.req.microservice);
    w.u32(q.req.region);
    w.u8(static_cast<std::uint8_t>(q.req.qos));
    w.f64(q.req.arrival_time);
    w.f64(q.req.service_demand);
    w.f64(q.remaining);
  }
}

void microservice::load(ecrs::checkpoint_reader& r) {
  const std::uint32_t id = r.u32();
  const std::uint8_t qos = r.u8();
  ECRS_CHECK_MSG(id == id_ && qos == static_cast<std::uint8_t>(qos_),
                 "checkpoint holds microservice " << id
                                                  << ", restoring into "
                                                  << id_);
  allocation_ = r.f64();
  // The checks set_allocation makes, written so that NaN fails them too.
  ECRS_CHECK_MSG(std::isfinite(allocation_) && allocation_ >= 0.0,
                 "checkpoint holds allocation " << allocation_
                                                << " for microservice "
                                                << id_);
  queued_demand_sum_ = r.f64();
  round_received_ = r.u64();
  round_served_ = r.u64();
  round_arrived_work_ = r.f64();
  round_served_work_ = r.f64();
  round_busy_time_ = r.f64();
  round_wait_sum_ = r.f64();
  round_elapsed_ = r.f64();
  total_received_ = r.u64();
  total_served_ = r.u64();
  last_arrived_work_ = r.f64();
  const std::size_t n = r.size();
  // 45 bytes per queued request; bound before any resize.
  ECRS_CHECK_MSG(n <= r.remaining() / 45,
                 "microservice checkpoint declares " << n
                                                     << " queued requests "
                                                        "but the payload is "
                                                        "too short");
  queue_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    queued q;
    q.req.id = r.u64();
    q.req.user = r.u32();
    q.req.microservice = r.u32();
    q.req.region = r.u32();
    const std::uint8_t req_qos = r.u8();
    q.req.arrival_time = r.f64();
    q.req.service_demand = r.f64();
    q.remaining = r.f64();
    // Only what enqueue admits and advance leaves behind: a NaN or
    // infinite remainder would pin the head forever, a negative one would
    // grow the round's service budget.
    ECRS_CHECK_MSG(
        q.req.microservice == id_ &&
            req_qos == static_cast<std::uint8_t>(qos_) &&
            std::isfinite(q.req.service_demand) &&
            q.req.service_demand >= 0.0 && std::isfinite(q.remaining) &&
            q.remaining >= 0.0 && q.remaining <= q.req.service_demand &&
            std::isfinite(q.req.arrival_time),
        "checkpoint holds an impossible request " << i << " queued at "
                                                  << "microservice " << id_);
    q.req.qos = qos_;
    queue_.push_back(q);
  }
}

}  // namespace ecrs::edge
