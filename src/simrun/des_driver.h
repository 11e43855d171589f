// Event-driven cluster runner: binds the workload generator, the edge
// cluster, and the demand estimator to a des::simulator.
//
// Unlike the analytic per-round loop (enqueue whole batch, advance once),
// the driver delivers every request at its exact arrival timestamp and
// advances the queues between consecutive events, i.e. service progress is
// event-accurate. Queues advance lazily per microservice: a delivery
// catches up only the target service from its own clock (allocations are
// constant within a round, so the drain over [mark, now] is independent of
// how the interval is sliced), and the round boundary syncs every service
// before closing the round — O(1) queue work per event instead of
// O(services). At each round boundary it closes the round, runs the demand
// estimator, invokes the user callback (where an auction round typically
// happens, see examples/edge_marketplace.cpp for the analytic twin), and
// re-runs the fair-share allocator for the next round.
//
// Two delivery paths with bit-identical observable behaviour
// (tests/simrun_test.cc fuzzes the equivalence):
//  - batched (default): each round's time-sorted batch is registered once
//    as a simulator stream (simulator::schedule_stream) and drained by a
//    single cursor record — O(1) schedules and allocations per round;
//  - per_event: one scheduled closure per request, the original shape,
//    kept as the equivalence reference.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "demand/estimator.h"
#include "des/simulator.h"
#include "edge/cluster.h"
#include "workload/generator.h"

namespace ecrs::edge {

// How requests get from the generator batch onto the simulator timeline.
enum class delivery_mode : std::uint8_t {
  batched,    // one stream record per round (high-throughput default)
  per_event,  // one scheduled closure per request (reference shape)
};

struct des_driver_config {
  double round_duration = 600.0;  // paper: 10-minute rounds
  std::size_t rounds = 10;
  delivery_mode delivery = delivery_mode::batched;
};

class des_driver {
 public:
  // Invoked at the end of each round with the closed round's statistics and
  // the smoothed demand estimates (indexed like the stats).
  using round_callback =
      std::function<void(std::uint64_t round,
                         const std::vector<round_stats>& stats,
                         const std::vector<double>& estimates)>;

  // `config.round_duration` must be finite and positive, and `traffic`
  // must target exactly the cluster's microservices.
  des_driver(des::simulator& sim, cluster& cl, workload::generator& traffic,
             demand::estimator& est, des_driver_config config);

  void set_round_callback(round_callback cb) { callback_ = std::move(cb); }

  // Schedule the whole horizon onto the simulator and run it to completion.
  void run();

  [[nodiscard]] std::uint64_t rounds_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t requests_delivered() const { return delivered_; }

 private:
  void schedule_round(std::uint64_t round);
  // Catch service `m` up to simulated time `now` from its own clock.
  void catch_up(std::uint32_t m, double now);
  void deliver(const workload::request& r);

  des::simulator& sim_;
  cluster& cluster_;
  workload::generator& traffic_;
  demand::estimator& estimator_;
  des_driver_config config_;
  round_callback callback_;
  // Round-scoped buffers, reused so steady-state rounds do not allocate:
  // the current batch (alive until its last request delivered — closures
  // and the stream cursor reference into it) and its arrival timestamps.
  std::vector<workload::request> batch_;
  std::vector<des::sim_time> arrivals_;
  // Per-microservice lazy-advance clocks (all equal at round boundaries).
  std::vector<double> service_clock_;
  std::uint64_t completed_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace ecrs::edge
