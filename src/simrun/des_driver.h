// Event-driven cluster runner: binds the workload generator, the edge
// cluster, and the demand estimator into an open-loop run of rounds.
//
// Unlike the analytic per-round loop (enqueue whole batch, advance once),
// the driver delivers every request at its exact arrival timestamp and
// advances the queues between consecutive events, i.e. service progress is
// event-accurate. The round's time-sorted batch is its only event source,
// so delivering it in arrival order is the whole event loop. Queues
// advance lazily per microservice: a delivery catches up only the target
// service from its own clock (allocations are constant within a round, so
// the drain over [mark, now] is independent of how the interval is
// sliced), and the round boundary syncs every service before closing the
// round — O(1) queue work per event instead of O(services). At each round
// boundary it closes the round, runs the demand estimator, invokes the
// user callback (where an auction round typically happens, see
// examples/edge_marketplace.cpp for the analytic twin), and re-runs the
// fair-share allocator for the next round.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "demand/estimator.h"
#include "edge/cluster.h"
#include "workload/generator.h"

namespace ecrs::edge {

struct des_driver_config {
  double round_duration = 600.0;  // paper: 10-minute rounds
  std::size_t rounds = 10;
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
  des_driver(cluster& cl, workload::generator& traffic,
             demand::estimator& est, des_driver_config config);

  void set_round_callback(round_callback cb) { callback_ = std::move(cb); }

  // Run the whole horizon, round by round.
  void run();

  [[nodiscard]] std::uint64_t rounds_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t requests_delivered() const { return delivered_; }

 private:
  void run_round(std::uint64_t round);
  // Catch service `m` up to simulated time `now` from its own clock.
  void catch_up(std::uint32_t m, double now);

  cluster& cluster_;
  workload::generator& traffic_;
  demand::estimator& estimator_;
  des_driver_config config_;
  round_callback callback_;
  // The current round's batch, reused so steady-state rounds do not
  // allocate.
  std::vector<workload::request> batch_;
  // Per-microservice lazy-advance clocks (all equal at round boundaries).
  std::vector<double> service_clock_;
  std::uint64_t completed_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace ecrs::edge
