// Tests for the event-accurate open loop (edge::cluster::deliver_round
// between the workload generator and the demand estimator) and the
// per-class service demand extension.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/checkpoint.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "demand/estimator.h"
#include "edge/cluster.h"
#include "workload/generator.h"

namespace ecrs::edge {
namespace {

constexpr double kRoundDuration = 100.0;

struct pipeline {
  workload::generator traffic;
  cluster cl;
  demand::estimator est;

  explicit pipeline(std::uint64_t seed, std::uint32_t services = 8,
                    std::uint32_t users = 40, double capacity = 1.0)
      : traffic({.users = users, .microservices = services, .seed = seed}),
        cl({.clouds = 3,
            .capacity_per_cloud = capacity,
            .seed = seed ^ 0xc0ffeeULL},
           traffic.classes()),
        est(estimator_config()) {}

  static demand::estimator_config estimator_config() {
    demand::estimator_config cfg = demand::make_default_config();
    cfg.round_duration = kRoundDuration;
    return cfg;
  }
};

// Run `rounds` open-loop rounds: fair-share allocation from the state at
// the round's start, the round's batch delivered event-accurately, then
// the round closed and estimated. `cb(round, stats, estimates)` sees every
// round; returns the number of requests delivered.
template <class Callback>
std::uint64_t run_open_loop(pipeline& p, std::size_t rounds, Callback cb) {
  std::vector<workload::request> batch;
  std::uint64_t delivered = 0;
  for (std::uint64_t r = 1; r <= rounds; ++r) {
    const double start = static_cast<double>(r - 1) * kRoundDuration;
    p.cl.allocate_fair(kRoundDuration);
    p.traffic.round_into(start, kRoundDuration, batch);
    p.cl.deliver_round(batch, start, static_cast<double>(r) * kRoundDuration);
    delivered += batch.size();
    const std::vector<round_stats> stats = p.cl.end_round(r, kRoundDuration);
    cb(r, stats, p.est.estimate_round(stats));
  }
  return delivered;
}

TEST(OpenLoop, CompletesAllRoundsAndDeliversEverything) {
  pipeline p(1);
  std::size_t callbacks = 0;
  std::uint64_t total_received = 0;
  const std::uint64_t delivered = run_open_loop(
      p, 4,
      [&](std::uint64_t round, const std::vector<round_stats>& stats,
          const std::vector<double>& estimates) {
        ++callbacks;
        EXPECT_EQ(round, callbacks);
        EXPECT_EQ(stats.size(), 8u);
        EXPECT_EQ(estimates.size(), stats.size());
        for (const auto& s : stats) total_received += s.received;
      });
  EXPECT_EQ(callbacks, 4u);
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(total_received, delivered);
}

TEST(OpenLoop, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    pipeline p(seed);
    double demand_sum = 0.0;
    run_open_loop(p, 3,
                  [&](std::uint64_t, const auto&,
                      const std::vector<double>& estimates) {
                    for (double x : estimates) demand_sum += x;
                  });
    return demand_sum;
  };
  EXPECT_DOUBLE_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(OpenLoop, EventAccurateServiceMatchesAnalyticTotalsApproximately) {
  // Event-accurate delivery serves no more work than the analytic round
  // (which pretends all requests are available at round start).
  const std::uint64_t seed = 5;
  pipeline event_p(seed);
  std::uint64_t event_served = 0;
  run_open_loop(event_p, 3,
                [&](std::uint64_t, const std::vector<round_stats>& stats,
                    const auto&) {
                  for (const auto& s : stats) event_served += s.served;
                });

  pipeline analytic_p(seed);
  std::uint64_t analytic_served = 0;
  double now = 0.0;
  for (std::uint64_t r = 1; r <= 3; ++r) {
    analytic_p.cl.allocate_fair(kRoundDuration);
    analytic_p.cl.route(analytic_p.traffic.round(now, kRoundDuration));
    analytic_p.cl.advance(now, kRoundDuration);
    for (const auto& s : analytic_p.cl.end_round(r, kRoundDuration)) {
      analytic_served += s.served;
    }
    now += kRoundDuration;
  }
  EXPECT_GT(event_served, 0u);
  EXPECT_LE(event_served, analytic_served);
  // Same workload stream: the gap is bounded by in-flight work.
  EXPECT_GT(static_cast<double>(event_served),
            0.5 * static_cast<double>(analytic_served));
}

// Append everything one open-loop run observes to `w`: per round, the bits
// of every cluster statistic and demand estimate, then the round and
// delivery counters.
void append_run(std::uint64_t seed, std::uint32_t services,
                std::uint32_t users, double capacity, std::size_t rounds,
                ecrs::checkpoint_writer& w) {
  pipeline p(seed, services, users, capacity);
  const std::uint64_t delivered = run_open_loop(
      p, rounds,
      [&](std::uint64_t, const std::vector<round_stats>& stats,
          const std::vector<double>& estimates) {
        for (const round_stats& s : stats) {
          w.u32(s.microservice);
          w.u64(s.round);
          w.u64(s.received);
          w.u64(s.served);
          w.f64(s.arrived_work);
          w.f64(s.served_work);
          w.f64(s.backlog_work);
          w.f64(s.allocation);
          w.f64(s.utilization);
          w.f64(s.mean_wait);
          w.u32(s.cloud_population);
        }
        for (const double x : estimates) w.f64(x);
      });
  w.u64(rounds);
  w.u64(delivered);
}

// Pins the open loop to fixed bytes across 50 fuzzed configurations: the
// generator's arrival order, delivery, the queues and the estimator must
// reproduce every per-round statistic and estimate bit for bit. Recorded
// when the loop still ran on des::simulator, where its per-event and
// batched-stream delivery paths both gave this value.
TEST(OpenLoop, MatchesGoldenDigest) {
  constexpr std::uint64_t kGolden = 0x0e4a452fda423f19ULL;
  ecrs::rng fuzz(0xdecaf);
  ecrs::checkpoint_writer w;
  for (int trial = 0; trial < 50; ++trial) {
    const auto seed = fuzz();
    const auto services =
        static_cast<std::uint32_t>(fuzz.uniform_int(2, 12));
    const auto users = static_cast<std::uint32_t>(fuzz.uniform_int(5, 60));
    const double capacity = fuzz.uniform_real(0.2, 4.0);
    const auto rounds = static_cast<std::size_t>(fuzz.uniform_int(1, 5));
    append_run(seed, services, users, capacity, rounds, w);
  }
  EXPECT_EQ(ecrs::fnv1a64(w.payload()), kGolden);
}

TEST(OpenLoop, DeliverRoundRejectsBadWindowsAndBatches) {
  pipeline p(4);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Zero, reversed, infinite and NaN windows.
  const double windows[][2] = {{0.0, 0.0}, {100.0, 0.0}, {0.0, inf},
                               {-inf, 0.0}, {nan, 100.0}, {0.0, nan}};
  for (const auto& w : windows) {
    EXPECT_THROW(p.cl.deliver_round({}, w[0], w[1]), check_error)
        << "[" << w[0] << ", " << w[1] << "]";
  }
  // Requests at (arrival time, microservice), delivered over [10, 100].
  const auto rejects = [&](std::vector<std::pair<double, std::uint32_t>> at) {
    std::vector<workload::request> batch(at.size());
    for (std::size_t i = 0; i < at.size(); ++i) {
      batch[i].id = i + 1;
      batch[i].arrival_time = at[i].first;
      batch[i].microservice = at[i].second;
    }
    EXPECT_THROW(p.cl.deliver_round(batch, 10.0, 100.0), check_error);
  };
  rejects({{100.5, 0}});            // past the round end
  rejects({{20.0, 0}, {15.0, 1}});  // out of order
  rejects({{5.0, 0}});              // before the round start
  rejects({{50.0, 8}});             // the cluster hosts services 0..7
}

}  // namespace
}  // namespace ecrs::edge

namespace ecrs::workload {
namespace {

TEST(PerClassDemand, DefaultsToGlobalMean) {
  generator_config cfg;
  cfg.users = 10;
  cfg.microservices = 4;
  cfg.mean_service_demand = 2.0;
  generator gen(cfg);
  EXPECT_DOUBLE_EQ(gen.mean_demand_of(qos_class::delay_sensitive), 2.0);
  EXPECT_DOUBLE_EQ(gen.mean_demand_of(qos_class::delay_tolerant), 2.0);
}

TEST(PerClassDemand, OverridesApplyPerClass) {
  generator_config cfg;
  cfg.users = 200;
  cfg.microservices = 10;
  cfg.sensitive_mean_demand = 0.5;
  cfg.tolerant_mean_demand = 2.0;
  generator gen(cfg);
  EXPECT_DOUBLE_EQ(gen.mean_demand_of(qos_class::delay_sensitive), 0.5);
  EXPECT_DOUBLE_EQ(gen.mean_demand_of(qos_class::delay_tolerant), 2.0);

  // Empirical means per class reflect the overrides.
  running_stats sensitive;
  running_stats tolerant;
  for (const request& r : gen.round(0.0, 100.0)) {
    (r.qos == qos_class::delay_sensitive ? sensitive : tolerant)
        .add(r.service_demand);
  }
  ASSERT_GT(sensitive.count(), 100u);
  ASSERT_GT(tolerant.count(), 100u);
  EXPECT_NEAR(sensitive.mean(), 0.5, 0.1);
  EXPECT_NEAR(tolerant.mean(), 2.0, 0.25);
}

TEST(PerClassDemand, RejectsNegativeOverride) {
  generator_config cfg;
  cfg.users = 1;
  cfg.microservices = 1;
  cfg.sensitive_mean_demand = -1.0;
  EXPECT_THROW(generator{cfg}, ecrs::check_error);
}

}  // namespace
}  // namespace ecrs::workload
