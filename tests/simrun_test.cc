// Tests for the event-driven cluster runner (simrun::des_driver) and the
// per-class service demand extension.
#include <gtest/gtest.h>

#include <limits>

#include "common/check.h"
#include "common/checkpoint.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "demand/estimator.h"
#include "edge/cluster.h"
#include "simrun/des_driver.h"
#include "workload/generator.h"

namespace ecrs::edge {
namespace {

struct pipeline {
  workload::generator traffic;
  cluster cl;
  demand::estimator est;

  explicit pipeline(std::uint64_t seed, std::uint32_t services = 8,
                    std::uint32_t users = 40, double capacity = 1.0)
      : traffic(make_generator_config(seed, services, users)),
        cl(make_cluster_config(seed, capacity), qos_of(traffic, services)),
        est(make_estimator_config()) {}

  static workload::generator_config make_generator_config(
      std::uint64_t seed, std::uint32_t services, std::uint32_t users) {
    workload::generator_config cfg;
    cfg.users = users;
    cfg.microservices = services;
    cfg.seed = seed;
    return cfg;
  }
  static cluster_config make_cluster_config(std::uint64_t seed,
                                            double capacity) {
    cluster_config cfg;
    cfg.clouds = 3;
    cfg.capacity_per_cloud = capacity;
    cfg.seed = seed ^ 0xc0ffeeULL;
    return cfg;
  }
  static std::vector<workload::qos_class> qos_of(
      const workload::generator& gen, std::uint32_t services) {
    std::vector<workload::qos_class> qos;
    for (std::uint32_t s = 0; s < services; ++s) {
      qos.push_back(gen.class_of(s));
    }
    return qos;
  }
  static demand::estimator_config make_estimator_config() {
    demand::estimator_config cfg = demand::make_default_config();
    cfg.round_duration = 100.0;
    return cfg;
  }
};

des_driver_config driver_config(std::size_t rounds) {
  des_driver_config cfg;
  cfg.round_duration = 100.0;
  cfg.rounds = rounds;
  return cfg;
}

TEST(DesDriver, CompletesAllRoundsAndDeliversEverything) {
  pipeline p(1);
  des_driver driver(p.cl, p.traffic, p.est, driver_config(4));
  std::size_t callbacks = 0;
  std::uint64_t total_received = 0;
  driver.set_round_callback([&](std::uint64_t round,
                                const std::vector<round_stats>& stats,
                                const std::vector<double>& estimates) {
    ++callbacks;
    EXPECT_EQ(round, callbacks);
    EXPECT_EQ(stats.size(), 8u);
    EXPECT_EQ(estimates.size(), stats.size());
    for (const auto& s : stats) total_received += s.received;
  });
  driver.run();
  EXPECT_EQ(driver.rounds_completed(), 4u);
  EXPECT_EQ(callbacks, 4u);
  EXPECT_GT(driver.requests_delivered(), 0u);
  EXPECT_EQ(total_received, driver.requests_delivered());
}

TEST(DesDriver, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    pipeline p(seed);
    des_driver driver(p.cl, p.traffic, p.est, driver_config(3));
    double demand_sum = 0.0;
    driver.set_round_callback([&](std::uint64_t, const auto&,
                                  const std::vector<double>& estimates) {
      for (double x : estimates) demand_sum += x;
    });
    driver.run();
    return demand_sum;
  };
  EXPECT_DOUBLE_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(DesDriver, EventAccurateServiceMatchesAnalyticTotalsApproximately) {
  // Event-accurate delivery serves no more work than the analytic round
  // (which pretends all requests are available at round start).
  const std::uint64_t seed = 5;
  pipeline event_p(seed);
  des_driver driver(event_p.cl, event_p.traffic, event_p.est,
                    driver_config(3));
  std::uint64_t event_served = 0;
  driver.set_round_callback(
      [&](std::uint64_t, const std::vector<round_stats>& stats, const auto&) {
        for (const auto& s : stats) event_served += s.served;
      });
  driver.run();

  pipeline analytic_p(seed);
  std::uint64_t analytic_served = 0;
  double now = 0.0;
  for (std::uint64_t r = 1; r <= 3; ++r) {
    analytic_p.cl.allocate_fair(100.0);
    analytic_p.cl.route(analytic_p.traffic.round(now, 100.0));
    analytic_p.cl.advance(now, 100.0);
    for (const auto& s : analytic_p.cl.end_round(r, 100.0)) {
      analytic_served += s.served;
    }
    now += 100.0;
  }
  EXPECT_GT(event_served, 0u);
  EXPECT_LE(event_served, analytic_served);
  // Same workload stream: the gap is bounded by in-flight work.
  EXPECT_GT(static_cast<double>(event_served),
            0.5 * static_cast<double>(analytic_served));
}

TEST(DesDriver, RejectsReuseAndMismatchedPipelines) {
  pipeline p(2);
  des_driver driver(p.cl, p.traffic, p.est, driver_config(1));
  driver.run();
  EXPECT_THROW(driver.run(), check_error);

  pipeline q(3, /*services=*/8);
  workload::generator_config mismatched =
      pipeline::make_generator_config(3, 5, 40);
  workload::generator wrong(mismatched);
  EXPECT_THROW(des_driver(q.cl, wrong, q.est, driver_config(1)),
               check_error);
}

// Append everything one driver run observes to `w`: per round, the bits of
// every cluster statistic and demand estimate, then the round and delivery
// counters.
void append_run(std::uint64_t seed, std::uint32_t services,
                std::uint32_t users, double capacity, std::size_t rounds,
                ecrs::checkpoint_writer& w) {
  pipeline p(seed, services, users, capacity);
  des_driver driver(p.cl, p.traffic, p.est, driver_config(rounds));
  driver.set_round_callback([&](std::uint64_t,
                                const std::vector<round_stats>& stats,
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
  driver.run();
  w.u64(driver.rounds_completed());
  w.u64(driver.requests_delivered());
}

// Pins the open loop to fixed bytes across 50 fuzzed configurations: the
// generator's arrival order, delivery, the queues and the estimator must
// reproduce every per-round statistic and estimate bit for bit. Recorded
// when the driver still ran on des::simulator, where its per-event and
// batched-stream delivery paths both gave this value.
TEST(DesDriver, MatchesGoldenDigest) {
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

TEST(DesDriver, RejectsBadConfig) {
  pipeline p(4);
  des_driver_config bad;
  bad.round_duration = 0.0;
  EXPECT_THROW(des_driver(p.cl, p.traffic, p.est, bad), check_error);
  bad = des_driver_config{};
  bad.rounds = 0;
  EXPECT_THROW(des_driver(p.cl, p.traffic, p.est, bad), check_error);
  // +inf passes a plain `> 0` check; round 1 would then start at 0 * inf.
  for (const double duration : {std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()}) {
    bad = des_driver_config{};
    bad.round_duration = duration;
    EXPECT_THROW(des_driver(p.cl, p.traffic, p.est, bad), check_error)
        << duration;
  }
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
