// Full-pipeline driver: workload generator → edge cluster queueing →
// demand estimation (paper §II/§III + §V-A setup).
#include <algorithm>

#include "common/statistics.h"
#include "demand/estimator.h"
#include "edge/cluster.h"
#include "harness/experiments.h"
#include "harness/sweep.h"
#include "simrun/des_driver.h"
#include "workload/generator.h"

namespace ecrs::harness {

table demand_estimation_pipeline(std::uint64_t seed, std::size_t rounds,
                                 std::size_t users, std::size_t microservices,
                                 std::size_t clouds) {
  table out({"round", "arrivals", "served", "backlog_work",
             "mean_X_overloaded", "mean_X_idle", "mean_wait_s",
             "mean_utilization"});

  workload::generator_config wcfg;
  wcfg.users = static_cast<std::uint32_t>(users);
  wcfg.microservices = static_cast<std::uint32_t>(microservices);
  wcfg.seed = seed;
  workload::generator gen(wcfg);

  std::vector<workload::qos_class> qos;
  qos.reserve(microservices);
  for (std::uint32_t s = 0; s < microservices; ++s) {
    qos.push_back(gen.class_of(s));
  }

  // Capacity chosen so the cluster runs near saturation: expected work per
  // round is users*(sensitive+tolerant means)*mean_demand resource-seconds.
  const double round_duration = 600.0;  // paper: 10-minute rounds
  const double expected_work =
      static_cast<double>(users) *
      (wcfg.sensitive_mean + wcfg.tolerant_mean) * wcfg.mean_service_demand;
  edge::cluster_config ccfg;
  ccfg.clouds = static_cast<std::uint32_t>(clouds);
  // 130% of the rate needed on average: with random placement some clouds
  // still end up overloaded while others idle, which is exactly the
  // contrast the demand estimator must surface.
  ccfg.capacity_per_cloud = 1.3 * expected_work / round_duration /
                            static_cast<double>(clouds);
  ccfg.seed = seed ^ 0x9e37u;
  edge::cluster cluster(ccfg, qos);

  demand::estimator estimator(demand::make_default_config());

  double now = 0.0;
  for (std::size_t r = 1; r <= rounds; ++r) {
    const auto batch = gen.round(now, round_duration);
    cluster.allocate_fair(round_duration);
    cluster.route(batch);
    cluster.advance(now, round_duration);
    const auto stats = cluster.end_round(r, round_duration);
    const auto estimates = estimator.estimate_round(stats);

    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    double backlog = 0.0;
    running_stats wait;
    running_stats util;
    running_stats x_overloaded;
    running_stats x_idle;
    for (std::size_t s = 0; s < stats.size(); ++s) {
      arrivals += stats[s].received;
      served += stats[s].served;
      backlog += stats[s].backlog_work;
      wait.add(stats[s].mean_wait);
      util.add(stats[s].utilization);
      if (stats[s].backlog_work > 0.0) {
        x_overloaded.add(estimates[s]);
      } else {
        x_idle.add(estimates[s]);
      }
    }
    out.add_row({static_cast<long long>(r), static_cast<long long>(arrivals),
                 static_cast<long long>(served), backlog,
                 x_overloaded.empty() ? 0.0 : x_overloaded.mean(),
                 x_idle.empty() ? 0.0 : x_idle.mean(),
                 wait.empty() ? 0.0 : wait.mean(),
                 util.empty() ? 0.0 : util.mean()});
    now += round_duration;
  }
  return out;
}

namespace {

// Per-(trial, round) observables carried from a sweep cell to the reducer.
struct event_round_obs {
  std::uint64_t arrivals = 0;
  std::uint64_t served = 0;
  double backlog = 0.0;
  double mean_estimate = 0.0;
  double mean_wait = 0.0;
  double mean_utilization = 0.0;
};

}  // namespace

table demand_estimation_event_driven(const sweep_config& cfg,
                                     std::size_t rounds, std::size_t users,
                                     std::size_t microservices,
                                     std::size_t clouds) {
  table out({"round", "arrivals", "served", "backlog_work", "mean_X",
             "mean_wait_s", "mean_utilization"});

  const double round_duration = 600.0;  // paper: 10-minute rounds
  sweep_runner runner(cfg.seed, /*figure=*/91, cfg.trials, cfg.threads);
  runner.run<std::vector<event_round_obs>>(
      /*points=*/1,
      [&](sweep_cell& ctx) {
        workload::generator_config wcfg;
        wcfg.users = static_cast<std::uint32_t>(users);
        wcfg.microservices = static_cast<std::uint32_t>(microservices);
        wcfg.seed = ctx.gen();
        workload::generator gen(wcfg);

        std::vector<workload::qos_class> qos;
        qos.reserve(microservices);
        for (std::uint32_t s = 0; s < microservices; ++s) {
          qos.push_back(gen.class_of(s));
        }

        // Same near-saturation sizing as demand_estimation_pipeline.
        const double expected_work = static_cast<double>(users) *
                                     (wcfg.sensitive_mean + wcfg.tolerant_mean) *
                                     wcfg.mean_service_demand;
        edge::cluster_config ccfg;
        ccfg.clouds = static_cast<std::uint32_t>(clouds);
        ccfg.capacity_per_cloud = 1.3 * expected_work / round_duration /
                                  static_cast<double>(clouds);
        ccfg.seed = ctx.gen();
        edge::cluster cluster(ccfg, qos);

        demand::estimator estimator(demand::make_default_config());

        edge::des_driver_config dcfg;
        dcfg.round_duration = round_duration;
        dcfg.rounds = rounds;
        edge::des_driver driver(cluster, gen, estimator, dcfg);

        std::vector<event_round_obs> per_round;
        per_round.reserve(rounds);
        driver.set_round_callback(
            [&](std::uint64_t, const std::vector<edge::round_stats>& stats,
                const std::vector<double>& estimates) {
              event_round_obs obs;
              running_stats est;
              running_stats wait;
              running_stats util;
              for (std::size_t s = 0; s < stats.size(); ++s) {
                obs.arrivals += stats[s].received;
                obs.served += stats[s].served;
                obs.backlog += stats[s].backlog_work;
                est.add(estimates[s]);
                wait.add(stats[s].mean_wait);
                util.add(stats[s].utilization);
              }
              obs.mean_estimate = est.empty() ? 0.0 : est.mean();
              obs.mean_wait = wait.empty() ? 0.0 : wait.mean();
              obs.mean_utilization = util.empty() ? 0.0 : util.mean();
              per_round.push_back(obs);
            });
        driver.run();
        return per_round;
      },
      [&](std::size_t, std::span<const std::vector<event_round_obs>> trials) {
        for (std::size_t r = 0; r < rounds; ++r) {
          double arrivals = 0.0;
          double served = 0.0;
          double backlog = 0.0;
          double est = 0.0;
          double wait = 0.0;
          double util = 0.0;
          for (const auto& trial : trials) {
            arrivals += static_cast<double>(trial[r].arrivals);
            served += static_cast<double>(trial[r].served);
            backlog += trial[r].backlog;
            est += trial[r].mean_estimate;
            wait += trial[r].mean_wait;
            util += trial[r].mean_utilization;
          }
          const auto n = static_cast<double>(trials.size());
          out.add_row({static_cast<long long>(r + 1), arrivals / n, served / n,
                       backlog / n, est / n, wait / n, util / n});
        }
      });
  return out;
}

}  // namespace ecrs::harness
