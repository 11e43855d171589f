// Full-pipeline driver: workload generator → edge cluster queueing →
// demand estimation (paper §II/§III + §V-A setup).
#include <algorithm>

#include "common/statistics.h"
#include "demand/estimator.h"
#include "edge/cluster.h"
#include "harness/experiments.h"
#include "harness/sweep.h"
#include "workload/generator.h"

namespace ecrs::harness {
namespace {

// A cluster for `gen`'s microservices with 130% of the rate its expected
// work needs on average: with random placement some clouds still end up
// overloaded while others idle, which is exactly the contrast the demand
// estimator must surface.
edge::cluster near_saturation_cluster(const workload::generator& gen,
                                      std::size_t clouds,
                                      double round_duration,
                                      std::uint64_t seed) {
  const workload::generator_config& w = gen.config();
  // Expected resource-seconds of work per round.
  const double expected_work = static_cast<double>(w.users) *
                               (w.sensitive_mean + w.tolerant_mean) *
                               w.mean_service_demand;
  edge::cluster_config ccfg;
  ccfg.clouds = static_cast<std::uint32_t>(clouds);
  ccfg.capacity_per_cloud = 1.3 * expected_work / round_duration /
                            static_cast<double>(clouds);
  ccfg.seed = seed;
  return edge::cluster(ccfg, gen.classes());
}

}  // namespace

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

  const double round_duration = 600.0;  // paper: 10-minute rounds
  edge::cluster cluster =
      near_saturation_cluster(gen, clouds, round_duration, seed ^ 0x9e37u);

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

        edge::cluster cluster =
            near_saturation_cluster(gen, clouds, round_duration, ctx.gen());

        demand::estimator estimator(demand::make_default_config());

        std::vector<workload::request> batch;
        std::vector<event_round_obs> per_round;
        per_round.reserve(rounds);
        for (std::uint64_t r = 1; r <= rounds; ++r) {
          const double start = static_cast<double>(r - 1) * round_duration;
          // Allocate for the round using the state visible at its start.
          cluster.allocate_fair(round_duration);
          gen.round_into(start, round_duration, batch);
          cluster.deliver_round(batch, start,
                                static_cast<double>(r) * round_duration);
          const auto stats = cluster.end_round(r, round_duration);
          const auto estimates = estimator.estimate_round(stats);
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
        }
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
