#include "traced_daemon.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/check.h"
#include "simrun/scenario.h"

namespace ecrs_bench {
namespace {

using clock = span_buffer::clock;

std::vector<ecrs::workload::qos_class> qos_of(
    const ecrs::workload::generator& gen) {
  std::vector<ecrs::workload::qos_class> qos;
  qos.reserve(gen.microservice_count());
  for (std::uint32_t m = 0; m < gen.microservice_count(); ++m) {
    qos.push_back(gen.class_of(m));
  }
  return qos;
}

std::int64_t ms_to_ns(double ms) { return static_cast<std::int64_t>(ms * 1e6); }

}  // namespace

const char* phase_name(phase p) {
  static constexpr std::array<const char*, kPhaseCount> kNames = {
      "round",        "simrun.scenario", "workload.generate",
      "des.deliver",  "edge.close",      "demand.observe",
      "demand.estimate", "market.ingest", "market.round",
      "market.shard", "market.spill",    "market.spill_assembly",
      "simrun.apply", "simrun.checkpoint"};
  return kNames[static_cast<std::size_t>(p)];
}

span_buffer::span_buffer(std::size_t capacity, clock::time_point epoch)
    : epoch_(epoch) {
  spans_.reserve(capacity);
}

traced_daemon::traced_daemon(ecrs::simrun::daemon_setup setup,
                             span_buffer& spans)
    : spans_(spans),
      config_(setup.config),
      gen_(setup.workload),
      cluster_(setup.cluster, qos_of(gen_)),
      estimator_(setup.estimator),
      topo_(std::move(setup.topology)),
      market_(topo_, setup.sellers, setup.market),
      ingestor_(setup.ingest, std::move(setup.standing)) {
  for (const auto& region : setup.sellers) {
    seller_counts_.push_back(static_cast<std::uint32_t>(region.size()));
  }
  const auto services =
      static_cast<std::uint32_t>(cluster_.microservice_count());
  for (std::uint32_t m = 0; m < services; ++m) {
    population_.push_back(static_cast<std::uint32_t>(
        cluster_.cloud(cluster_.cloud_of(m)).hosted.size()));
  }
  stats_.resize(services);
  estimates_.resize(services, 0.0);
  granted_.resize(services, 0);
  service_clock_.assign(services, 0.0);
}

std::uint64_t traced_daemon::backlog() const {
  std::uint64_t queued = 0;
  for (std::uint32_t m = 0; m < cluster_.microservice_count(); ++m) {
    queued += cluster_.service(m).queue_length();
  }
  return queued;
}

void traced_daemon::deliver(std::size_t i) {
  const ecrs::workload::request& r = batch_[i];
  ecrs::edge::microservice& svc = cluster_.service(r.microservice);
  const double now = sim_.now();
  double& mark = service_clock_[r.microservice];
  if (now > mark) {
    svc.advance(mark, now - mark);
    mark = now;
  }
  svc.enqueue(r);
  ++delivered_;
}

void traced_daemon::apply_churn(std::uint64_t round) {
  const ecrs::simrun::scenario_config& sc = config_.scenario;
  if (sc.churn_every == 0) return;
  const auto target = [&](std::uint64_t ordinal) {
    const auto regions = static_cast<std::uint64_t>(seller_counts_.size());
    const auto region = static_cast<std::uint32_t>(ordinal % regions);
    const auto seller = static_cast<std::uint32_t>((ordinal / regions) %
                                                   seller_counts_[region]);
    return std::pair{region, seller};
  };
  if (sc.churn_downtime > 0 && round > sc.churn_downtime &&
      (round - sc.churn_downtime) % sc.churn_every == 0) {
    const auto [region, seller] =
        target((round - sc.churn_downtime) / sc.churn_every);
    market_.set_seller_active(region, seller, true);
  }
  if (round % sc.churn_every == 0) {
    const auto [region, seller] = target(round / sc.churn_every);
    market_.set_seller_active(region, seller, false);
  }
}

void traced_daemon::apply_allocations(
    const ecrs::auction::regional_instance& inst,
    const ecrs::market::marketplace_round& out) {
  const std::uint32_t regions = ingestor_.config().regions;
  for (std::uint32_t r = 0; r < regions; ++r) {
    const auto& req = inst.regions[r].requirements;
    for (std::uint32_t k = 0; k < req.size(); ++k) {
      granted_[static_cast<std::size_t>(k) * regions + r] = req[k];
    }
  }
  for (std::uint32_t r = 0; r < regions; ++r) {
    for (const ecrs::market::spill_deficit& def : out.shards[r].uncovered) {
      granted_[static_cast<std::size_t>(def.demander) * regions + r] -=
          def.missing;
    }
  }
  for (const ecrs::market::spill_award& award : out.spillover.awards) {
    for (const ecrs::auction::demander_id k : award.covered) {
      granted_[static_cast<std::size_t>(k) * regions + award.demand_region] +=
          award.amount;
    }
  }
  for (std::size_t m = 0; m < granted_.size(); ++m) {
    const double g = static_cast<double>(
        std::max<ecrs::auction::units>(0, granted_[m]));
    cluster_.service(static_cast<std::uint32_t>(m))
        .set_allocation(config_.base_allocation +
                        config_.resources_per_unit * g);
  }
}

void traced_daemon::run_round() {
  const std::uint64_t r = completed_ + 1;
  const double dur = config_.round_duration;
  const double start = static_cast<double>(r - 1) * dur;
  const double end = static_cast<double>(r) * dur;
  std::array<clock::time_point, 10> t;

  t[0] = clock::now();
  gen_.set_rate_scale(ecrs::simrun::scenario_rate_scale(config_.scenario, r));
  apply_churn(r);
  t[1] = clock::now();
  gen_.round_into(start, dur, batch_);
  t[2] = clock::now();
  if (!batch_.empty()) {
    arrivals_.resize(batch_.size());
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      arrivals_[i] = batch_[i].arrival_time;
    }
    sim_.schedule_stream(arrivals_, [this](std::size_t i) { deliver(i); });
  }
  sim_.run_until(end);
  ECRS_CHECK_MSG(sim_.pending_events() == 0,
                 "arrivals leaked past the round boundary");
  t[3] = clock::now();
  const auto services =
      static_cast<std::uint32_t>(cluster_.microservice_count());
  for (std::uint32_t m = 0; m < services; ++m) {
    double& mark = service_clock_[m];
    if (end > mark) {
      cluster_.service(m).advance(mark, end - mark);
      mark = end;
    }
    stats_[m] = cluster_.service(m).end_round(r, dur, population_[m]);
  }
  t[4] = clock::now();
  for (std::uint32_t m = 0; m < services; ++m) estimator_.observe(stats_[m]);
  t[5] = clock::now();
  estimator_.estimates_into(estimates_);
  t[6] = clock::now();
  ingestor_.add_demands(estimates_);
  const ecrs::auction::regional_instance& inst = ingestor_.finalize();
  t[7] = clock::now();
  market_.run_round(inst, market_out_);
  t[8] = clock::now();
  apply_allocations(inst, market_out_);
  t[9] = clock::now();
  ++completed_;

  spans_.add({r, phase::round, phase::round, spans_.ns(t[0]), spans_.ns(t[9])});
  static constexpr std::array<phase, 9> kSteps = {
      phase::scenario, phase::generate, phase::deliver,
      phase::close,    phase::observe,  phase::estimate,
      phase::ingest,   phase::market,   phase::apply};
  for (std::size_t i = 0; i < kSteps.size(); ++i) {
    spans_.add({r, kSteps[i], phase::round, spans_.ns(t[i]),
                spans_.ns(t[i + 1])});
  }
  // The marketplace reports durations only: its children are laid out
  // back to back from the start of its span (drains and the reduction
  // are the gaps), so their durations are exact and their starts are not.
  const ecrs::market::marketplace_timing& mt = market_.last_timing();
  const std::int64_t shard_begin = spans_.ns(t[7]);
  const std::int64_t spill_begin = shard_begin + ms_to_ns(mt.shard_ms);
  spans_.add({r, phase::shard, phase::market, shard_begin, spill_begin});
  spans_.add({r, phase::spill, phase::market, spill_begin,
              spill_begin + ms_to_ns(mt.spill_ms)});
  spans_.add({r, phase::spill_assembly, phase::spill, spill_begin,
              spill_begin + ms_to_ns(mt.spill_assembly_ms)});
}

void traced_daemon::save(ecrs::checkpoint_writer& w) {
  const clock::time_point begin = clock::now();
  w.u64(completed_);
  w.u64(delivered_);
  w.f64(service_clock_.empty() ? 0.0 : service_clock_[0]);
  gen_.save(w);
  cluster_.save(w);
  estimator_.save(w);
  market_.save(w);
  spans_.add({completed_, phase::checkpoint, phase::checkpoint,
              spans_.ns(begin), spans_.ns(clock::now())});
}

}  // namespace ecrs_bench
