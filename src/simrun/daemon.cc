#include "simrun/daemon.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace ecrs::simrun {
namespace {

// FNV-1a over every behaviour-determining scalar of the setup. Two setups
// with equal hashes run the same horizon; the hash gates checkpoint
// restores (common/checkpoint.h header).
std::uint64_t hash_setup(const daemon_setup& s) {
  ecrs::checkpoint_writer w;
  w.f64(s.config.round_duration);
  w.f64(s.config.base_allocation);
  w.f64(s.config.resources_per_unit);
  w.f64(s.config.scenario.diurnal_amplitude);
  w.u64(s.config.scenario.diurnal_period);
  w.u64(s.config.scenario.flash_every);
  w.u64(s.config.scenario.flash_duration);
  w.f64(s.config.scenario.flash_factor);
  w.u64(s.config.scenario.churn_every);
  w.u64(s.config.scenario.churn_downtime);
  w.u32(s.workload.users);
  w.u32(s.workload.microservices);
  w.f64(s.workload.delay_sensitive_fraction);
  w.f64(s.workload.sensitive_mean);
  w.f64(s.workload.tolerant_mean);
  w.f64(s.workload.mean_service_demand);
  w.f64(s.workload.sensitive_mean_demand);
  w.f64(s.workload.tolerant_mean_demand);
  w.u32(s.workload.regions);
  w.u64(s.workload.seed);
  w.u32(s.cluster.clouds);
  w.f64(s.cluster.capacity_per_cloud);
  w.u64(s.cluster.seed);
  w.f64(s.estimator.zeta);
  w.f64(s.estimator.delta);
  w.f64(s.estimator.w_waiting);
  w.f64(s.estimator.w_processing);
  w.f64(s.estimator.w_request_rate);
  w.f64(s.estimator.smoothing);
  w.f64(s.estimator.trend_smoothing);
  w.f64(s.estimator.max_utilization);
  w.f64(s.estimator.round_duration);
  w.u64(s.estimator.forget_after);
  w.u32(s.ingest.regions);
  w.u32(s.ingest.microservices);
  w.f64(s.ingest.unit_demand);
  w.i64(s.ingest.max_requirement);
  w.f64(s.ingest.supply_margin);
  w.f64(s.ingest.demand_scale);
  w.size(s.sellers.size());
  for (const auto& region : s.sellers) {
    w.size(region.size());
    for (const auto& p : region) {
      w.i64(p.capacity);
      w.u32(p.t_arrive);
      w.u32(p.t_depart);
    }
  }
  return ecrs::fnv1a64(w.payload());
}

}  // namespace

daemon::daemon(daemon_setup setup)
    : config_(setup.config),
      gen_(setup.workload),
      cluster_(setup.cluster, gen_.classes()),
      estimator_(setup.estimator),
      topo_(std::move(setup.topology)),
      market_(topo_, setup.sellers, setup.market),
      ingestor_(setup.ingest, std::move(setup.standing)) {
  ECRS_CHECK_MSG(std::isfinite(config_.round_duration) &&
                     config_.round_duration > 0.0,
                 "round duration must be finite and positive, got "
                     << config_.round_duration);
  // A plain `>= 0` admits +inf: inf * 0 units is a NaN allocation.
  ECRS_CHECK_MSG(std::isfinite(config_.base_allocation) &&
                     config_.base_allocation >= 0.0,
                 "base_allocation must be finite and non-negative, got "
                     << config_.base_allocation);
  ECRS_CHECK_MSG(std::isfinite(config_.resources_per_unit) &&
                     config_.resources_per_unit >= 0.0,
                 "resources_per_unit must be finite and non-negative, got "
                     << config_.resources_per_unit);
  ECRS_CHECK_MSG(setup.estimator.round_duration == config_.round_duration,
                 "estimator and daemon disagree on the round duration");
  ECRS_CHECK_MSG(
      setup.ingest.microservices == setup.workload.microservices,
      "ingest and workload disagree on the microservice count");
  ECRS_CHECK_MSG(setup.ingest.regions == setup.workload.regions,
                 "ingest and workload disagree on the region count");
  ECRS_CHECK_MSG(setup.sellers.size() == setup.ingest.regions,
                 "one seller set per region required");
  const scenario_config& sc = config_.scenario;
  ECRS_CHECK_MSG(sc.diurnal_amplitude >= 0.0 && sc.diurnal_amplitude < 1.0,
                 "diurnal amplitude must be in [0,1)");
  ECRS_CHECK_MSG(std::isfinite(sc.flash_factor) && sc.flash_factor >= 0.0,
                 "flash_factor must be finite and non-negative, got "
                     << sc.flash_factor);
  ECRS_CHECK_MSG(sc.flash_every == 0 || sc.flash_duration >= 1,
                 "flash crowds need a positive duration");
  // Fail at construction, not in the first peak round's set_rate_scale.
  const double peak =
      (1.0 + sc.diurnal_amplitude) * std::max(1.0, sc.flash_factor);
  ECRS_CHECK_MSG(gen_.expected_arrivals_per_round() * peak <
                     workload::generator::kMaxExpectedArrivals,
                 "flash_factor " << sc.flash_factor << " makes the peak rate "
                                 "scale " << peak << ", beyond what a round "
                                 "can generate");

  config_hash_ = hash_setup(setup);
  seller_counts_.reserve(setup.sellers.size());
  for (const auto& region : setup.sellers) {
    ECRS_CHECK_MSG(!region.empty(), "every region needs at least one seller");
    seller_counts_.push_back(static_cast<std::uint32_t>(region.size()));
  }

  const auto services =
      static_cast<std::uint32_t>(cluster_.microservice_count());
  population_.reserve(services);
  for (std::uint32_t m = 0; m < services; ++m) {
    population_.push_back(static_cast<std::uint32_t>(
        cluster_.cloud(cluster_.cloud_of(m)).hosted.size()));
  }
  estimates_.resize(services, 0.0);
  granted_.resize(services, 0);
}

churn_event daemon::churn_target(std::uint64_t ordinal) const {
  const auto regions = static_cast<std::uint64_t>(seller_counts_.size());
  churn_event e;
  e.region = static_cast<std::uint32_t>(ordinal % regions);
  e.seller = static_cast<std::uint32_t>((ordinal / regions) %
                                        seller_counts_[e.region]);
  return e;
}

void daemon::apply_churn(std::uint64_t round) {
  const scenario_config& sc = config_.scenario;
  if (sc.churn_every == 0) return;
  // Recover first, then fail: when a downtime expires in the same round a
  // new outage of the same seller starts, the outage wins.
  if (sc.churn_downtime > 0 && round > sc.churn_downtime &&
      (round - sc.churn_downtime) % sc.churn_every == 0) {
    const churn_event e =
        churn_target((round - sc.churn_downtime) / sc.churn_every);
    market_.set_seller_active(e.region, e.seller, true);
  }
  if (round % sc.churn_every == 0) {
    const churn_event e = churn_target(round / sc.churn_every);
    market_.set_seller_active(e.region, e.seller, false);
  }
}

void daemon::apply_allocations(const auction::regional_instance& inst,
                               const market::marketplace_round& out) {
  const std::uint32_t regions = ingestor_.config().regions;
  // Units each microservice ends up holding: its quantized requirement,
  // minus what the local round left uncovered, plus spillover awards.
  for (std::uint32_t r = 0; r < regions; ++r) {
    const std::vector<auction::units>& req = inst.regions[r].requirements;
    for (std::uint32_t k = 0; k < req.size(); ++k) {
      granted_[static_cast<std::size_t>(k) * regions + r] = req[k];
    }
  }
  for (std::uint32_t r = 0; r < regions; ++r) {
    for (const market::spill_deficit& def : out.shards[r].uncovered) {
      granted_[static_cast<std::size_t>(def.demander) * regions + r] -=
          def.missing;
    }
  }
  for (const market::spill_award& award : out.spillover.awards) {
    for (const auction::demander_id k : award.covered) {
      granted_[static_cast<std::size_t>(k) * regions +
               award.demand_region] += award.amount;
    }
  }
  for (std::size_t m = 0; m < granted_.size(); ++m) {
    const double g =
        static_cast<double>(std::max<auction::units>(0, granted_[m]));
    cluster_.service(static_cast<std::uint32_t>(m))
        .set_allocation(config_.base_allocation +
                        config_.resources_per_unit * g);
  }
}

void daemon::run_one_round() {
  const std::uint64_t r = completed_ + 1;
  const double dur = config_.round_duration;
  const double start = static_cast<double>(r - 1) * dur;
  // The boundary is r*dur, never start+dur: a daemon resumed from a
  // checkpoint computes the identical double for every boundary.
  const double end = static_cast<double>(r) * dur;

  gen_.set_rate_scale(scenario_rate_scale(config_.scenario, r));
  apply_churn(r);

  gen_.round_into(start, dur, batch_);
  cluster_.deliver_round(batch_, start, end);
  delivered_ += batch_.size();

  const auto services =
      static_cast<std::uint32_t>(cluster_.microservice_count());
  if (probe_) probe_(true);
  for (std::uint32_t m = 0; m < services; ++m) {
    estimator_.observe(
        cluster_.service(m).end_round(r, dur, population_[m]));
  }
  estimator_.estimates_into(estimates_);

  ingestor_.add_demands(estimates_);
  const auction::regional_instance& inst = ingestor_.finalize();
  if (probe_) probe_(false);
  market_.run_round(inst, market_out_);
  apply_allocations(inst, market_out_);

  ++completed_;
  if (callback_) callback_(r, market_out_, estimates_);
}

void daemon::run_rounds(std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) run_one_round();
}

void daemon::save(ecrs::checkpoint_writer& w) const {
  w.u64(completed_);
  w.u64(delivered_);
  // The boundary clock: the end of the last completed round, computed as
  // run_one_round computes it. Redundant with the round count, so load
  // rejects a word that disagrees with it.
  w.f64(static_cast<double>(completed_) * config_.round_duration);
  gen_.save(w);
  cluster_.save(w);
  estimator_.save(w);
  market_.save(w);
}

void daemon::load(ecrs::checkpoint_reader& r) {
  ECRS_CHECK_MSG(completed_ == 0,
                 "checkpoints restore into a freshly constructed daemon");
  completed_ = r.u64();
  delivered_ = r.u64();
  const double mark = r.f64();
  ECRS_CHECK_MSG(
      mark == static_cast<double>(completed_) * config_.round_duration,
      "checkpoint boundary clock " << mark << " does not match "
                                   << completed_ << " rounds of "
                                   << config_.round_duration << " s");
  gen_.load(r);
  cluster_.load(r);
  estimator_.load(r);
  market_.load(r);
}

void daemon::save_file(const std::string& path) const {
  ecrs::checkpoint_writer w;
  save(w);
  ecrs::save_checkpoint_file(path, config_hash_, w.payload());
}

void daemon::load_file(const std::string& path) {
  const std::vector<std::uint8_t> payload =
      ecrs::load_checkpoint_file(path, config_hash_);
  ecrs::checkpoint_reader r(payload);
  load(r);
  ECRS_CHECK_MSG(r.exhausted(), "daemon checkpoint has trailing state");
}

}  // namespace ecrs::simrun
