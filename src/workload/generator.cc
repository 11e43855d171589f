#include "workload/generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace ecrs::workload {
namespace {

void check_window(double round_start, double duration) {
  ECRS_CHECK_MSG(std::isfinite(round_start),
                 "round start must be finite, got " << round_start);
  ECRS_CHECK_MSG(std::isfinite(duration) && duration > 0.0,
                 "round duration must be finite and positive, got "
                     << duration);
  ECRS_CHECK_MSG(std::isfinite(round_start + duration),
                 "round end must be finite");
}

}  // namespace

void order_arrivals(std::span<request> batch, double round_start,
                    double duration, arrival_order_scratch& scratch) {
  check_window(round_start, duration);
  const std::size_t size = batch.size();
  if (size < 2) return;
  ECRS_CHECK_MSG(size <= std::numeric_limits<std::uint32_t>::max(),
                 "batch too large to order");
  const auto n = static_cast<std::uint32_t>(size);
  const double scale = static_cast<double>(n) / duration;
  const double last = static_cast<double>(n - 1);
  // Monotone in the arrival time; NaN and early times land in bucket 0.
  const auto bucket = [&](const request& r) -> std::uint32_t {
    const double x = (r.arrival_time - round_start) * scale;
    if (!(x > 0.0)) return 0;
    return x >= last ? n - 1 : static_cast<std::uint32_t>(x);
  };

  // Counts, then prefix sums: bucket_end[b] is where bucket b starts.
  std::vector<std::uint32_t>& end = scratch.bucket_end;
  std::vector<std::uint32_t>& source = scratch.source;
  end.assign(n, 0);
  source.resize(n);
  for (const request& r : batch) ++end[bucket(r)];
  std::uint32_t offset = 0;
  for (std::uint32_t& slot : end) {
    const std::uint32_t count = slot;
    slot = offset;
    offset += count;
  }
  // Stable scatter of indices; afterwards bucket_end[b] is where b ends.
  for (std::uint32_t i = 0; i < n; ++i) source[end[bucket(batch[i])]++] = i;

  // Gather along each cycle of the permutation: slot p takes the request at
  // source[p]. A finished slot is marked source[p] == p.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (source[i] == i) continue;
    const request held = batch[i];
    std::uint32_t p = i;
    for (;;) {
      const std::uint32_t from = source[p];
      source[p] = p;
      if (from == i) {
        batch[p] = held;
        break;
      }
      batch[p] = batch[from];
      p = from;
    }
  }

  // Buckets are already in order relative to each other; sort within each.
  std::uint32_t begin = 0;
  for (const std::uint32_t stop : end) {
    std::sort(batch.begin() + begin, batch.begin() + stop, arrives_before);
    begin = stop;
  }
}

generator::generator(generator_config config)
    : config_(config), gen_(config.seed) {
  ECRS_CHECK_MSG(config_.users > 0, "need at least one user");
  ECRS_CHECK_MSG(config_.microservices > 0, "need at least one microservice");
  ECRS_CHECK_MSG(
      config_.delay_sensitive_fraction >= 0.0 &&
          config_.delay_sensitive_fraction <= 1.0,
      "delay_sensitive_fraction out of [0,1]");
  ECRS_CHECK_MSG(config_.mean_service_demand > 0.0,
                 "mean service demand must be positive");
  ECRS_CHECK_MSG(config_.sensitive_mean_demand >= 0.0 &&
                     config_.tolerant_mean_demand >= 0.0,
                 "per-class demand overrides must be non-negative");
  ECRS_CHECK_MSG(config_.regions > 0, "need at least one region");

  const auto sensitive_count = static_cast<std::uint32_t>(
      config_.delay_sensitive_fraction *
      static_cast<double>(config_.microservices));
  class_by_service_.resize(config_.microservices, qos_class::delay_tolerant);
  for (std::uint32_t s = 0; s < sensitive_count; ++s) {
    class_by_service_[s] = qos_class::delay_sensitive;
  }
  // Shuffle so classes are not correlated with microservice ids.
  gen_.shuffle(class_by_service_);

  // Per-class target lists: one uniform draw picks a matching microservice
  // directly. (The first cut rejection-sampled up to 16 candidate ids per
  // request — a measurable cost once rounds carry ~1M requests.) A class
  // with no microservices falls back to the full id space, preserving the
  // old "fall back to any microservice" behaviour.
  for (std::uint32_t m = 0; m < config_.microservices; ++m) {
    (class_by_service_[m] == qos_class::delay_sensitive ? sensitive_ids_
                                                        : tolerant_ids_)
        .push_back(m);
  }
}

qos_class generator::class_of(std::uint32_t microservice) const {
  ECRS_CHECK(microservice < class_by_service_.size());
  return class_by_service_[microservice];
}

std::uint32_t generator::region_of(std::uint32_t microservice) const {
  ECRS_CHECK(microservice < config_.microservices);
  return microservice % config_.regions;
}

double generator::mean_demand_of(qos_class cls) const {
  const double override_mean = cls == qos_class::delay_sensitive
                                   ? config_.sensitive_mean_demand
                                   : config_.tolerant_mean_demand;
  return override_mean > 0.0 ? override_mean : config_.mean_service_demand;
}

double generator::expected_arrivals_per_round() const {
  const double users = static_cast<double>(config_.users);
  return users * (sensitive_ids_.empty() ? 0.0 : config_.sensitive_mean) +
         users * (tolerant_ids_.empty() ? 0.0 : config_.tolerant_mean);
}

std::vector<request> generator::round(double round_start, double duration) {
  std::vector<request> batch;
  round_into(round_start, duration, batch);
  return batch;
}

void generator::round_into(double round_start, double duration,
                           std::vector<request>& batch) {
  check_window(round_start, duration);
  batch.clear();
  // Expected count plus ~4 sigma of Poisson headroom: typical rounds fill
  // the reservation without regrowing, so a reused buffer stops allocating
  // after its first round.
  const double expected = expected_arrivals_per_round() * rate_scale_;
  const auto want = static_cast<std::size_t>(
      expected + 4.0 * std::sqrt(std::max(expected, 1.0)) + 16.0);
  if (batch.capacity() < want) batch.reserve(want);
  for (std::uint32_t user = 0; user < config_.users; ++user) {
    // Each user issues a Poisson number of requests per class per round and
    // spreads them over microservices of that class uniformly at random.
    for (const qos_class cls :
         {qos_class::delay_sensitive, qos_class::delay_tolerant}) {
      const double mean = (cls == qos_class::delay_sensitive
                               ? config_.sensitive_mean
                               : config_.tolerant_mean) *
                          rate_scale_;
      const std::int64_t count = gen_.poisson(mean);
      const std::vector<std::uint32_t>& ids =
          cls == qos_class::delay_sensitive ? sensitive_ids_ : tolerant_ids_;
      for (std::int64_t k = 0; k < count; ++k) {
        // Pick a target microservice of the matching class in one draw;
        // an empty class falls back to any microservice.
        std::uint32_t target;
        if (!ids.empty()) {
          target = ids[static_cast<std::size_t>(gen_.uniform_int(
              0, static_cast<std::int64_t>(ids.size()) - 1))];
        } else {
          target = static_cast<std::uint32_t>(gen_.uniform_int(
              0, static_cast<std::int64_t>(config_.microservices) - 1));
        }
        request r;
        r.id = next_request_id_++;
        r.user = user;
        r.microservice = target;
        r.region = region_of(target);
        r.qos = class_by_service_[target];
        r.arrival_time = round_start + gen_.uniform_real(0.0, duration);
        r.service_demand = gen_.exponential(1.0 / mean_demand_of(r.qos));
        batch.push_back(r);
      }
    }
  }
  order_arrivals(batch, round_start, duration, order_scratch_);
}

void generator::set_rate_scale(double scale) {
  // round_into casts the expected count to size_t, and order_arrivals
  // indexes the batch with 32-bit slots: bound the scale before either.
  ECRS_CHECK_MSG(std::isfinite(scale) && scale >= 0.0 &&
                     expected_arrivals_per_round() * scale <
                         kMaxExpectedArrivals,
                 "rate scale must be finite, non-negative and expect fewer "
                 "than 2^32 - 1 arrivals per round, got " << scale);
  rate_scale_ = scale;
}

void generator::save(ecrs::checkpoint_writer& w) const {
  const std::array<std::uint64_t, 4>& st = gen_.state();
  for (std::uint64_t word : st) w.u64(word);
  w.u64(next_request_id_);
  w.f64(rate_scale_);
}

void generator::load(ecrs::checkpoint_reader& r) {
  std::array<std::uint64_t, 4> st;
  for (std::uint64_t& word : st) word = r.u64();
  gen_.set_state(st);
  next_request_id_ = r.u64();
  set_rate_scale(r.f64());
}

}  // namespace ecrs::workload
