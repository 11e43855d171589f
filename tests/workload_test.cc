// Unit tests for the workload generator and traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace ecrs::workload {
namespace {

// --------------------------------------------------------------- generator

TEST(Generator, DeterministicForSameSeed) {
  generator_config cfg;
  cfg.users = 10;
  cfg.microservices = 4;
  cfg.seed = 77;
  generator a(cfg);
  generator b(cfg);
  const auto ra = a.round(0.0, 100.0);
  const auto rb = b.round(0.0, 100.0);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, rb[i].id);
    EXPECT_EQ(ra[i].microservice, rb[i].microservice);
    EXPECT_DOUBLE_EQ(ra[i].arrival_time, rb[i].arrival_time);
  }
}

TEST(Generator, ArrivalsSortedWithinRound) {
  generator_config cfg;
  cfg.users = 50;
  cfg.microservices = 8;
  generator g(cfg);
  const auto batch = g.round(10.0, 60.0);
  for (std::size_t i = 1; i < batch.size(); ++i) {
    EXPECT_TRUE(arrives_before(batch[i - 1], batch[i]));
  }
  for (const request& r : batch) {
    EXPECT_GE(r.arrival_time, 10.0);
    EXPECT_LT(r.arrival_time, 70.0);
    EXPECT_LT(r.microservice, cfg.microservices);
    EXPECT_GT(r.service_demand, 0.0);
  }
}

TEST(Generator, RequestIdsAreUniqueAcrossRounds) {
  generator_config cfg;
  cfg.users = 20;
  cfg.microservices = 5;
  generator g(cfg);
  std::set<std::uint64_t> ids;
  for (int r = 0; r < 3; ++r) {
    for (const request& req : g.round(r * 100.0, 100.0)) {
      EXPECT_TRUE(ids.insert(req.id).second);
    }
  }
}

TEST(Generator, PoissonVolumeMatchesClassMeans) {
  generator_config cfg;
  cfg.users = 100;
  cfg.microservices = 10;
  cfg.sensitive_mean = 5.0;
  cfg.tolerant_mean = 10.0;
  generator g(cfg);
  // Expected ~ users * (5 + 10) per round.
  running_stats per_round;
  for (int r = 0; r < 20; ++r) {
    per_round.add(static_cast<double>(g.round(r * 10.0, 10.0).size()));
  }
  EXPECT_NEAR(per_round.mean(), 1500.0, 60.0);
}

TEST(Generator, QosClassesAssignedByFraction) {
  generator_config cfg;
  cfg.users = 5;
  cfg.microservices = 10;
  cfg.delay_sensitive_fraction = 0.3;
  generator g(cfg);
  int sensitive = 0;
  for (std::uint32_t s = 0; s < cfg.microservices; ++s) {
    if (g.class_of(s) == qos_class::delay_sensitive) ++sensitive;
  }
  EXPECT_EQ(sensitive, 3);
}

TEST(Generator, RequestsTargetMatchingClass) {
  generator_config cfg;
  cfg.users = 30;
  cfg.microservices = 6;
  generator g(cfg);
  for (const request& r : g.round(0.0, 50.0)) {
    EXPECT_EQ(r.qos, g.class_of(r.microservice));
  }
}

TEST(Generator, RoundIntoMatchesRoundExactly) {
  generator_config cfg;
  cfg.users = 40;
  cfg.microservices = 6;
  cfg.seed = 99;
  generator by_value(cfg);
  generator in_place(cfg);
  std::vector<request> batch;
  for (int r = 0; r < 4; ++r) {
    const auto expected = by_value.round(r * 50.0, 50.0);
    in_place.round_into(r * 50.0, 50.0, batch);
    ASSERT_EQ(batch.size(), expected.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].id, expected[i].id);
      EXPECT_EQ(batch[i].user, expected[i].user);
      EXPECT_EQ(batch[i].microservice, expected[i].microservice);
      EXPECT_EQ(batch[i].qos, expected[i].qos);
      EXPECT_EQ(batch[i].arrival_time, expected[i].arrival_time);
      EXPECT_EQ(batch[i].service_demand, expected[i].service_demand);
    }
  }
}

TEST(Generator, RoundIntoReusesCapacityAcrossRounds) {
  generator_config cfg;
  cfg.users = 100;
  cfg.microservices = 10;
  generator g(cfg);
  std::vector<request> batch;
  g.round_into(0.0, 100.0, batch);
  // The first fill reserves from expected_arrivals_per_round() with slack,
  // so steady-state rounds fit in the existing buffer: no reallocation.
  const auto capacity = batch.capacity();
  EXPECT_GE(capacity, batch.size());
  for (int r = 1; r < 10; ++r) {
    g.round_into(r * 100.0, 100.0, batch);
    EXPECT_EQ(batch.capacity(), capacity);
  }
}

TEST(Generator, ExpectedArrivalsPerRoundMatchesEmpiricalMean) {
  generator_config cfg;
  cfg.users = 80;
  cfg.microservices = 8;
  generator g(cfg);
  running_stats per_round;
  std::vector<request> batch;
  for (int r = 0; r < 30; ++r) {
    g.round_into(r * 10.0, 10.0, batch);
    per_round.add(static_cast<double>(batch.size()));
  }
  EXPECT_NEAR(per_round.mean(), g.expected_arrivals_per_round(), 60.0);
}

TEST(Generator, RejectsBadConfig) {
  generator_config cfg;
  cfg.users = 0;
  EXPECT_THROW(generator{cfg}, check_error);
  cfg.users = 1;
  cfg.microservices = 0;
  EXPECT_THROW(generator{cfg}, check_error);
  cfg.microservices = 1;
  cfg.mean_service_demand = 0.0;
  EXPECT_THROW(generator{cfg}, check_error);
}

TEST(Generator, RejectsNonFiniteRoundWindow) {
  generator g(generator_config{});
  std::vector<request> batch;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(g.round_into(0.0, inf, batch), check_error);
  EXPECT_THROW(g.round_into(0.0, nan, batch), check_error);
  EXPECT_THROW(g.round_into(inf, 10.0, batch), check_error);
  EXPECT_THROW(g.round_into(nan, 10.0, batch), check_error);
  EXPECT_THROW(g.round_into(std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::max(), batch),
               check_error);  // the round end overflows
  EXPECT_THROW(g.round_into(0.0, 0.0, batch), check_error);
  EXPECT_THROW((void)g.round(0.0, inf), check_error);
}

// ---------------------------------------------------------- arrival order

request arrival(std::uint64_t id, double time,
                qos_class qos = qos_class::delay_tolerant) {
  request r;
  r.id = id;
  r.qos = qos;
  r.arrival_time = time;
  return r;
}

std::vector<std::uint64_t> ids_of(const std::vector<request>& batch) {
  std::vector<std::uint64_t> ids;
  ids.reserve(batch.size());
  for (const request& r : batch) ids.push_back(r.id);
  return ids;
}

// order_arrivals's result, as request ids.
std::vector<std::uint64_t> ordered_ids(std::vector<request> batch,
                                       double round_start, double duration) {
  arrival_order_scratch scratch;
  order_arrivals(batch, round_start, duration, scratch);
  return ids_of(batch);
}

TEST(OrderArrivals, BreaksTimeTiesByQosThenId) {
  const std::vector<request> batch = {
      arrival(5, 3.0, qos_class::delay_tolerant),
      arrival(4, 3.0, qos_class::delay_sensitive),
      arrival(9, 1.0, qos_class::delay_tolerant),
      arrival(2, 3.0, qos_class::delay_tolerant),
      arrival(7, 3.0, qos_class::delay_sensitive),
      arrival(1, 8.0, qos_class::delay_tolerant),
  };
  EXPECT_EQ(ordered_ids(batch, 0.0, 10.0),
            (std::vector<std::uint64_t>{9, 4, 7, 2, 5, 1}));
}

TEST(OrderArrivals, AllAtOneTimeShareOneBucket) {
  // 100 requests at one instant all fall in one bucket, which is then
  // ordered by (qos, id) alone.
  std::vector<request> batch;
  for (std::uint64_t i = 0; i < 100; ++i) {
    batch.push_back(arrival(100 - i, 4.0,
                            i % 3 == 0 ? qos_class::delay_sensitive
                                       : qos_class::delay_tolerant));
  }
  std::vector<request> expected = batch;
  std::sort(expected.begin(), expected.end(), arrives_before);
  EXPECT_EQ(ordered_ids(batch, 0.0, 10.0), ids_of(expected));
  EXPECT_EQ(expected.front().qos, qos_class::delay_sensitive);
  EXPECT_EQ(expected.back().qos, qos_class::delay_tolerant);
}

TEST(OrderArrivals, ReversesDescendingInput) {
  std::vector<request> batch;
  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    batch.push_back(arrival(i, 50.0 - 0.05 * static_cast<double>(i)));
    expected.push_back(999 - i);
  }
  EXPECT_EQ(ordered_ids(batch, 0.0, 50.0), expected);
}

TEST(OrderArrivals, EmptyAndSingleBatchesAreUntouched) {
  EXPECT_TRUE(ordered_ids({}, 0.0, 10.0).empty());
  EXPECT_EQ(ordered_ids({arrival(3, 2.5)}, 0.0, 10.0),
            (std::vector<std::uint64_t>{3}));
}

TEST(OrderArrivals, ArrivalAtRoundEndTakesTheLastBucket) {
  // (end - start) * n / duration = n: one past the last bucket, clamped.
  const std::vector<request> batch = {
      arrival(1, 10.0), arrival(2, 0.0), arrival(3, 9.999), arrival(4, 5.0)};
  EXPECT_EQ(ordered_ids(batch, 0.0, 10.0),
            (std::vector<std::uint64_t>{2, 4, 3, 1}));
}

TEST(OrderArrivals, LargeRoundStart) {
  const double start = 1e9;
  std::vector<request> batch;
  rng gen(5);
  for (std::uint64_t i = 0; i < 500; ++i) {
    batch.push_back(arrival(i, start + gen.uniform_real(0.0, 600.0)));
  }
  batch.push_back(arrival(500, start));
  batch.push_back(arrival(501, start + 600.0));
  std::vector<request> expected = batch;
  std::sort(expected.begin(), expected.end(), arrives_before);
  EXPECT_EQ(ordered_ids(batch, start, 600.0), ids_of(expected));
}

TEST(OrderArrivals, RejectsNonFiniteWindow) {
  std::vector<request> batch = {arrival(1, 1.0), arrival(2, 0.5)};
  arrival_order_scratch scratch;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(order_arrivals(batch, 0.0, inf, scratch), check_error);
  EXPECT_THROW(order_arrivals(batch, inf, 1.0, scratch), check_error);
  EXPECT_THROW(order_arrivals(batch, 0.0, -1.0, scratch), check_error);
}

TEST(OrderArrivals, MatchesStdSortOnGeneratedBatches) {
  // Generated batches, shuffled, with a share of their times snapped to a
  // coarse grid so that exact (time, qos) and (time, qos, id-order) ties
  // occur; the ordering must equal std::sort with the same comparator.
  arrival_order_scratch scratch;  // reused across batches, as in generator
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const double scale : {0.0, 1.0, 4.0, 100.0}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " scale "
                                      << scale);
      generator_config cfg;
      cfg.users = 20;
      cfg.microservices = 8;
      cfg.seed = seed;
      generator g(cfg);
      g.set_rate_scale(scale);
      rng gen(seed * 7919);
      for (int round = 0; round < 3; ++round) {
        const double start = 600.0 * round;
        std::vector<request> batch = g.round(start, 600.0);
        for (request& r : batch) {
          if (gen.uniform_int(0, 3) == 0) {
            r.arrival_time = start + std::floor(r.arrival_time - start);
          }
        }
        gen.shuffle(batch);
        std::vector<request> expected = batch;
        std::sort(expected.begin(), expected.end(), arrives_before);
        order_arrivals(batch, start, 600.0, scratch);
        ASSERT_EQ(ids_of(batch), ids_of(expected)) << "round " << round;
      }
    }
  }
}

// ------------------------------------------------------------------- trace

std::vector<request> sample_requests() {
  std::vector<request> reqs;
  for (int i = 0; i < 5; ++i) {
    request r;
    r.id = static_cast<std::uint64_t>(i + 1);
    r.user = static_cast<std::uint32_t>(i % 3);
    r.microservice = static_cast<std::uint32_t>(i % 2);
    r.qos = i % 2 == 0 ? qos_class::delay_sensitive : qos_class::delay_tolerant;
    r.arrival_time = 1.5 * i;
    r.service_demand = 0.25 + i;
    reqs.push_back(r);
  }
  return reqs;
}

TEST(Trace, RoundTripsThroughStream) {
  const auto original = sample_requests();
  std::stringstream ss;
  write_trace(ss, original);
  const auto restored = read_trace(ss);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].id, original[i].id);
    EXPECT_EQ(restored[i].user, original[i].user);
    EXPECT_EQ(restored[i].microservice, original[i].microservice);
    EXPECT_EQ(restored[i].qos, original[i].qos);
    EXPECT_DOUBLE_EQ(restored[i].arrival_time, original[i].arrival_time);
    EXPECT_DOUBLE_EQ(restored[i].service_demand, original[i].service_demand);
  }
}

TEST(Trace, EmptyTraceRoundTrips) {
  std::stringstream ss;
  write_trace(ss, {});
  EXPECT_TRUE(read_trace(ss).empty());
}

TEST(Trace, RejectsMissingHeader) {
  std::stringstream ss("not,a,header\n1,2,3,0,0.0,1.0\n");
  EXPECT_THROW(read_trace(ss), check_error);
}

TEST(Trace, RejectsWrongFieldCount) {
  std::stringstream ss(
      "id,user,microservice,qos,arrival_time,service_demand\n1,2,3\n");
  EXPECT_THROW(read_trace(ss), check_error);
}

TEST(Trace, RejectsNonNumericFields) {
  std::stringstream ss(
      "id,user,microservice,qos,arrival_time,service_demand\nx,2,3,0,0.0,1\n");
  EXPECT_THROW(read_trace(ss), check_error);
}

TEST(Trace, RejectsBadQos) {
  std::stringstream ss(
      "id,user,microservice,qos,arrival_time,service_demand\n1,2,3,7,0.0,1\n");
  EXPECT_THROW(read_trace(ss), check_error);
}

TEST(Trace, ToleratesCarriageReturnsAndBlankLines) {
  std::stringstream ss(
      "id,user,microservice,qos,arrival_time,service_demand\r\n"
      "1,2,3,0,0.5,1.25\r\n"
      "\n");
  const auto reqs = read_trace(ss);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].id, 1u);
  EXPECT_DOUBLE_EQ(reqs[0].service_demand, 1.25);
}

TEST(Trace, FileRoundTrip) {
  const auto original = sample_requests();
  const std::string path = testing::TempDir() + "/ecrs_trace_test.csv";
  write_trace_file(path, original);
  const auto restored = read_trace_file(path);
  EXPECT_EQ(restored.size(), original.size());
}

TEST(Trace, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/dir/trace.csv"), check_error);
}

TEST(QosClass, ToStringNames) {
  EXPECT_STREQ(to_string(qos_class::delay_sensitive), "delay_sensitive");
  EXPECT_STREQ(to_string(qos_class::delay_tolerant), "delay_tolerant");
}

// ------------------------------------------------- rate scale + checkpoint

generator_config scaled_config(std::uint64_t seed) {
  generator_config cfg;
  cfg.users = 40;
  cfg.microservices = 8;
  cfg.seed = seed;
  return cfg;
}

TEST(Generator, RateScaleScalesArrivals) {
  generator base(scaled_config(21));
  generator surged(scaled_config(21));
  surged.set_rate_scale(3.0);
  const auto quiet = base.round(0.0, 100.0);
  const auto surge = surged.round(0.0, 100.0);
  ASSERT_GT(quiet.size(), 0u);
  EXPECT_GT(surge.size(), quiet.size());

  generator silenced(scaled_config(21));
  silenced.set_rate_scale(0.0);
  EXPECT_TRUE(silenced.round(0.0, 100.0).empty());

  EXPECT_THROW(base.set_rate_scale(-0.5), ecrs::check_error);
  // Rejected before any round: an infinite expected count would reach an
  // undefined size_t cast.
  EXPECT_THROW(base.set_rate_scale(std::numeric_limits<double>::infinity()),
               ecrs::check_error);
  EXPECT_THROW(base.set_rate_scale(std::numeric_limits<double>::quiet_NaN()),
               ecrs::check_error);
  // Finite, but the expected round reaches the 32-bit batch index limit
  // (the size_t cast overflows at 1e300). A rejected scale is not kept.
  const double max_scale =
      generator::kMaxExpectedArrivals / base.expected_arrivals_per_round();
  EXPECT_THROW(base.set_rate_scale(1e300), ecrs::check_error);
  EXPECT_THROW(base.set_rate_scale(2.0 * max_scale), ecrs::check_error);
  EXPECT_DOUBLE_EQ(base.rate_scale(), 1.0);
  EXPECT_NO_THROW(base.set_rate_scale(0.5 * max_scale));
}

TEST(Generator, LoadRejectsAnOutOfRangeRateScale) {
  ecrs::checkpoint_writer w;
  generator(scaled_config(23)).save(w);
  for (const double bad : {1e300, -1.0,
                           std::numeric_limits<double>::quiet_NaN()}) {
    ecrs::checkpoint_writer word;
    word.f64(bad);
    // The rate scale is the payload's last f64.
    std::vector<std::uint8_t> bytes(w.payload().begin(), w.payload().end());
    std::copy(word.payload().begin(), word.payload().end(), bytes.end() - 8);
    ecrs::checkpoint_reader r(bytes);
    generator restored(scaled_config(23));
    EXPECT_THROW(restored.load(r), ecrs::check_error) << bad;
  }
}

TEST(Generator, CheckpointRestoresStreamBitForBit) {
  generator source(scaled_config(22));
  (void)source.round(0.0, 100.0);  // advance the rng past round 1
  source.set_rate_scale(1.5);

  ecrs::checkpoint_writer w;
  source.save(w);
  ecrs::checkpoint_reader r(w.payload());
  generator restored(scaled_config(22));
  restored.load(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_DOUBLE_EQ(restored.rate_scale(), 1.5);

  // The restored generator continues the exact request stream.
  const auto expected = source.round(100.0, 100.0);
  const auto replayed = restored.round(100.0, 100.0);
  ASSERT_EQ(replayed.size(), expected.size());
  ASSERT_GT(expected.size(), 0u);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(replayed[i].id, expected[i].id);
    EXPECT_EQ(replayed[i].microservice, expected[i].microservice);
    EXPECT_EQ(replayed[i].region, expected[i].region);
    EXPECT_EQ(replayed[i].qos, expected[i].qos);
    EXPECT_EQ(replayed[i].arrival_time, expected[i].arrival_time);
    EXPECT_EQ(replayed[i].service_demand, expected[i].service_demand);
  }
}

}  // namespace
}  // namespace ecrs::workload
