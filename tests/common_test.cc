// Unit tests for ecrs::common (rng, statistics, table, flags, check,
// checkpoint encoding, arena, simd).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/checkpoint.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/statistics.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace ecrs {
namespace {

// ------------------------------------------------------------------- check

TEST(Check, PassingCheckDoesNothing) { ECRS_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(ECRS_CHECK(false), check_error);
}

TEST(Check, MessageIsIncluded) {
  try {
    ECRS_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected throw";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  rng a(123);
  rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  rng a(1);
  rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsIndependentOfParentDraws) {
  rng a(7);
  rng fork_before = a.fork(5);
  (void)a();
  (void)a();
  rng b(7);
  rng fork_after = b.fork(5);
  // Forks derive from seed state, so forking before/after parent draws from
  // the same state yields the same stream.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fork_before(), fork_after());
}

TEST(Rng, UniformIntStaysInRange) {
  rng gen(99);
  for (int i = 0; i < 1000; ++i) {
    const auto v = gen.uniform_int(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  rng gen(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(gen.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntSingletonRange) {
  rng gen(5);
  EXPECT_EQ(gen.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  rng gen(5);
  EXPECT_THROW(gen.uniform_int(3, 2), check_error);
}

TEST(Rng, UniformRealBounds) {
  rng gen(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = gen.uniform_real(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformRealMeanApproximatesMidpoint) {
  rng gen(12);
  running_stats s;
  for (int i = 0; i < 20000; ++i) s.add(gen.uniform_real(0.0, 10.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.15);
}

TEST(Rng, BernoulliFrequency) {
  rng gen(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += gen.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  rng gen(14);
  running_stats s;
  for (int i = 0; i < 20000; ++i) s.add(gen.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.03);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  rng gen(15);
  EXPECT_THROW(gen.exponential(0.0), check_error);
}

TEST(Rng, PoissonSmallMean) {
  rng gen(16);
  running_stats s;
  for (int i = 0; i < 20000; ++i) {
    s.add(static_cast<double>(gen.poisson(5.0)));
  }
  EXPECT_NEAR(s.mean(), 5.0, 0.15);
  EXPECT_NEAR(s.variance(), 5.0, 0.5);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  rng gen(17);
  running_stats s;
  for (int i = 0; i < 20000; ++i) {
    s.add(static_cast<double>(gen.poisson(100.0)));
  }
  EXPECT_NEAR(s.mean(), 100.0, 1.5);
}

TEST(Rng, PoissonZeroMeanIsZero) {
  rng gen(18);
  EXPECT_EQ(gen.poisson(0.0), 0);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  rng gen(19);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[gen.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 10000.0, 0.75, 0.03);
}

TEST(Rng, WeightedIndexRejectsAllZero) {
  rng gen(20);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(gen.weighted_index(w), check_error);
}

TEST(Rng, ChiSquareUniformity) {
  // 16-bin chi-square goodness-of-fit on uniform_int draws. With df = 15
  // the 99.9th percentile is ~37.7; a correct generator stays well below.
  rng gen(123456);
  constexpr int kBins = 16;
  constexpr int kDraws = 160000;
  int counts[kBins] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[gen.uniform_int(0, kBins - 1)];
  }
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 37.7);
}

TEST(Rng, HighBitsAndLowBitsBothUniform) {
  rng gen(7);
  int high = 0;
  int low = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t v = gen();
    high += (v >> 63) & 1u;
    low += v & 1u;
  }
  EXPECT_NEAR(high / static_cast<double>(kDraws), 0.5, 0.01);
  EXPECT_NEAR(low / static_cast<double>(kDraws), 0.5, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  rng gen(21);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  gen.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  rng gen(22);
  const auto sample = gen.sample_without_replacement(20, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (std::size_t idx : sample) EXPECT_LT(idx, 20u);
}

TEST(Rng, SampleAllElements) {
  rng gen(23);
  const auto sample = gen.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleRejectsOversizedRequest) {
  rng gen(24);
  EXPECT_THROW(gen.sample_without_replacement(3, 4), check_error);
}

// -------------------------------------------------------------- statistics

TEST(RunningStats, BasicMoments) {
  running_stats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyThrows) {
  running_stats s;
  EXPECT_THROW(s.mean(), check_error);
  EXPECT_THROW(s.min(), check_error);
}

TEST(RunningStats, MergeMatchesCombined) {
  running_stats a;
  running_stats b;
  running_stats all;
  rng gen(31);
  for (int i = 0; i < 500; ++i) {
    const double v = gen.uniform_real(-5.0, 5.0);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  running_stats a;
  a.add(1.0);
  running_stats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(RunningStats, SampleVarianceNeedsTwo) {
  running_stats s;
  s.add(1.0);
  EXPECT_THROW(s.sample_variance(), check_error);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);
}

TEST(RunningStats, StddevNeverNaNOnNearConstantStreams) {
  // Streams of (nearly) identical large values drive Welford's
  // delta * (x - mean) term through heavy cancellation; before the m2_
  // clamp this could leave m2_ a few ulps negative and stddev() NaN.
  const double values[] = {1e15 + 0.1, 1e15 + 0.1, 1e15 + 0.2, 1e15 + 0.1,
                           1e15 + 0.3, 1e15 + 0.1, 1e15 + 0.2, 1e15 + 0.1};
  running_stats s;
  for (const double v : values) {
    s.add(v);
    EXPECT_FALSE(std::isnan(s.stddev())) << "after adding " << v;
    EXPECT_GE(s.variance(), 0.0);
  }
  // Constant stream: variance is exactly zero, never negative.
  running_stats c;
  for (int i = 0; i < 1000; ++i) c.add(3.14159);
  EXPECT_GE(c.variance(), 0.0);
  EXPECT_FALSE(std::isnan(c.stddev()));
}

TEST(RunningStats, MergeOrderInvariance) {
  // The same sample pushed serially, merged from two shards, and merged
  // pairwise from four shards must agree (within FP tolerance) and must
  // never yield a NaN stddev, whatever the merge tree looks like.
  rng gen(0x57A75u);
  std::vector<double> sample;
  for (int i = 0; i < 4000; ++i) {
    sample.push_back(1e9 + gen.uniform_real(0.0, 1e-3));
  }

  running_stats serial;
  for (const double v : sample) serial.add(v);

  running_stats halves[2];
  for (std::size_t i = 0; i < sample.size(); ++i) {
    halves[i % 2].add(sample[i]);
  }
  running_stats two_way = halves[0];
  two_way.merge(halves[1]);

  running_stats quarters[4];
  for (std::size_t i = 0; i < sample.size(); ++i) {
    quarters[i % 4].add(sample[i]);
  }
  running_stats left = quarters[0], right = quarters[2];
  left.merge(quarters[1]);
  right.merge(quarters[3]);
  running_stats pairwise = left;
  pairwise.merge(right);

  for (const running_stats* s : {&two_way, &pairwise}) {
    EXPECT_EQ(s->count(), serial.count());
    EXPECT_NEAR(s->mean(), serial.mean(), 1e-6 * std::abs(serial.mean()));
    EXPECT_NEAR(s->variance(), serial.variance(),
                1e-6 + 1e-6 * serial.variance());
    EXPECT_FALSE(std::isnan(s->stddev()));
    EXPECT_GE(s->variance(), 0.0);
  }
}

TEST(Histogram, BinningAndClamping) {
  histogram h(0.0, 10.0, 5);
  h.add(1.0);    // bin 0
  h.add(9.9);    // bin 4
  h.add(-5.0);   // clamped to bin 0
  h.add(100.0);  // clamped to bin 4
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lower(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(1), 4.0);
}

TEST(Histogram, AsciiRendering) {
  histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string art = h.to_ascii(10);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Histogram, RejectsBadRange) {
  EXPECT_THROW(histogram(1.0, 1.0, 3), check_error);
  EXPECT_THROW(histogram(0.0, 1.0, 0), check_error);
}

TEST(Percentile, OrderStatistics) {
  std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 30.0), 7.0);
}

TEST(Percentile, EmptyThrows) {
  EXPECT_THROW(percentile({}, 50.0), check_error);
}

TEST(HarmonicNumber, KnownValues) {
  EXPECT_DOUBLE_EQ(harmonic_number(0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic_number(1), 1.0);
  EXPECT_NEAR(harmonic_number(4), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
  // H_n ~ ln n + gamma.
  EXPECT_NEAR(harmonic_number(100000), std::log(100000.0) + 0.5772156649,
              1e-4);
}

// ------------------------------------------------------------------- table

TEST(Table, AsciiContainsHeadersAndCells) {
  table t({"name", "value"});
  t.add_row({std::string("alpha"), 1.5});
  t.add_row({std::string("beta"), 2.0});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("name"), std::string::npos);
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("1.5"), std::string::npos);
}

TEST(Table, RowLengthMismatchThrows) {
  table t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), check_error);
}

TEST(Table, CsvRoundValues) {
  table t({"x", "label"});
  t.add_row({static_cast<long long>(3), std::string("plain")});
  t.add_row({2.25, std::string("with,comma")});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("x,label"), std::string::npos);
  EXPECT_NE(csv.find("3,plain"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
}

TEST(Table, NumberAtParsesAllCellKinds) {
  table t({"v"});
  t.add_row({1.5});
  t.add_row({static_cast<long long>(7)});
  t.add_row({std::string("2.5")});
  EXPECT_DOUBLE_EQ(t.number_at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(t.number_at(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(t.number_at(2, 0), 2.5);
}

TEST(Table, PrecisionControlsRendering) {
  table t({"v"});
  t.add_row({3.14159265});
  t.set_precision(3);
  EXPECT_EQ(t.text_at(0, 0), "3.14");
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

// ------------------------------------------------------------------- flags

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4.5", "--gamma"};
  flags f(5, argv);
  EXPECT_EQ(f.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(f.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(f.get_bool("gamma", false));
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  flags f(1, argv);
  EXPECT_EQ(f.get_int("missing", 9), 9);
  EXPECT_EQ(f.get_string("missing", "dflt"), "dflt");
  EXPECT_FALSE(f.has("missing"));
}

TEST(Flags, PositionalArgumentsCollected) {
  const char* argv[] = {"prog", "input.csv", "--k=1", "other"};
  flags f(4, argv);
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.csv");
  EXPECT_EQ(f.positional()[1], "other");
}

TEST(Flags, MalformedNumberThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  flags f(2, argv);
  EXPECT_THROW(f.get_int("n", 0), check_error);
  EXPECT_THROW(f.get_double("n", 0.0), check_error);
}

TEST(Flags, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=0", "--c=off"};
  flags f(4, argv);
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_FALSE(f.get_bool("c", true));
}

// -------------------------------------------------------------- checkpoint

std::vector<std::uint8_t> bytes_of(const checkpoint_writer& w) {
  return {w.payload().begin(), w.payload().end()};
}

void write_sample(checkpoint_writer& w) {
  w.u8(0xab);
  w.u32(0x01020304u);
  w.u64(0x1122334455667788ULL);
  w.i64(-2);
  w.f64(1.5);
  w.size(258);
}

// The format's bytes, apart from the golden digests that hash them: every
// width little-endian, i64 two's complement, f64 its IEEE-754 bit pattern.
const std::vector<std::uint8_t> kSampleBytes = {
    0xab,                                            // u8
    0x04, 0x03, 0x02, 0x01,                          // u32
    0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64
    0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // i64 -2
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,  // f64 1.5
    0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // size 258
};

TEST(Checkpoint, WriterEncodesLittleEndianFixedWidth) {
  checkpoint_writer w;
  write_sample(w);
  EXPECT_EQ(w.bytes_written(), kSampleBytes.size());
  EXPECT_EQ(bytes_of(w), kSampleBytes);

  // A cleared writer is empty and writes the same bytes again (the reuse
  // pattern of a daemon checkpointing every few rounds).
  w.clear();
  EXPECT_EQ(w.bytes_written(), 0u);
  EXPECT_TRUE(w.payload().empty());
  write_sample(w);
  EXPECT_EQ(bytes_of(w), kSampleBytes);

  // Past several buffer doublings the words still land back to back.
  w.clear();
  for (std::uint32_t i = 0; i < 256; ++i) w.u32(i * 0x01010101u);
  ASSERT_EQ(w.bytes_written(), 1024u);
  const std::vector<std::uint8_t> bytes = bytes_of(w);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_EQ(bytes[i], static_cast<std::uint8_t>(i / 4)) << "byte " << i;
  }
}

TEST(Checkpoint, ReaderRoundTripsAndRejectsOverrunAtEveryWidth) {
  checkpoint_writer w;
  write_sample(w);
  const double nan_payload = std::bit_cast<double>(0x7ff8000000000123ULL);
  w.f64(-0.0);
  w.f64(nan_payload);
  w.i64(std::numeric_limits<std::int64_t>::min());
  checkpoint_reader r(w.payload());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.i64(), -2);
  EXPECT_EQ(r.f64(), 1.5);
  EXPECT_EQ(r.size(), 258u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(nan_payload));
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(static_cast<void>(r.u8()), check_error);

  // With fewer bytes left than a word needs, the read throws and leaves the
  // cursor where it was; a word that fits still reads.
  const std::vector<std::uint8_t> bytes(8, 0x5a);
  for (std::size_t left = 0; left < 8; ++left) {
    SCOPED_TRACE(testing::Message() << left << " bytes left");
    checkpoint_reader c(std::span<const std::uint8_t>(bytes).last(left));
    if (left < 1) {
      EXPECT_THROW(static_cast<void>(c.u8()), check_error);
    }
    if (left < 4) {
      EXPECT_THROW(static_cast<void>(c.u32()), check_error);
    }
    EXPECT_THROW(static_cast<void>(c.u64()), check_error);
    EXPECT_THROW(static_cast<void>(c.i64()), check_error);
    EXPECT_THROW(static_cast<void>(c.f64()), check_error);
    EXPECT_THROW(static_cast<void>(c.size()), check_error);
    EXPECT_EQ(c.remaining(), left);
    if (left >= 4) {
      EXPECT_EQ(c.u32(), 0x5a5a5a5au);
      EXPECT_EQ(c.remaining(), left - 4);
    }
  }
}

TEST(Checkpoint, FileHeaderEncodingAndOversizedDeclaredPayload) {
  const std::string path = testing::TempDir() + "common_ckpt.bin";
  save_checkpoint_file(path, 0x0102030405060708ULL, kSampleBytes);
  EXPECT_EQ(load_checkpoint_file(path, 0x0102030405060708ULL), kSampleBytes);

  std::vector<char> file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(file.size(), 40 + kSampleBytes.size());
  checkpoint_writer header;
  header.u64(kCheckpointMagic);
  header.u32(kCheckpointVersion);
  header.u32(0);
  header.u64(0x0102030405060708ULL);
  header.size(kSampleBytes.size());
  header.u64(fnv1a64(kSampleBytes));
  EXPECT_EQ(std::string(file.data(), 8), "ECRSCKPT");
  EXPECT_TRUE(std::equal(header.payload().begin(), header.payload().end(),
                         reinterpret_cast<const std::uint8_t*>(file.data())));

  // A declared payload size beyond the file fails as a check, before any
  // buffer of that size is allocated.
  for (const std::uint64_t declared :
       {std::uint64_t{1} << 40, std::numeric_limits<std::uint64_t>::max()}) {
    std::vector<char> bad = file;
    std::memcpy(bad.data() + 24, &declared, sizeof declared);
    const std::string bad_path = testing::TempDir() + "common_ckpt_big.bin";
    {
      std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
      out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    EXPECT_THROW(static_cast<void>(load_checkpoint_file(
                     bad_path, 0x0102030405060708ULL)),
                 check_error);
  }
}

// --------------------------------------------------------------- stopwatch

TEST(Stopwatch, MeasuresElapsedTime) {
  stopwatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(w.elapsed_seconds(), 0.0);
  EXPECT_GE(w.elapsed_ms(), w.elapsed_seconds() * 1000.0 - 1e-9);
}

TEST(Stopwatch, RestartResets) {
  stopwatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += static_cast<double>(i);
  const double before = w.elapsed_seconds();
  w.restart();
  EXPECT_LE(w.elapsed_seconds(), before + 1.0);
}

// ------------------------------------------------------------- thread pool

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  thread_pool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeReturnsImmediately) {
  thread_pool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  thread_pool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(10, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 45u);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  thread_pool pool(2);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 7) throw check_error("boom");
                                 }),
               check_error);
}

TEST(ThreadPool, NestedParallelForMakesProgress) {
  // The caller drains its own range, so nesting inside a worker cannot
  // deadlock even when every pool thread is busy.
  thread_pool pool(1);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32u);
}

TEST(ThreadPool, MaxWorkersOneRunsOnCaller) {
  thread_pool pool(4);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(
      16, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
      /*max_workers=*/1);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&thread_pool::shared(), &thread_pool::shared());
  EXPECT_GE(thread_pool::shared().size(), 1u);
}

// ------------------------------------------------------------------- arena

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  arena a;
  auto* p8 = a.alloc_array<std::int64_t>(7);
  auto* p4 = a.alloc_array<std::uint32_t>(3);
  auto* p1 = a.alloc_array<char>(5);
  auto* q8 = a.alloc_array<std::int64_t>(2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p8) % alignof(std::int64_t), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p4) % alignof(std::uint32_t), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q8) % alignof(std::int64_t), 0u);
  // Writes through one pointer must not clobber another's range.
  for (int i = 0; i < 7; ++i) p8[i] = 0x1111111111111111;
  for (int i = 0; i < 3; ++i) p4[i] = 0x22222222u;
  for (int i = 0; i < 5; ++i) p1[i] = 'x';
  for (int i = 0; i < 2; ++i) q8[i] = -1;
  for (int i = 0; i < 7; ++i) EXPECT_EQ(p8[i], 0x1111111111111111);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(p4[i], 0x22222222u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(p1[i], 'x');
}

TEST(Arena, SteadyStateNeverGrows) {
  arena a;
  {
    const arena::scope s(a);
    (void)a.alloc_array<std::int64_t>(10000);
    (void)a.alloc_array<char>(300);
  }
  const std::size_t blocks = a.block_count();
  const std::size_t bytes = a.capacity();
  // Replaying the same (or a smaller) allocation pattern reuses the blocks.
  for (int round = 0; round < 50; ++round) {
    const arena::scope s(a);
    (void)a.alloc_array<std::int64_t>(10000);
    (void)a.alloc_array<char>(100 + round);
    EXPECT_EQ(a.block_count(), blocks) << "round " << round;
    EXPECT_EQ(a.capacity(), bytes) << "round " << round;
  }
}

TEST(Arena, ScopesNestLifo) {
  arena a;
  const arena::mark start = a.save();
  {
    const arena::scope outer(a);
    auto* x = a.alloc_array<int>(4);
    x[0] = 42;
    {
      const arena::scope inner(a);
      (void)a.alloc_array<int>(1000);
    }
    // Inner rewind must not disturb outer allocations.
    auto* y = a.alloc_array<int>(4);
    EXPECT_EQ(x[0], 42);
    EXPECT_NE(x, y);
  }
  const arena::mark end = a.save();
  EXPECT_EQ(start.block, end.block);
  EXPECT_EQ(start.offset, end.offset);
}

TEST(Arena, ForThreadIsPerThread) {
  arena& mine = arena::for_thread();
  arena* other = nullptr;
  std::thread t([&] { other = &arena::for_thread(); });
  t.join();
  EXPECT_NE(&mine, other);
  // Same thread, same arena.
  EXPECT_EQ(&arena::for_thread(), &mine);
}

// -------------------------------------------------------------------- simd

// Restores the dispatched tier on destruction so tests compose.
struct tier_restore {
  simd::level prev = simd::active_level();
  ~tier_restore() { simd::force(prev); }
};

std::vector<simd::level> supported_tiers() {
  std::vector<simd::level> tiers = {simd::level::scalar};
  if (simd::max_supported() == simd::level::avx2) {
    tiers.push_back(simd::level::avx2);
  }
  return tiers;
}

TEST(Simd, ForceClampsToSupport) {
  const tier_restore restore;
  EXPECT_EQ(simd::force(simd::level::scalar), simd::level::scalar);
  const simd::level got = simd::force(simd::level::avx2);
  EXPECT_LE(static_cast<int>(got), static_cast<int>(simd::max_supported()));
  EXPECT_EQ(simd::active_level(), got);
}

TEST(Simd, SumAndConsumeMatchScalarOnAllLengths) {
  const tier_restore restore;
  rng gen(0x5EEDBEEFu);
  // Every length through 3 vector widths + tails, plus a long row.
  for (std::size_t n = 0; n <= 24; n += (n < 13 ? 1 : 3)) {
    std::vector<std::int64_t> vals(64);
    for (auto& v : vals) v = gen.uniform_int(0, 100);
    std::vector<std::uint32_t> idx(n);
    // Distinct, non-contiguous, unsorted-ish indices (stride walk).
    for (std::size_t j = 0; j < n; ++j) {
      idx[j] = static_cast<std::uint32_t>((j * 5 + 3) % 64);
    }
    const std::int64_t bound = gen.uniform_int(0, 50);

    simd::force(simd::level::scalar);
    const std::int64_t want_sum =
        simd::sum_min_indexed(vals.data(), idx.data(), n, bound);
    std::vector<std::int64_t> want_vals = vals;
    const std::int64_t want_used =
        simd::consume_min_indexed(want_vals.data(), idx.data(), n, bound);

    for (const simd::level tier : supported_tiers()) {
      simd::force(tier);
      EXPECT_EQ(simd::sum_min_indexed(vals.data(), idx.data(), n, bound),
                want_sum)
          << simd::to_string(tier) << " n=" << n;
      std::vector<std::int64_t> got_vals = vals;
      EXPECT_EQ(
          simd::consume_min_indexed(got_vals.data(), idx.data(), n, bound),
          want_used)
          << simd::to_string(tier) << " n=" << n;
      EXPECT_EQ(got_vals, want_vals) << simd::to_string(tier) << " n=" << n;
    }
  }
}

TEST(Simd, RatioArgminMatchesScalarWithSkipsAndHugeUtils) {
  const tier_restore restore;
  rng gen(0xA5A5A5u);
  const std::int64_t huge = (std::int64_t{1} << 52) + 7;  // beyond exact range
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(gen.uniform_int(0, 21));
    std::vector<double> price(n);
    std::vector<std::int64_t> util(n);
    std::vector<std::uint32_t> seller(n);
    std::vector<char> active(8, 1);
    active[3] = 0;
    for (std::size_t j = 0; j < n; ++j) {
      price[j] = gen.uniform_real(0.0, 40.0);
      util[j] = gen.uniform_int(0, 30);       // zeros → dead lanes
      if (gen.uniform_int(0, 9) == 0) util[j] = huge;
      seller[j] = static_cast<std::uint32_t>(gen.uniform_int(0, 7));
    }
    const std::uint32_t skip_index =
        gen.uniform_int(0, 1) ? static_cast<std::uint32_t>(
                                    gen.uniform_int(0, static_cast<int>(n) - 1))
                              : simd::kNoIndex;
    const std::uint32_t skip_seller =
        gen.uniform_int(0, 1) ? static_cast<std::uint32_t>(gen.uniform_int(0, 7))
                              : simd::kNoSeller;

    simd::force(simd::level::scalar);
    const simd::ratio_best want =
        simd::ratio_argmin(price.data(), util.data(), seller.data(),
                           active.data(), n, skip_index, skip_seller);
    for (const simd::level tier : supported_tiers()) {
      simd::force(tier);
      const simd::ratio_best got =
          simd::ratio_argmin(price.data(), util.data(), seller.data(),
                             active.data(), n, skip_index, skip_seller);
      EXPECT_EQ(got.index, want.index)
          << simd::to_string(tier) << " trial " << trial;
      EXPECT_EQ(got.ratio, want.ratio)
          << simd::to_string(tier) << " trial " << trial;
    }
  }
}

TEST(Simd, RatioArgminEmptyCandidateSet) {
  const tier_restore restore;
  const double price[] = {1.0, 2.0};
  const std::int64_t util[] = {0, 0};  // all dead
  const std::uint32_t seller[] = {0u, 1u};
  const char active[] = {1, 1};
  for (const simd::level tier : supported_tiers()) {
    simd::force(tier);
    const simd::ratio_best got =
        simd::ratio_argmin(price, util, seller, active, 2, simd::kNoIndex,
                           simd::kNoSeller);
    EXPECT_EQ(got.index, simd::kNoIndex) << simd::to_string(tier);
    EXPECT_EQ(got.ratio, std::numeric_limits<double>::infinity())
        << simd::to_string(tier);
  }
}

}  // namespace
}  // namespace ecrs
