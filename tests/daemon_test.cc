// Tests for the sustained closed-loop marketplace daemon (simrun/daemon.h):
// the per-round observe -> estimate -> ingest -> auction -> allocate cycle,
// scenario programs (diurnal load, flash crowds, seller churn) and the
// checkpoint/restore contract — a daemon restored at ANY round boundary
// replays the remaining horizon byte-identically to the straight-through
// run, at any marketplace thread count — and the steady-state allocation
// gate: warm rounds run the observe -> estimate -> ingest chain without a
// single heap allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "auction/instance_gen.h"
#include "common/check.h"
#include "common/checkpoint.h"
#include "harness/internal.h"
#include "simrun/daemon.h"

namespace {

// Process-wide allocation counter: every operator new in this test binary
// bumps it. Reads around the daemon's chain probe count the allocations of
// one observe -> estimate -> ingest pass.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// The replacements stay out of line: inlined into a caller, they would show
// the optimizer malloc() on one side and free() on the other of a pair it
// otherwise knows as operator new / operator delete, and gcc would report
// the pair as mismatched (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ecrs::simrun {
namespace {

constexpr std::uint32_t kRegions = 4;
constexpr std::uint32_t kSellers = 3;
constexpr std::uint32_t kDemanders = 2;

daemon_config make_config(double round_duration = 50.0) {
  daemon_config cfg;
  cfg.round_duration = round_duration;
  return cfg;
}

daemon_setup make_setup(std::uint64_t seed,
                        daemon_config dcfg = make_config()) {
  auction::online_config stage;
  stage.stage = harness::internal::paper_stage(kSellers, kDemanders, 2);
  stage.rounds = 1;  // only the standing (round 1) bid sets are used
  auction::regional_config regional;
  regional.regions = kRegions;
  rng gen = harness::internal::point_rng(seed, 13, 0, 0);
  auction::regional_online_instance input =
      auction::random_regional_online_instance(stage, regional, gen);

  daemon_setup s;
  s.topology = edge::topology::ring(kRegions);
  s.standing.regions.reserve(kRegions);
  s.sellers.reserve(kRegions);
  for (auto& region : input.regions) {
    s.standing.regions.push_back(region.rounds.front());
    for (auction::seller_profile& p : region.sellers) {
      // The single-round generator leaves every seller the window [1,1]
      // and a one-round budget; widen both so the market stays live over
      // a long daemon horizon.
      p.capacity *= 10000;
      p.t_arrive = 1;
      p.t_depart = 0x7fffffffu;
    }
    s.sellers.push_back(std::move(region.sellers));
  }
  s.workload.users = 6;
  s.workload.microservices = kRegions * kDemanders;
  s.workload.regions = kRegions;
  s.workload.seed = seed;
  s.cluster.clouds = kRegions;
  s.cluster.seed = seed ^ 0xc0ffeeULL;
  s.estimator = demand::make_default_config();
  s.estimator.round_duration = dcfg.round_duration;
  s.ingest.regions = kRegions;
  s.ingest.microservices = kRegions * kDemanders;
  s.ingest.unit_demand = 4.0;
  s.ingest.max_requirement = stage.stage.requirement_hi;
  s.ingest.supply_margin = stage.stage.supply_margin;
  s.market.threads = 1;
  s.market.shard.session.stage.payment_threads = 1;
  s.market.spillover.stage.payment_threads = 1;
  s.config = dcfg;
  return s;
}

// Exact byte-level digest of everything a daemon round decided: the full
// marketplace outcome plus the round's estimates and grants.
void digest_round(const market::marketplace_round& round,
                  std::span<const double> estimates,
                  std::span<const auction::units> grants,
                  std::vector<std::uint64_t>& out) {
  const auto push_double = [&](double v) {
    out.push_back(std::bit_cast<std::uint64_t>(v));
  };
  out.push_back(round.round);
  for (const auto& shard : round.shards) {
    out.push_back(shard.outcome.winner_bids.size());
    for (const std::size_t w : shard.outcome.winner_bids) out.push_back(w);
    for (const double p : shard.outcome.payments) push_double(p);
    push_double(shard.outcome.social_cost);
    out.push_back(static_cast<std::uint64_t>(shard.deficit));
  }
  out.push_back(round.spillover.awards.size());
  for (const auto& award : round.spillover.awards) {
    out.push_back(award.demand_region);
    out.push_back(award.seller);
    out.push_back(static_cast<std::uint64_t>(award.amount));
    push_double(award.payment);
  }
  push_double(round.social_cost);
  push_double(round.total_payment);
  for (const double e : estimates) push_double(e);
  for (const auction::units g : grants) {
    out.push_back(static_cast<std::uint64_t>(g));
  }
}

std::vector<std::uint8_t> save_bytes(const daemon& d) {
  ecrs::checkpoint_writer w;
  d.save(w);
  const std::span<const std::uint8_t> p = w.payload();
  return {p.begin(), p.end()};
}

// Attach a digest-per-round callback; digests land in `rounds[round - 1]`.
void record_rounds(daemon& d, std::vector<std::vector<std::uint64_t>>& rounds) {
  d.set_round_callback([&rounds, &d](std::uint64_t round,
                                     const market::marketplace_round& out,
                                     std::span<const double> estimates) {
    ASSERT_LE(round, rounds.size());
    digest_round(out, estimates, d.last_grants(), rounds[round - 1]);
  });
}

TEST(Daemon, ClosedLoopRunsAndFeedsGrantsBackIntoAllocations) {
  daemon d(make_setup(1));
  std::uint64_t callbacks = 0;
  d.set_round_callback([&](std::uint64_t round,
                           const market::marketplace_round& out,
                           std::span<const double> estimates) {
    ++callbacks;
    EXPECT_EQ(round, callbacks);
    EXPECT_EQ(out.shards.size(), kRegions);
    EXPECT_EQ(estimates.size(), kRegions * kDemanders);
  });
  d.run_rounds(5);

  EXPECT_EQ(d.rounds_completed(), 5u);
  EXPECT_EQ(callbacks, 5u);
  EXPECT_GT(d.requests_delivered(), 0u);
  EXPECT_EQ(d.estimator().rounds_observed(), 5u);
  EXPECT_EQ(d.market().rounds_run(), 5u);

  // The loop is closed: every service runs the next round at exactly
  // base + per_unit * granted, and at least one grant is positive.
  const std::span<const auction::units> grants = d.last_grants();
  ASSERT_EQ(grants.size(), kRegions * kDemanders);
  auction::units total = 0;
  for (std::uint32_t m = 0; m < grants.size(); ++m) {
    const auto g = static_cast<double>(std::max<auction::units>(0, grants[m]));
    EXPECT_DOUBLE_EQ(d.cluster().service(m).allocation(),
                     d.config().base_allocation +
                         d.config().resources_per_unit * g);
    total += std::max<auction::units>(0, grants[m]);
  }
  EXPECT_GT(total, 0);
}

TEST(Daemon, ByteIdenticalAcrossMarketplaceThreadCounts) {
  const std::uint64_t horizon = 6;
  std::vector<std::vector<std::uint64_t>> serial(horizon);
  std::vector<std::vector<std::uint64_t>> parallel(horizon);

  daemon a(make_setup(2));
  record_rounds(a, serial);
  a.run_rounds(horizon);

  daemon_setup wide = make_setup(2);
  wide.market.threads = 4;
  wide.ingest.threads = 4;
  daemon b(std::move(wide));
  record_rounds(b, parallel);
  b.run_rounds(horizon);

  EXPECT_EQ(a.requests_delivered(), b.requests_delivered());
  for (std::uint64_t r = 0; r < horizon; ++r) {
    EXPECT_EQ(serial[r], parallel[r]) << "round " << r + 1;
  }
  EXPECT_EQ(save_bytes(a), save_bytes(b));
}

TEST(Daemon, WarmObserveToIngestChainAllocatesNothing) {
  daemon_setup setup = make_setup(10);
  // Serial quantize and payments: the thread pool's task dispatch
  // allocates, so the allocation-free contract is stated for this setup.
  setup.ingest.threads = 1;
  setup.market.shard.session.stage.payment_threads = 1;
  daemon d(std::move(setup));
  const std::uint64_t rounds = 8;
  std::vector<std::uint64_t> chain_allocations;
  chain_allocations.reserve(rounds);
  std::uint64_t begin = 0;
  d.set_chain_probe([&](bool entering) {
    const std::uint64_t now = g_allocations.load(std::memory_order_relaxed);
    if (entering) {
      begin = now;
    } else {
      chain_allocations.push_back(now - begin);
    }
  });
  d.run_rounds(rounds);
  ASSERT_EQ(chain_allocations.size(), rounds);
  EXPECT_GT(chain_allocations.front(), 0u) << "the counter never fired";
  for (std::uint64_t r = 1; r < rounds; ++r) {
    EXPECT_EQ(chain_allocations[r], 0u) << "warm round " << r + 1;
  }
}

TEST(Daemon, CheckpointResumeByteIdenticalAtEveryRoundBoundary) {
  const std::uint64_t horizon = 6;
  daemon straight(make_setup(3));
  std::vector<std::vector<std::uint64_t>> expected(horizon);
  record_rounds(straight, expected);
  straight.run_rounds(horizon);
  const std::vector<std::uint8_t> final_state = save_bytes(straight);

  for (std::uint64_t boundary = 0; boundary < horizon; ++boundary) {
    SCOPED_TRACE(testing::Message() << "boundary after round " << boundary);
    daemon first(make_setup(3));
    first.run_rounds(boundary);
    const std::string path = testing::TempDir() + "daemon_ckpt_" +
                             std::to_string(boundary) + ".bin";
    first.save_file(path);

    daemon resumed(make_setup(3));
    resumed.load_file(path);
    EXPECT_EQ(resumed.rounds_completed(), boundary);
    std::vector<std::vector<std::uint64_t>> replay(horizon);
    record_rounds(resumed, replay);
    resumed.run_rounds(horizon - boundary);

    EXPECT_EQ(resumed.rounds_completed(), horizon);
    EXPECT_EQ(resumed.requests_delivered(), straight.requests_delivered());
    for (std::uint64_t r = boundary; r < horizon; ++r) {
      EXPECT_EQ(replay[r], expected[r]) << "round " << r + 1;
    }
    EXPECT_EQ(save_bytes(resumed), final_state);
  }
}

// FNV-1a over every round's digest words and the final checkpoint bytes of
// a `rounds`-round run, with enough users that each round's batch carries
// hundreds of arrivals and their delivery order reaches the queues' sums.
std::uint64_t golden_hash(daemon_setup setup, std::uint64_t rounds) {
  setup.workload.users = 60;
  daemon d(std::move(setup));
  std::vector<std::vector<std::uint64_t>> digests(rounds);
  record_rounds(d, digests);
  d.run_rounds(rounds);
  ecrs::checkpoint_writer w;
  for (const std::vector<std::uint64_t>& round : digests) {
    for (const std::uint64_t word : round) w.u64(word);
  }
  for (const std::uint8_t byte : save_bytes(d)) w.u8(byte);
  return ecrs::fnv1a64(w.payload());
}

// Pins the closed loop to fixed bytes: a plain setup, and one with flash
// crowds and seller churn, so that the generator's arrival order, delivery,
// the queues, the estimator, the auction and the checkpoint layout all have
// to reproduce exactly what they computed when the values were recorded.
TEST(Daemon, MatchesGoldenDigest) {
  constexpr std::uint64_t kPlainGolden = 0x360b5e56a5aaf568ULL;
  constexpr std::uint64_t kScenarioGolden = 0x21c536a4a02373fcULL;
  EXPECT_EQ(golden_hash(make_setup(11), 12), kPlainGolden);

  daemon_config cfg = make_config();
  cfg.scenario.flash_every = 4;
  cfg.scenario.flash_duration = 2;
  cfg.scenario.flash_factor = 4.0;
  cfg.scenario.churn_every = 3;
  cfg.scenario.churn_downtime = 4;
  EXPECT_EQ(golden_hash(make_setup(12, cfg), 12), kScenarioGolden);
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Daemon, CheckpointFileRejectsCorruption) {
  daemon d(make_setup(4));
  d.run_rounds(2);
  const std::string path = testing::TempDir() + "daemon_ckpt_corrupt.bin";
  d.save_file(path);
  const std::vector<char> good = read_file(path);
  ASSERT_GT(good.size(), 40u);  // header + payload

  const auto expect_rejected = [&](const std::vector<char>& bytes) {
    const std::string bad_path = testing::TempDir() + "daemon_ckpt_bad.bin";
    write_file(bad_path, bytes);
    daemon fresh(make_setup(4));
    EXPECT_THROW(fresh.load_file(bad_path), check_error);
  };

  {  // wrong magic
    std::vector<char> bytes = good;
    bytes[0] ^= 0x01;
    expect_rejected(bytes);
  }
  {  // version skew (version is the u32 after the u64 magic)
    std::vector<char> bytes = good;
    bytes[8] ^= 0x01;
    expect_rejected(bytes);
  }
  {  // flipped payload byte (checksum mismatch; header is 40 bytes)
    std::vector<char> bytes = good;
    bytes[44] ^= 0x01;
    expect_rejected(bytes);
  }
  {  // truncated payload
    std::vector<char> bytes = good;
    bytes.resize(bytes.size() - 1);
    expect_rejected(bytes);
  }
  {  // trailing garbage
    std::vector<char> bytes = good;
    bytes.push_back(0);
    expect_rejected(bytes);
  }
  {  // a boundary clock (payload bytes 16-23, the end of round 2) that
     // disagrees with the round count, under a valid checksum
    std::vector<std::uint8_t> payload = save_bytes(d);
    payload[16] ^= 0x01;
    const std::string bad_path = testing::TempDir() + "daemon_ckpt_clock.bin";
    ecrs::save_checkpoint_file(bad_path, d.config_hash(), payload);
    daemon fresh(make_setup(4));
    EXPECT_THROW(fresh.load_file(bad_path), check_error);
  }
  {  // checkpoint from a differently-configured daemon (config-hash gate)
    daemon other(make_setup(5));
    other.run_rounds(2);
    const std::string other_path =
        testing::TempDir() + "daemon_ckpt_other.bin";
    other.save_file(other_path);
    daemon fresh(make_setup(4));
    EXPECT_THROW(fresh.load_file(other_path), check_error);
  }

  // The pristine file still restores.
  daemon fresh(make_setup(4));
  fresh.load_file(path);
  EXPECT_EQ(fresh.rounds_completed(), 2u);
}

TEST(Daemon, LoadRequiresFreshDaemon) {
  daemon d(make_setup(6));
  d.run_rounds(1);
  const std::string path = testing::TempDir() + "daemon_ckpt_used.bin";
  d.save_file(path);
  EXPECT_THROW(d.load_file(path), check_error);  // already ran a round
}

TEST(Daemon, SellerChurnFailsAndRecoversDeterministically) {
  daemon_config cfg = make_config();
  cfg.scenario.churn_every = 2;
  cfg.scenario.churn_downtime = 4;
  daemon d(make_setup(7, cfg));

  const auto active = [&](std::uint32_t region, std::uint32_t seller) {
    return d.market().region(region).session().seller_active(seller);
  };

  d.run_rounds(2);  // ordinal 1 fails: region 1, seller 0
  EXPECT_FALSE(active(1, 0));
  EXPECT_TRUE(active(0, 0));
  d.run_rounds(2);  // ordinal 2 fails: region 2, seller 0
  EXPECT_FALSE(active(1, 0));
  EXPECT_FALSE(active(2, 0));
  d.run_rounds(2);  // round 6: ordinal 1 recovers, ordinal 3 fails
  EXPECT_TRUE(active(1, 0));
  EXPECT_FALSE(active(2, 0));
  EXPECT_FALSE(active(3, 0));

  // Checkpoint mid-outage: the restored daemon carries the activity flags
  // without replaying the churn schedule.
  const std::string path = testing::TempDir() + "daemon_ckpt_churn.bin";
  d.save_file(path);
  daemon resumed(make_setup(7, cfg));
  EXPECT_TRUE(resumed.market().region(2).session().seller_active(0));
  resumed.load_file(path);
  EXPECT_FALSE(resumed.market().region(2).session().seller_active(0));
  EXPECT_TRUE(resumed.market().region(1).session().seller_active(0));
}

TEST(Daemon, ScenarioRateScaleIsPureAndBounded) {
  const scenario_config off;
  for (std::uint64_t r = 1; r <= 10; ++r) {
    EXPECT_DOUBLE_EQ(scenario_rate_scale(off, r), 1.0);
  }

  scenario_config flash;
  flash.flash_every = 5;
  flash.flash_duration = 2;
  flash.flash_factor = 3.0;
  EXPECT_DOUBLE_EQ(scenario_rate_scale(flash, 1), 3.0);
  EXPECT_DOUBLE_EQ(scenario_rate_scale(flash, 2), 3.0);
  EXPECT_DOUBLE_EQ(scenario_rate_scale(flash, 3), 1.0);
  EXPECT_DOUBLE_EQ(scenario_rate_scale(flash, 5), 1.0);
  EXPECT_DOUBLE_EQ(scenario_rate_scale(flash, 6), 3.0);

  scenario_config diurnal;
  diurnal.diurnal_amplitude = 0.5;
  diurnal.diurnal_period = 4;
  EXPECT_DOUBLE_EQ(scenario_rate_scale(diurnal, 1), 1.0);  // phase 0
  EXPECT_DOUBLE_EQ(scenario_rate_scale(diurnal, 2), 1.5);  // peak
  EXPECT_NEAR(scenario_rate_scale(diurnal, 4), 0.5, 1e-12);  // trough
  EXPECT_DOUBLE_EQ(scenario_rate_scale(diurnal, 5),
                   scenario_rate_scale(diurnal, 1));  // periodic

  // Never negative, even with a deep trough and a zero flash factor.
  scenario_config extreme = diurnal;
  extreme.diurnal_amplitude = 0.999;
  extreme.flash_every = 1;
  extreme.flash_factor = 0.0;
  for (std::uint64_t r = 1; r <= 8; ++r) {
    EXPECT_DOUBLE_EQ(scenario_rate_scale(extreme, r), 0.0);
  }
}

TEST(Daemon, FlashCrowdsScaleArrivalsAndZeroFactorSilencesThem) {
  daemon baseline(make_setup(8));
  baseline.run_rounds(4);
  ASSERT_GT(baseline.requests_delivered(), 0u);

  daemon_config surge_cfg = make_config();
  surge_cfg.scenario.flash_every = 1;
  surge_cfg.scenario.flash_duration = 1;
  surge_cfg.scenario.flash_factor = 3.0;
  daemon surge(make_setup(8, surge_cfg));
  surge.run_rounds(4);
  EXPECT_GT(surge.requests_delivered(), baseline.requests_delivered());

  daemon_config quiet_cfg = surge_cfg;
  quiet_cfg.scenario.flash_factor = 0.0;
  daemon quiet(make_setup(8, quiet_cfg));
  quiet.run_rounds(4);
  EXPECT_EQ(quiet.requests_delivered(), 0u);
  EXPECT_EQ(quiet.rounds_completed(), 4u);  // empty rounds still close
}

TEST(Daemon, RejectsInconsistentSetups) {
  {
    daemon_setup s = make_setup(9);
    s.estimator.round_duration = s.config.round_duration + 1.0;
    EXPECT_THROW(daemon{std::move(s)}, check_error);
  }
  {
    daemon_setup s = make_setup(9);
    s.workload.microservices += 1;
    EXPECT_THROW(daemon{std::move(s)}, check_error);
  }
  {
    daemon_setup s = make_setup(9);
    s.config.scenario.diurnal_amplitude = 1.5;
    EXPECT_THROW(daemon{std::move(s)}, check_error);
  }
  {
    daemon_setup s = make_setup(9);
    s.config.round_duration = 0.0;
    s.estimator.round_duration = 0.0;
    EXPECT_THROW(daemon{std::move(s)}, check_error);
  }
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    daemon_setup s = make_setup(9);
    s.config.round_duration = bad;
    s.estimator.round_duration = bad;
    EXPECT_THROW(daemon{std::move(s)}, check_error);
  }
  // +inf passes a plain `>= 0`; each field must be rejected by name at
  // construction. No round is ever run at an infinite or huge rate scale.
  const auto expect_rejected = [](daemon_setup s, const std::string& field) {
    try {
      daemon d(std::move(s));
      ADD_FAILURE() << field << " was accepted";
    } catch (const check_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  daemon_setup s = make_setup(9);
  s.config.resources_per_unit = inf;
  expect_rejected(std::move(s), "resources_per_unit");
  s = make_setup(9);
  s.config.base_allocation = inf;
  expect_rejected(std::move(s), "base_allocation");
  s = make_setup(9);
  s.config.scenario.flash_factor = inf;
  expect_rejected(std::move(s), "flash_factor");
  // Finite, but a peak round would expect more arrivals than a batch can
  // index (and overflow the reservation's size_t cast).
  s = make_setup(9);
  s.config.scenario.flash_every = 4;
  s.config.scenario.flash_factor = 1e300;
  expect_rejected(std::move(s), "flash_factor");
}

// Byte offsets of the payload's length fields, found by walking the layout
// daemon::save writes: the daemon's three words, the generator, the
// cluster (service count, then per service 101 bytes of state, a queue
// length and 45 bytes per queued request), the estimator (round count,
// slot count, 29 bytes per slot) and the marketplace (round, shard count,
// then per shard 20 bytes of session state, a seller count and 17 bytes
// per seller).
std::vector<std::size_t> length_fields(std::span<const std::uint8_t> payload) {
  ecrs::checkpoint_reader r(payload);
  std::vector<std::size_t> at;
  const auto skip = [&r](std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) static_cast<void>(r.u8());
  };
  const auto count = [&] {
    at.push_back(payload.size() - r.remaining());
    return r.size();
  };
  skip(24 + 48);
  const std::size_t services = count();
  for (std::size_t i = 0; i < services; ++i) {
    skip(101);
    skip(45 * count());
  }
  skip(8);
  skip(29 * count());
  skip(4);
  const std::size_t shards = count();
  for (std::size_t i = 0; i < shards; ++i) {
    skip(20);
    skip(17 * count());
  }
  EXPECT_TRUE(r.exhausted());
  return at;
}

// A checkpoint whose checksum is valid can still be wrong: a buggy writer
// or a hand-edited file re-sealed with a fresh header. Every such payload
// must be refused by load_file with check_error, or restore a daemon that
// keeps running (a later round may refuse its state with check_error, but
// no estimate it publishes is NaN or infinite). A crash, hang or sanitizer
// report fails the test.
TEST(DaemonCheckpoint, ResealedMutationsThrowOrResumeCleanly) {
  constexpr std::uint64_t kSeed = 21;
  daemon source(make_setup(kSeed));
  source.run_rounds(2);
  const std::vector<std::uint8_t> good = save_bytes(source);
  const std::vector<std::size_t> lengths = length_fields(good);
  ASSERT_EQ(lengths.size(), 1 + kRegions * kDemanders + 1 + 1 + kRegions);

  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases;
  for (const std::size_t at : lengths) {
    std::uint64_t n = 0;
    std::memcpy(&n, good.data() + at, sizeof n);
    // n - 1 is spelled so that n == 0 does not wrap (clang's integer
    // sanitizer reports unsigned wraparound too).
    for (const std::uint64_t v :
         {std::uint64_t{0}, n > 0 ? n - 1 : n, n + 1,
          std::numeric_limits<std::uint64_t>::max()}) {
      if (v == n) continue;
      std::vector<std::uint8_t> bytes = good;
      std::memcpy(bytes.data() + at, &v, sizeof v);
      cases.emplace_back("length at byte " + std::to_string(at) + " = " +
                             std::to_string(v),
                         std::move(bytes));
    }
  }
  rng gen(0x5eed);
  const auto draw = [&gen](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(gen.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  for (int i = 0; i < 400; ++i) {
    std::vector<std::uint8_t> bytes = good;
    const std::size_t bit = draw(0, 8 * bytes.size() - 1);
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    cases.emplace_back("flip bit " + std::to_string(bit), std::move(bytes));
  }
  for (int i = 0; i < 30; ++i) {
    std::vector<std::uint8_t> bytes = good;
    bytes.resize(draw(0, bytes.size() - 1));
    cases.emplace_back("truncate to " + std::to_string(bytes.size()),
                       std::move(bytes));
  }
  for (int i = 0; i < 30; ++i) {
    std::vector<std::uint8_t> bytes = good;
    const std::size_t extra = draw(1, 64);
    for (std::size_t b = 0; b < extra; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(draw(0, 255)));
    }
    cases.emplace_back("extend by " + std::to_string(extra),
                       std::move(bytes));
  }

  // Loads `bytes` re-sealed under a valid header; 0 when load_file refuses
  // them, 1 when a resumed round does, 2 when three rounds run.
  const std::string path = testing::TempDir() + "daemon_ckpt_fuzz.bin";
  const auto resume = [&](const std::vector<std::uint8_t>& bytes) {
    ecrs::save_checkpoint_file(path, source.config_hash(), bytes);
    daemon fresh(make_setup(kSeed));
    try {
      fresh.load_file(path);
    } catch (const check_error&) {
      return 0;
    }
    bool finite = true;
    fresh.set_round_callback(
        [&finite](std::uint64_t, const market::marketplace_round&,
                  std::span<const double> estimates) {
          for (const double e : estimates) finite = finite && std::isfinite(e);
        });
    try {
      fresh.run_rounds(3);
    } catch (const check_error&) {
      return 1;
    }
    EXPECT_TRUE(finite) << "a resumed daemon published a non-finite estimate";
    return 2;
  };
  ASSERT_EQ(resume(good), 2);
  std::size_t refused = 0;
  std::size_t resumed = 0;
  for (const auto& [what, bytes] : cases) {
    SCOPED_TRACE(what);
    try {
      const int outcome = resume(bytes);
      refused += outcome == 0 ? 1 : 0;
      resumed += outcome == 2 ? 1 : 0;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw something other than check_error: " << e.what();
    }
  }
  // Both outcomes occur: the mutations reach the loaders' checks and the
  // resumed rounds alike.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(resumed, 0u);
}

}  // namespace
}  // namespace ecrs::simrun
