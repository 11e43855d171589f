// ecrs_bench: one simrun::daemon workload, gated, timed and optionally
// traced. run.py builds and drives it; README.md lists the metrics.
//
//   ecrs_bench --workload=stream|market|flash [--seed=1] [--seconds=10]
//              [--trace=0|1] [--trace_out=PATH] [--corrupt_digest=1]
//
// Every run first passes the correctness gates (untimed): over 20 rounds a
// 1-thread and an N-thread daemon (N = min(4, nproc), the marketplace
// threads of every timed run) must digest every round identically, and a
// daemon resumed from the round-10 checkpoint must replay rounds 11-20 and
// reach the same final checkpoint bytes.
//
// --trace=0 times the public daemon API: setup_s is the median of 7 builds
// of the setup, the daemon and 10 warm-up rounds; then every
// daemon::run_rounds(1) is timed until --seconds have passed, the
// workload's quality horizon has run and the last diurnal cycle is
// complete, with a daemon::save into memory every 50 rounds. Every timed
// round is checked (IR, finite estimates, request conservation,
// unmet <= demanded, a warm observe -> ingest chain that allocates
// nothing).
//
// --trace=1 splits --seconds over three passes of the same rounds: the
// untraced daemon, then traced_daemon at N threads and at 1 thread. Each
// traced round's digest must equal the daemon's; the N-thread pass gives
// the per-layer metrics and the 1-thread pass the parallel speed-ups.
//
// --corrupt_digest=1 flips one bit of a compared digest (the thread gate's
// with --trace=0, the first traced round's with --trace=1), so the run must
// exit nonzero; it tests the gates themselves.
//
// Prints one JSON object on stdout. Any failed gate exits 1 with the
// reason on stderr and prints no result.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/checkpoint.h"
#include "common/flags.h"
#include "common/simd.h"
#include "simrun/daemon.h"
#include "traced_daemon.h"
#include "workloads.h"

namespace {

// Every operator new in the process bumps it; reads around a region give
// that region's allocation count.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using ecrs::simrun::daemon;
using ecrs_bench::phase;
using clock_type = std::chrono::steady_clock;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

constexpr std::uint64_t kGateRounds = 20;
constexpr std::uint64_t kWarmupRounds = 10;
constexpr std::uint64_t kCheckpointEvery = 50;
constexpr int kSetups = 7;

struct options {
  ecrs_bench::workload_spec spec;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;
  std::string trace_out;
  bool corrupt_digest = false;
};

std::uint64_t allocations_now() {
  return g_allocations.load(std::memory_order_relaxed);
}

double ms_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(clock_type::time_point t) {
  return std::chrono::duration<double>(clock_type::now() - t).count();
}

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "ecrs_bench: gate failed: %s\n", why.c_str());
  std::exit(1);
}

unsigned usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::vector<std::uint8_t> save_bytes(const daemon& d) {
  ecrs::checkpoint_writer w;
  d.save(w);
  return {w.payload().begin(), w.payload().end()};
}

// What the daemon's round callback hands out, kept for checks made after
// the round's timer has stopped (the referenced buffers are the daemon's
// and stay valid until its next round).
struct last_round {
  const ecrs::market::marketplace_round* out = nullptr;
  std::span<const double> estimates;

  void attach(daemon& d) {
    d.set_round_callback([this](std::uint64_t,
                                const ecrs::market::marketplace_round& o,
                                std::span<const double> e) {
      out = &o;
      estimates = e;
    });
  }
  [[nodiscard]] std::uint64_t digest(const daemon& d,
                                     ecrs::checkpoint_writer& buf) const {
    return ecrs_bench::round_digest(*out, estimates, d.last_grants(), buf);
  }
};

std::vector<std::uint64_t> run_digests(daemon& d, std::uint64_t rounds) {
  last_round last;
  last.attach(d);
  ecrs::checkpoint_writer digest_buf;
  std::vector<std::uint64_t> digests;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    d.run_rounds(1);
    digests.push_back(last.digest(d, digest_buf));
  }
  d.set_round_callback({});
  return digests;
}

void run_gates(const options& o) {
  const std::uint64_t mid = kGateRounds / 2;
  std::vector<std::uint64_t> serial;
  {
    daemon d(ecrs_bench::build_setup(o.spec, o.seed, 1));
    serial = run_digests(d, kGateRounds);
  }
  std::vector<std::uint64_t> parallel;
  std::vector<std::uint8_t> mid_bytes;
  std::vector<std::uint8_t> final_bytes;
  {
    daemon d(ecrs_bench::build_setup(o.spec, o.seed, o.threads));
    parallel = run_digests(d, mid);
    mid_bytes = save_bytes(d);
    const std::vector<std::uint64_t> rest =
        run_digests(d, kGateRounds - mid);
    parallel.insert(parallel.end(), rest.begin(), rest.end());
    final_bytes = save_bytes(d);
  }
  if (o.corrupt_digest && !o.trace) parallel.front() ^= 1;
  if (serial != parallel) {
    fail("1-thread and " + std::to_string(o.threads) +
         "-thread daemons digest differently");
  }
  daemon resumed(ecrs_bench::build_setup(o.spec, o.seed, o.threads));
  ecrs::checkpoint_reader reader(mid_bytes);
  resumed.load(reader);
  if (!reader.exhausted()) fail("checkpoint has trailing bytes");
  const std::vector<std::uint64_t> tail =
      run_digests(resumed, kGateRounds - mid);
  if (!std::equal(tail.begin(), tail.end(),
                  parallel.begin() + static_cast<std::ptrdiff_t>(mid)) ||
      save_bytes(resumed) != final_bytes) {
    fail("the daemon resumed from round " + std::to_string(mid) +
         " differs from the straight run");
  }
}

// Request and unit flows of one round, read after its checks passed.
struct round_flows {
  ecrs::auction::units granted = 0;  // Σ last_grants()
  std::uint64_t queued = 0;          // requests queued at the boundary
};

// Per-round invariants of the closed loop; a violation fails the run.
round_flows check_round(const daemon& d, const last_round& last) {
  constexpr double kTolerance = 1e-9;
  const ecrs::market::marketplace_round& out = *last.out;
  for (const auto& sh : out.shards) {
    const auto& oc = sh.outcome;
    for (std::size_t i = 0; i < oc.payments.size(); ++i) {
      if (oc.payments[i] < oc.true_prices[i] - kTolerance) {
        fail("local payment below its true price in round " +
             std::to_string(out.round));
      }
    }
  }
  for (const auto& award : out.spillover.awards) {
    if (award.payment < award.ask - kTolerance) {
      fail("spill payment below its ask in round " +
           std::to_string(out.round));
    }
  }
  for (const double e : last.estimates) {
    if (!std::isfinite(e)) fail("non-finite demand estimate");
  }
  round_flows flows;
  std::uint64_t received = 0;
  std::uint64_t served = 0;
  const ecrs::edge::cluster& c = d.cluster();
  for (std::uint32_t m = 0; m < c.microservice_count(); ++m) {
    received += c.service(m).total_received();
    served += c.service(m).total_served();
    flows.queued += c.service(m).queue_length();
  }
  if (received != served + flows.queued ||
      received != d.requests_delivered()) {
    fail("requests not conserved in round " + std::to_string(out.round));
  }
  for (const ecrs::auction::units g : d.last_grants()) flows.granted += g;
  // Demanded units are Σ grants + unmet, so unmet <= demanded iff Σ >= 0.
  if (flows.granted < 0) fail("unmet units exceed demanded units");
  return flows;
}

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// ---- --trace=0: end-to-end metrics ----------------------------------------

std::uint64_t measure(const options& o, std::vector<metric>& out) {
  std::vector<double> setup_s;
  std::unique_ptr<daemon> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    const clock_type::time_point begin = clock_type::now();
    auto fresh = std::make_unique<daemon>(
        ecrs_bench::build_setup(o.spec, o.seed, o.threads));
    fresh->run_rounds(kWarmupRounds);
    setup_s.push_back(seconds_since(begin));
    d = std::move(fresh);
  }

  last_round last;
  last.attach(*d);
  std::uint64_t chain_begin = 0;
  std::uint64_t chain_max = 0;
  d->set_chain_probe([&](bool entering) {
    const std::uint64_t now = allocations_now();
    if (entering) {
      chain_begin = now;
    } else {
      chain_max = std::max(chain_max, now - chain_begin);
    }
  });

  // Quality totals over the first quality_rounds timed rounds.
  double social_cost = 0.0;
  double payment = 0.0;
  ecrs::auction::units unmet = 0;
  ecrs::auction::units granted = 0;
  double queued = 0.0;
  const std::uint64_t delivered_before = d->requests_delivered();
  std::uint64_t delivered = 0;

  std::vector<double> round_ms;
  std::vector<double> checkpoint_ms;
  round_ms.reserve(1 << 14);
  ecrs::checkpoint_writer ckpt;
  double busy_ms = 0.0;
  std::uint64_t timed = 0;
  // The horizon ends on a whole diurnal cycle, so every run samples the
  // load curve evenly whatever its length.
  const std::uint64_t cycle =
      std::max<std::uint64_t>(1, d->config().scenario.diurnal_period);
  const clock_type::time_point loop_begin = clock_type::now();
  while (timed < o.spec.quality_rounds || timed % cycle != 0 ||
         seconds_since(loop_begin) < o.seconds) {
    const clock_type::time_point t0 = clock_type::now();
    d->run_rounds(1);
    const clock_type::time_point t1 = clock_type::now();
    round_ms.push_back(ms_between(t0, t1));
    busy_ms += round_ms.back();
    ++timed;
    if (chain_max != 0) {
      fail("the warm observe -> ingest chain allocated " +
           std::to_string(chain_max) + " times");
    }
    const round_flows flows = check_round(*d, last);
    if (timed <= o.spec.quality_rounds) {
      social_cost += last.out->social_cost;
      payment += last.out->total_payment;
      unmet += last.out->unmet_units;
      granted += flows.granted;
      queued += static_cast<double>(flows.queued);
      delivered = d->requests_delivered() - delivered_before;
    }
    if (timed % kCheckpointEvery == 0) {
      ckpt.clear();
      const clock_type::time_point c0 = clock_type::now();
      d->save(ckpt);
      checkpoint_ms.push_back(ms_between(c0, clock_type::now()));
      busy_ms += checkpoint_ms.back();
    }
  }

  const double demanded = static_cast<double>(granted + unmet);
  out.push_back({"setup_s", percentile(setup_s, 0.5), "s"});
  out.push_back({"round_ms_p50", percentile(round_ms, 0.5), "ms"});
  out.push_back({"round_ms_p99", percentile(round_ms, 0.99), "ms"});
  out.push_back(
      {"rounds_per_s", static_cast<double>(timed) / (busy_ms / 1e3), "1/s"});
  out.push_back({"checkpoint_ms_p50", percentile(checkpoint_ms, 0.5), "ms"});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  out.push_back({"served_frac", static_cast<double>(granted) / demanded,
                 "ratio"});
  out.push_back({"overpayment", payment / social_cost, "ratio"});
  out.push_back(
      {"cost_per_unit", social_cost / static_cast<double>(granted), "1/unit"});
  out.push_back(
      {"backlog_frac", queued / static_cast<double>(delivered), "ratio"});
  return timed;
}

// ---- --trace=1: per-layer metrics -----------------------------------------

struct traced_pass {
  ecrs_bench::span_buffer spans;
  // Per-phase span durations (ms) of the warm rounds, indexed by phase.
  std::vector<std::vector<double>> phase_ms;
};

struct layer_counters {
  double events = 0;
  double winners = 0;
  double spill_requests = 0;
  double spill_awards = 0;
  double spill_requested = 0;
  double spill_granted = 0;
  std::uint64_t backlog_max = 0;
  std::uint64_t alloc_warm_max = 0;
  std::uint64_t shard_rounds = 0;
  std::uint64_t warm_shard_rounds = 0;
  std::uint64_t checkpoint_bytes = 0;
};

traced_pass run_traced(const options& o, std::size_t threads,
                       const std::vector<std::uint64_t>& digests,
                       const std::vector<std::uint64_t>& checkpoint_digests,
                       clock_type::time_point epoch, layer_counters* counters) {
  const std::uint64_t rounds = digests.size();
  traced_pass pass{
      ecrs_bench::span_buffer(
          rounds * ecrs_bench::kSpansPerRound + rounds / kCheckpointEvery + 1,
          epoch),
      {}};
  ecrs_bench::traced_daemon td(
      ecrs_bench::build_setup(o.spec, o.seed, threads), pass.spans);
  ecrs::checkpoint_writer digest_buf;
  ecrs::checkpoint_writer ckpt;
  for (std::uint64_t i = 1; i <= rounds; ++i) {
    const std::uint64_t events_before = td.executed_events();
    const std::uint64_t allocs_before = allocations_now();
    td.run_round();
    const std::uint64_t allocs = allocations_now() - allocs_before;
    std::uint64_t digest = ecrs_bench::round_digest(
        td.last_round(), td.estimates(), td.grants(), digest_buf);
    if (o.corrupt_digest && i == 1) digest ^= 1;
    if (digest != digests[i - 1]) {
      fail("traced round " + std::to_string(i) + " at " +
           std::to_string(threads) +
           " threads digests differently from daemon::run_rounds");
    }
    if (i % kCheckpointEvery == 0) {
      ckpt.clear();
      td.save(ckpt);
      if (ecrs::fnv1a64(ckpt.payload()) !=
          checkpoint_digests[i / kCheckpointEvery - 1]) {
        fail("traced checkpoint at round " + std::to_string(i) +
             " differs from daemon::save");
      }
    }
    if (counters == nullptr || i <= kWarmupRounds) continue;
    layer_counters& c = *counters;
    const ecrs::market::marketplace_round& out = td.last_round();
    c.events += static_cast<double>(td.executed_events() - events_before);
    for (const auto& sh : out.shards) {
      c.winners += static_cast<double>(sh.outcome.winner_bids.size());
    }
    c.spill_requests += static_cast<double>(out.spillover.regions.size());
    c.spill_awards += static_cast<double>(out.spillover.awards.size());
    for (const auto& rs : out.spillover.regions) {
      c.spill_requested += static_cast<double>(rs.requested);
      c.spill_granted += static_cast<double>(rs.granted);
    }
    c.backlog_max = std::max(c.backlog_max, td.backlog());
    c.alloc_warm_max = std::max(c.alloc_warm_max, allocs);
    c.checkpoint_bytes = ckpt.bytes_written();
  }
  if (counters != nullptr) {
    const ecrs::market::marketplace& m = td.market();
    for (std::uint32_t r = 0; r < m.regions(); ++r) {
      counters->warm_shard_rounds += m.region(r).session().warm_rounds();
    }
    counters->shard_rounds = std::uint64_t{m.regions()} * rounds;
  }
  if (pass.spans.dropped() != 0) fail("the span buffer overflowed");

  pass.phase_ms.resize(ecrs_bench::kPhaseCount);
  for (const ecrs_bench::span& s : pass.spans.spans()) {
    if (s.round <= kWarmupRounds) continue;
    pass.phase_ms[static_cast<std::size_t>(s.name)].push_back(
        static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return pass;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const traced_pass*>& passes,
                        const std::vector<std::size_t>& threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) fail("cannot write the trace to " + path);
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    std::fprintf(f,
                 "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                 "\"args\":{\"name\":\"traced daemon, %zu threads\"}}",
                 first ? "" : ",", p + 1, threads[p]);
    first = false;
    for (const ecrs_bench::span& s : passes[p]->spans.spans()) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"round\":%llu,"
                   "\"parent\":\"%s\"}}",
                   ecrs_bench::phase_name(s.name), p + 1,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.round),
                   s.parent == s.name ? "" : ecrs_bench::phase_name(s.parent));
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) fail("cannot write the trace to " + path);
}

std::uint64_t measure_traced(const options& o, std::vector<metric>& out) {
  const clock_type::time_point epoch = clock_type::now();
  // Untraced reference pass: the daemon's own digests and round times.
  std::vector<std::uint64_t> digests;
  std::vector<std::uint64_t> checkpoint_digests;
  std::vector<double> untraced_ms;
  {
    daemon d(ecrs_bench::build_setup(o.spec, o.seed, o.threads));
    last_round last;
    last.attach(d);
    ecrs::checkpoint_writer digest_buf;
    ecrs::checkpoint_writer ckpt;
    const clock_type::time_point begin = clock_type::now();
    while (digests.size() < 2 * kCheckpointEvery ||
           seconds_since(begin) < o.seconds / 3) {
      const clock_type::time_point t0 = clock_type::now();
      d.run_rounds(1);
      const clock_type::time_point t1 = clock_type::now();
      if (d.rounds_completed() > kWarmupRounds) {
        untraced_ms.push_back(ms_between(t0, t1));
      }
      digests.push_back(last.digest(d, digest_buf));
      if (d.rounds_completed() % kCheckpointEvery == 0) {
        ckpt.clear();
        d.save(ckpt);
        checkpoint_digests.push_back(ecrs::fnv1a64(ckpt.payload()));
      }
    }
  }

  layer_counters c;
  const traced_pass wide =
      run_traced(o, o.threads, digests, checkpoint_digests, epoch, &c);
  const traced_pass serial =
      run_traced(o, 1, digests, checkpoint_digests, epoch, nullptr);
  if (!o.trace_out.empty()) {
    write_chrome_trace(o.trace_out, {&wide, &serial}, {o.threads, 1});
  }

  const auto of = [](const traced_pass& p,
                     phase ph) -> const std::vector<double>& {
    return p.phase_ms[static_cast<std::size_t>(ph)];
  };
  const double round_mean = mean(of(wide, phase::round));
  double accounted = 0.0;
  for (const phase ph : {phase::scenario, phase::generate, phase::deliver,
                         phase::close, phase::observe, phase::estimate,
                         phase::ingest, phase::market, phase::apply}) {
    accounted += mean(of(wide, ph));
  }
  const double accounted_frac = accounted / round_mean;
  if (accounted_frac < 0.95) {
    fail("the traced phases account for only " +
         std::to_string(accounted_frac) + " of the round");
  }

  const auto timing = [&](phase ph) {
    const std::string name = ecrs_bench::phase_name(ph);
    out.push_back({name + ".mean_ms", mean(of(wide, ph)), "ms"});
    out.push_back({name + ".p99_ms", percentile(of(wide, ph), 0.99), "ms"});
  };
  const double warm_rounds =
      static_cast<double>(digests.size() - kWarmupRounds);
  timing(phase::generate);
  timing(phase::deliver);
  out.push_back({"des.events", c.events / warm_rounds, "count"});
  timing(phase::close);
  timing(phase::observe);
  timing(phase::estimate);
  timing(phase::ingest);
  timing(phase::market);
  timing(phase::shard);
  timing(phase::spill);
  // A share, not a time: the stage skips (and reads 0 for) its assembly on
  // rounds without spill requests, which is every round of some workloads.
  const double spill_mean = mean(of(wide, phase::spill));
  const double assembly_mean = mean(of(wide, phase::spill_assembly));
  out.push_back({"market.spill_assembly_frac",
                 spill_mean > 0 ? assembly_mean / spill_mean : 0.0, "ratio"});
  out.push_back({"market.shard_speedup",
                 mean(of(serial, phase::shard)) / mean(of(wide, phase::shard)),
                 "ratio"});
  out.push_back({"market.spill_speedup",
                 mean(of(serial, phase::spill)) / mean(of(wide, phase::spill)),
                 "ratio"});
  out.push_back({"market.winners", c.winners / warm_rounds, "count"});
  out.push_back(
      {"market.spill_requests", c.spill_requests / warm_rounds, "count"});
  out.push_back({"market.spill_awards", c.spill_awards / warm_rounds, "count"});
  out.push_back({"market.spill_grant_ratio",
                 c.spill_requested > 0 ? c.spill_granted / c.spill_requested
                                       : 0.0,
                 "ratio"});
  out.push_back({"market.warm_ratio",
                 static_cast<double>(c.warm_shard_rounds) /
                     static_cast<double>(c.shard_rounds),
                 "ratio"});
  timing(phase::scenario);
  timing(phase::apply);
  out.push_back({"simrun.checkpoint.mean_ms",
                 mean(of(wide, phase::checkpoint)), "ms"});
  out.push_back({"simrun.checkpoint.bytes",
                 static_cast<double>(c.checkpoint_bytes), "bytes"});
  out.push_back(
      {"edge.backlog_max", static_cast<double>(c.backlog_max), "count"});
  out.push_back({"alloc.round_warm_max", static_cast<double>(c.alloc_warm_max),
                 "count"});
  out.push_back({"trace.round.mean_ms", round_mean, "ms"});
  out.push_back({"trace.accounted_frac", accounted_frac, "ratio"});
  out.push_back(
      {"trace.overhead_frac", round_mean / mean(untraced_ms) - 1.0, "ratio"});
  return 3 * digests.size();
}

options parse(int argc, char** argv) {
  const ecrs::flags f(argc, argv);
  options o;
  o.spec = ecrs_bench::find_workload(f.get_string("workload", ""));
  o.seed = static_cast<std::uint64_t>(f.get_int("seed", 1));
  o.seconds = f.get_double("seconds", 10.0);
  o.trace = f.get_int("trace", 0) != 0;
  o.threads = std::min(4u, usable_cpus());
  o.trace_out = f.get_string("trace_out", "");
  o.corrupt_digest = f.get_int("corrupt_digest", 0) != 0;
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecrs_bench: %s\n", e.what());
    return 2;
  }
  std::vector<metric> metrics;
  std::uint64_t attempted = 0;
  try {
    run_gates(o);
    attempted = o.trace ? measure_traced(o, metrics) : measure(o, metrics);
  } catch (const std::exception& e) {
    fail(e.what());
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ",
              o.spec.name.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0);
  std::printf("\"correct\": true, \"attempted\": %llu, \"failed\": 0, ",
              static_cast<unsigned long long>(attempted));
  std::printf(
      "\"host\": {\"nproc\": %u, \"compiler\": \"%s\", \"simd\": \"%s\", "
      "\"threads\": %zu}, ",
      usable_cpus(), kCompiler,
      ecrs::simd::to_string(ecrs::simd::active_level()), o.threads);
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
