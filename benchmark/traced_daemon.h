// A bench-side copy of simrun::daemon's round (src/simrun/daemon.cc) that
// times every layer from outside. It owns the same modules, built from the
// same daemon_setup, and calls their public functions in daemon.cc order;
// the only change is that the per-service close loop and the estimator's
// observe loop run one after the other instead of interleaved, which
// touches disjoint state and so computes the same thing. main.cc proves
// that per round: the digest of every traced round must equal the
// untraced daemon's.
//
// Until the daemon records its own per-round trace, a change to the
// daemon's glue code shows only in the end-to-end numbers: this copy runs
// the glue as it was when the copy was written.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "common/checkpoint.h"
#include "demand/estimator.h"
#include "des/simulator.h"
#include "edge/cluster.h"
#include "edge/topology.h"
#include "market/ingest.h"
#include "market/marketplace.h"
#include "simrun/daemon.h"
#include "workload/generator.h"

namespace ecrs_bench {

// One span per layer call; names follow the src/ modules.
enum class phase : std::uint8_t {
  round,
  scenario,        // simrun: rate scale + seller churn
  generate,        // workload::generator::round_into
  deliver,         // des::simulator::schedule_stream + run_until
  close,           // edge::microservice catch-up advance + end_round
  observe,         // demand::estimator::observe
  estimate,        // demand::estimator::estimates_into
  ingest,          // market::round_ingestor::add_demands + finalize
  market,          // market::marketplace::run_round
  shard,           //   its local-round fan-out (marketplace::last_timing)
  spill,           //   its spillover stage
  spill_assembly,  //     the stage's candidate assembly
  apply,           // simrun: grants -> next-round service rates
  checkpoint,      // the daemon::save layout
};
inline constexpr std::size_t kPhaseCount = 14;

[[nodiscard]] const char* phase_name(phase p);

// A span: the round it belongs to is the trace id; times are nanoseconds
// on steady_clock since the buffer's epoch.
struct span {
  std::uint64_t round = 0;
  phase name = phase::round;
  phase parent = phase::round;  // == name for a root span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Preallocated span storage: recording never allocates, and a full buffer
// drops spans and counts them rather than growing.
class span_buffer {
 public:
  using clock = std::chrono::steady_clock;

  span_buffer(std::size_t capacity, clock::time_point epoch);

  [[nodiscard]] std::int64_t ns(clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  void add(const span& s) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  [[nodiscard]] std::span<const span> spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<span> spans_;
  clock::time_point epoch_;
  std::uint64_t dropped_ = 0;
};

// Spans one traced round records: the root, its nine phases, and the three
// marketplace children.
inline constexpr std::size_t kSpansPerRound = 13;

class traced_daemon {
 public:
  traced_daemon(ecrs::simrun::daemon_setup setup, span_buffer& spans);
  traced_daemon(const traced_daemon&) = delete;
  traced_daemon& operator=(const traced_daemon&) = delete;

  // One round of the closed loop, with its spans recorded.
  void run_round();
  // daemon::save's byte layout, recorded as a checkpoint span.
  void save(ecrs::checkpoint_writer& w);

  [[nodiscard]] std::uint64_t rounds_completed() const { return completed_; }
  [[nodiscard]] const ecrs::market::marketplace_round& last_round() const {
    return market_out_;
  }
  [[nodiscard]] std::span<const double> estimates() const {
    return estimates_;
  }
  [[nodiscard]] std::span<const ecrs::auction::units> grants() const {
    return granted_;
  }
  [[nodiscard]] const ecrs::market::marketplace& market() const {
    return market_;
  }
  [[nodiscard]] std::uint64_t executed_events() const {
    return sim_.executed_events();
  }
  // Requests queued across every microservice.
  [[nodiscard]] std::uint64_t backlog() const;

 private:
  void apply_churn(std::uint64_t round);
  void deliver(std::size_t i);
  void apply_allocations(const ecrs::auction::regional_instance& inst,
                         const ecrs::market::marketplace_round& out);

  span_buffer& spans_;
  ecrs::simrun::daemon_config config_;
  ecrs::workload::generator gen_;
  ecrs::edge::cluster cluster_;
  ecrs::demand::estimator estimator_;
  ecrs::edge::topology topo_;  // must outlive market_
  ecrs::market::marketplace market_;
  ecrs::market::round_ingestor ingestor_;
  ecrs::des::simulator sim_;
  std::vector<std::uint32_t> seller_counts_;
  std::vector<std::uint32_t> population_;
  std::vector<ecrs::workload::request> batch_;
  std::vector<ecrs::des::sim_time> arrivals_;
  std::vector<ecrs::edge::round_stats> stats_;
  std::vector<double> estimates_;
  std::vector<ecrs::auction::units> granted_;
  ecrs::market::marketplace_round market_out_;
  std::vector<double> service_clock_;
  std::uint64_t completed_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace ecrs_bench
