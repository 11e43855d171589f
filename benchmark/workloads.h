// The benchmark's three daemon workloads and the per-round digest that
// proves two runs computed the same thing. README.md says why each
// workload exists and which layers it loads.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/checkpoint.h"
#include "market/marketplace.h"
#include "simrun/daemon.h"

namespace ecrs_bench {

struct workload_spec {
  std::string name;
  std::uint32_t regions = 8;    // 8 sellers each
  std::uint32_t demanders = 4;  // per region; microservices = regions × this
  std::uint32_t users = 100;    // ≈ 15 requests per user per round
  // Resource-seconds per requirement unit; the daemon's resources_per_unit
  // is set to the same value (the loop's stability invariant).
  double unit_demand = 4.0;
  double demand_scale = 1.0;  // ingest re-inflation past local supply
  std::uint64_t flash_every = 0;  // ×4 rate for 2 rounds per period; 0 = off
  // Timed rounds the quality totals cover: a fixed prefix, so the totals
  // are a pure function of the seed however fast the host is.
  std::uint64_t quality_rounds = 500;
};

// The named workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] workload_spec find_workload(const std::string& name);

// A complete daemon setup for `spec`: the seed drives the request stream
// and which microservices are delay-sensitive; the standing bids and the
// placement on clouds are the workload's own, the same for every seed.
// `threads` caps the marketplace fan-out; ingestion stays serial so the
// warm observe -> ingest chain does not allocate.
[[nodiscard]] ecrs::simrun::daemon_setup build_setup(const workload_spec& spec,
                                                     std::uint64_t seed,
                                                     std::size_t threads);

// FNV-1a over everything one round decided: winners, payment and cost bit
// patterns, deficits, spillover awards, estimates and grants.
[[nodiscard]] std::uint64_t round_digest(
    const ecrs::market::marketplace_round& round,
    std::span<const double> estimates,
    std::span<const ecrs::auction::units> grants,
    ecrs::checkpoint_writer& buf);

}  // namespace ecrs_bench
