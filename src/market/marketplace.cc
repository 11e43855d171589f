#include "market/marketplace.h"

#include <chrono>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"

namespace ecrs::market {
namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

marketplace::marketplace(
    const edge::topology& topo,
    std::vector<std::vector<auction::seller_profile>> sellers_per_region,
    marketplace_options options)
    : topo_(&topo), options_(options) {
  ECRS_CHECK_MSG(!sellers_per_region.empty(), "need at least one region");
  ECRS_CHECK_MSG(topo.clouds() >= sellers_per_region.size(),
                 "topology must cover every region");
  shards_.reserve(sellers_per_region.size());
  for (std::size_t r = 0; r < sellers_per_region.size(); ++r) {
    shards_.emplace_back(static_cast<std::uint32_t>(r),
                         std::move(sellers_per_region[r]), options_.shard);
  }
}

const shard& marketplace::region(std::uint32_t r) const {
  ECRS_CHECK(r < shards_.size());
  return shards_[r];
}

marketplace_round marketplace::run_round(
    const auction::regional_instance& round) {
  marketplace_round out;
  run_round(round, out);
  return out;
}

void marketplace::run_round(const auction::regional_instance& round,
                            marketplace_round& out) {
  const std::size_t n = shards_.size();
  ECRS_CHECK_MSG(round.regions.size() == n,
                 "round carries " << round.regions.size()
                                  << " regional instances for " << n
                                  << " shards");

  out.round = ++round_;
  out.shards.resize(n);
  out.social_cost = 0.0;
  out.total_payment = 0.0;
  out.unmet_units = 0;

  // 1. Fan out the local rounds. Each shard writes only its own result
  // slot, so the stage is lock-free and the outcome is independent of
  // scheduling.
  const auto shard_start = std::chrono::steady_clock::now();
  if (options_.threads == 1 || n == 1) {
    for (std::size_t r = 0; r < n; ++r) {
      shards_[r].run_round(round.regions[r], out.shards[r]);
    }
  } else {
    thread_pool::shared().parallel_for(
        n,
        [&](std::size_t r) {
          shards_[r].run_round(round.regions[r], out.shards[r]);
        },
        options_.threads);
  }
  timing_.shard_ms = ms_since(shard_start);

  // 2. Spillover re-auctions the uncovered demand, serial, ascending
  // region id.
  const auto spill_start = std::chrono::steady_clock::now();
  spill_stage_.run(*topo_,
                   std::span<const auction::single_stage_instance>(
                       round.regions),
                   std::span<const shard>(shards_),
                   std::span<const shard_round>(out.shards),
                   options_.spillover, out.spillover);
  timing_.spill_ms = ms_since(spill_start);
  timing_.spill_assembly_ms = spill_stage_.assembly_ms();

  // 3. Helper shards charge the sales against their sellers, in award
  // order: each award's weight is its coverage size, its price the ask.
  for (const spill_award& a : out.spillover.awards) {
    shards_[a.helper_region].session().consume_external(
        a.seller, static_cast<auction::units>(a.covered.size()), a.ask);
  }

  // 4. Serial reduction, ascending region id.
  for (std::size_t r = 0; r < n; ++r) {
    out.social_cost += out.shards[r].outcome.social_cost;
    for (const double p : out.shards[r].outcome.payments) {
      out.total_payment += p;
    }
  }
  out.social_cost += out.spillover.social_cost;
  out.total_payment += out.spillover.total_payment;
  out.unmet_units = out.spillover.unmet_units;
  out.feasible = out.unmet_units == 0;
}

void marketplace::set_seller_active(std::uint32_t region,
                                    auction::seller_id s, bool active) {
  ECRS_CHECK(region < shards_.size());
  shards_[region].set_seller_active(s, active);
}

void marketplace::save(ecrs::checkpoint_writer& w) const {
  w.u32(round_);
  w.size(shards_.size());
  for (const shard& sh : shards_) sh.save(w);
}

void marketplace::load(ecrs::checkpoint_reader& r) {
  round_ = r.u32();
  const std::size_t n = r.size();
  ECRS_CHECK_MSG(n == shards_.size(),
                 "checkpoint holds " << n << " shards, marketplace has "
                                     << shards_.size());
  for (shard& sh : shards_) sh.load(r);
}

}  // namespace ecrs::market
