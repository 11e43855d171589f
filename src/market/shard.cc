#include "market/shard.h"

#include <utility>

namespace ecrs::market {
namespace {

// Replay the round's winners against the round's requirements and emit
// what is left uncovered, ascending local demander id. Pure arithmetic
// over preallocated state — the sharded round loop's hot tail.
ECRS_HOT auction::units collect_shard_deficit(
    const auction::single_stage_instance& local,
    const auction::msoa_round_outcome& outcome,
    auction::coverage_state& replay, std::vector<spill_deficit>& uncovered) {
  replay.reset(local.requirements);
  for (const std::size_t idx : outcome.winner_bids) {
    replay.apply(local.bids[idx]);
  }
  uncovered.clear();
  if (replay.satisfied()) return 0;
  const auto demanders =
      static_cast<auction::demander_id>(local.requirements.size());
  for (auction::demander_id k = 0; k < demanders; ++k) {
    const auction::units missing = replay.remaining(k);
    if (missing > 0) uncovered.push_back({k, missing});
  }
  return replay.deficit();
}

}  // namespace

shard::shard(std::uint32_t region,
             std::vector<auction::seller_profile> sellers,
             shard_options options)
    : region_(region),
      profiles_(sellers),  // session takes its own copy below
      options_(options),
      session_(std::move(sellers), options_.session) {}

void shard::run_round(const auction::single_stage_instance& local,
                      shard_round& out) {
  session_.run_round(local, out.outcome);
  out.deficit = collect_shard_deficit(local, out.outcome, replay_,
                                      out.uncovered);
}

void shard::spare_offers(const auction::single_stage_instance& local,
                         const shard_round& result,
                         std::vector<char>& won_scratch,
                         std::vector<spare_offer>& out) const {
  // Sellers that won this round are ineligible: constraint (9) allows at
  // most one accepted bid per seller per round, and a spillover sale
  // happens in the same round as the local auction it follows.
  out.clear();
  won_scratch.assign(profiles_.size(), 0);
  std::vector<char>& won = won_scratch;
  for (const std::size_t idx : result.outcome.winner_bids) {
    won[local.bids[idx].seller] = 1;
  }
  const std::uint32_t t = session_.rounds_run();
  for (std::size_t idx = 0; idx < local.bids.size(); ++idx) {
    const auction::bid& b = local.bids[idx];
    if (won[b.seller]) continue;
    if (t < profiles_[b.seller].t_arrive || t > profiles_[b.seller].t_depart) {
      continue;
    }
    if (!session_.seller_active(b.seller)) continue;
    const auto weight = static_cast<auction::units>(b.coverage_size());
    if (session_.capacity_left(b.seller) < weight) continue;
    out.push_back({idx, b.seller});
  }
}

}  // namespace ecrs::market
