#include "market/spillover.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"

namespace ecrs::market {
namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

void seller_best_index::build(const auction::single_stage_instance& local,
                              std::span<const spare_offer> offers,
                              std::size_t sellers) {
  best_.assign(sellers, kNoSpareBid);
  sellers_.clear();
  for (const spare_offer& offer : offers) {
    const std::size_t incumbent = best_[offer.seller];
    if (incumbent == kNoSpareBid) {
      best_[offer.seller] = offer.bid_index;
      sellers_.push_back(offer.seller);
    } else if (local.bids[offer.bid_index].price <
               local.bids[incumbent].price) {
      // Strict <: ties keep the earlier (lower) bid index, exactly like
      // the old per-offer scan over the ascending offer list.
      best_[offer.seller] = offer.bid_index;
    }
  }
  // First-seen order is ascending bid index; candidates must enumerate in
  // ascending seller id.
  std::sort(sellers_.begin(), sellers_.end());
}

auction::bid& spillover_stage::push_spill_bid() {
  // Parked bids keep their coverage vectors' capacity; a vector move swaps
  // pointers, so a warm pool never allocates.
  if (bid_pool_.empty()) return spill_.bids.emplace_back();
  spill_.bids.push_back(std::move(bid_pool_.back()));
  bid_pool_.pop_back();
  return spill_.bids.back();
}

void spillover_stage::run(
    const edge::topology& topo,
    std::span<const auction::single_stage_instance> locals,
    std::span<const shard> shards, std::span<const shard_round> rounds,
    const spillover_options& options, spillover_outcome& out) {
  const std::size_t n = shards.size();
  ECRS_CHECK_MSG(locals.size() == n && rounds.size() == n,
                 "one shard, local instance and round outcome per region");
  ECRS_CHECK_MSG(topo.clouds() >= n, "topology must cover every region");
  ECRS_CHECK_MSG(options.cost_per_ms >= 0.0 && options.max_latency >= 0.0,
                 "spillover surcharge and latency budget must be >= 0");

  out.awards.clear();
  out.regions.clear();
  out.covered_pool.clear();
  out.unmet_units = 0;
  out.social_cost = 0.0;
  out.total_payment = 0.0;
  assembly_ms_ = 0.0;
  if (std::none_of(rounds.begin(), rounds.end(),
                   [](const shard_round& r) { return r.deficit > 0; })) {
    return;
  }

  // 1. Every region's spare offers, per-seller best index and claim flags
  // (every region is a potential helper).
  const auto assembly_start = std::chrono::steady_clock::now();
  helpers_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    helper_slot& h = helpers_[r];
    shards[r].spare_offers(locals[r], rounds[r], h.won_scratch, h.offers);
    h.best.build(locals[r], h.offers, shards[r].session().sellers());
    h.claimed.assign(shards[r].session().sellers(), 0);
  }
  assembly_ms_ = ms_since(assembly_start);

  // 2. One re-auction per uncovered region, ascending region id.
  covered_offsets_.clear();
  for (std::uint32_t from = 0; from < n; ++from) {
    if (rounds[from].deficit <= 0) continue;
    const std::span<const spill_deficit> uncovered = rounds[from].uncovered;
    const std::size_t deficits = uncovered.size();
    region_spill tally;
    tally.region = from;
    spill_.requirements.clear();
    for (const spill_deficit& d : uncovered) {
      tally.requested += d.missing;
      spill_.requirements.push_back(d.missing);
    }

    // Closest helper regions first, at most options.max_regions of them
    // that still contribute a candidate, one bid per unclaimed seller: its
    // cheapest spare bid, surcharged for the haul. A candidate keeps its
    // home bid's amount and coverage SIZE, but covers deficit slots
    // rotated by its own index — spreading coverage across the deficit
    // deterministically instead of every candidate piling onto slot 0.
    // Seller ids are candidate indices (each candidate is a distinct real
    // seller, so constraint (9) is vacuous here by construction).
    while (!spill_.bids.empty()) {
      bid_pool_.push_back(std::move(spill_.bids.back()));
      spill_.bids.pop_back();
    }
    candidates_.clear();
    std::size_t helper_regions = 0;
    for (const edge::neighbor& nb :
         topo.neighbors_by_latency(from, options.max_latency)) {
      if (helper_regions == options.max_regions) break;
      if (nb.region >= n) continue;  // topology may be wider
      const helper_slot& h = helpers_[nb.region];
      const auction::single_stage_instance& local = locals[nb.region];
      const double transfer =
          topo.transfer_cost(from, nb.region, options.cost_per_ms);
      const std::size_t before = candidates_.size();
      for (const auction::seller_id s : h.best.sellers()) {
        if (h.claimed[s] != 0) continue;
        const std::size_t bi = h.best.best_bid(s);
        const auction::bid& home = local.bids[bi];
        const std::size_t cover = std::min(home.coverage_size(), deficits);
        const std::size_t a = candidates_.size();
        candidates_.push_back({nb.region, s, bi, nb.latency});
        auction::bid& b = push_spill_bid();
        b.seller = static_cast<auction::seller_id>(a);
        b.index = 0;
        b.amount = home.amount;
        b.price = home.price +
                  transfer * static_cast<double>(
                                 home.amount *
                                 static_cast<auction::units>(cover));
        b.coverage.clear();
        for (std::size_t k = 0; k < cover; ++k) {
          b.coverage.push_back(
              static_cast<auction::demander_id>((a + k) % deficits));
        }
        std::sort(b.coverage.begin(), b.coverage.end());
      }
      if (candidates_.size() > before) ++helper_regions;
    }

    auction::run_ssam(spill_, options.stage, &scratch_, result_);

    remaining_.reset(spill_.requirements);
    for (const auction::winning_bid& w : result_.winners) {
      const auction::bid& sb = spill_.bids[w.bid_index];
      remaining_.apply(sb);
      const candidate& c = candidates_[sb.seller];
      helpers_[c.helper_region].claimed[c.seller] = 1;

      spill_award award;
      award.demand_region = from;
      award.helper_region = c.helper_region;
      award.seller = c.seller;
      award.bid_index = c.bid_index;
      // Map deficit-slot indices back to the demand region's local
      // demander ids so awards read in market terms. The ids append to
      // the outcome's pool; spans are patched in once the pool stops
      // growing (below).
      covered_offsets_.emplace_back(out.covered_pool.size(),
                                    sb.coverage.size());
      for (const auction::demander_id k : sb.coverage) {
        out.covered_pool.push_back(uncovered[k].demander);
      }
      award.amount = sb.amount;
      award.latency = c.latency;
      award.ask = sb.price;
      award.payment = w.payment;
      out.social_cost += award.ask;
      out.total_payment += award.payment;
      out.awards.push_back(award);
    }

    tally.granted = tally.requested - remaining_.deficit();
    out.unmet_units += remaining_.deficit();
    out.regions.push_back(tally);
  }

  // covered_pool is stable now — point every award at its slice.
  for (std::size_t a = 0; a < out.awards.size(); ++a) {
    const auto [offset, count] = covered_offsets_[a];
    out.awards[a].covered = {out.covered_pool.data() + offset, count};
  }
}

}  // namespace ecrs::market
