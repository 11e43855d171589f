// One regional market: a warm-start auction::msoa_session plus the
// region-local bookkeeping the marketplace round loop needs.
//
// A shard is strictly region-local: it runs its region's rounds on its own
// session (ψ/χ state, compiled-instance warm-start cache, scratch), posts a
// spill_request when a round leaves demand uncovered, and applies
// spill_grants when the coordinator sells its sellers' spare capacity into
// neighboring regions. It never reads another shard's state — all
// cross-region traffic is mail (market/mailbox.h).
//
// Thread contract: the marketplace runs at most one shard::run_round per
// shard at a time (shards fan out across regions, not within one), and all
// grant application happens serially between rounds. Every member is
// therefore single-thread-confined per round, like msoa_session itself.
#pragma once

#include <cstdint>
#include <vector>

#include "auction/bid.h"
#include "auction/msoa.h"
#include "common/annotations.h"
#include "market/mailbox.h"

namespace ecrs::market {

struct shard_options {
  // Per-round mechanism configuration for the shard's session. The
  // marketplace's parallelism is across shards, so per-shard payment
  // probes default to serial (payment_threads left at the caller's value).
  auction::msoa_options session;
};

// What one local round produced.
struct shard_round {
  auction::msoa_round_outcome outcome;
  // Demand the local round could not cover, ascending local demander id
  // (empty when the round was feasible).
  std::vector<spill_deficit> uncovered;
  auction::units deficit = 0;  // total missing units
};

// A spare capacity offer: a bid of the current local round whose seller
// won nothing this round and still has the lifetime capacity to serve it.
struct spare_offer {
  std::size_t bid_index = 0;  // into the local round's bid vector
  auction::seller_id seller = 0;
};

class shard {
 public:
  shard(std::uint32_t region, std::vector<auction::seller_profile> sellers,
        shard_options options = {});

  [[nodiscard]] std::uint32_t region() const { return region_; }
  [[nodiscard]] auction::msoa_session& session() { return session_; }
  [[nodiscard]] const auction::msoa_session& session() const {
    return session_;
  }

  // Run the region's next local auction round (true prices). Fills `out`
  // (vector capacity reused) and posts one spill_request to the
  // coordinator slot of `po` when demand is left uncovered.
  void run_round(const auction::single_stage_instance& local, post_office& po,
                 shard_round& out);

  // Spare offers of the round just run: bids of `local` whose seller won
  // nothing in `result` and has capacity for the bid's participation
  // weight. Replaces the contents of `out` in ascending bid-index order
  // (deterministic). `won_scratch` is caller-owned per-seller scratch so
  // repeated rounds stay off the allocator once warm; const — only the
  // caller-owned scratch is written.
  ECRS_HOT void spare_offers(const auction::single_stage_instance& local,
                             const shard_round& result,
                             std::vector<char>& won_scratch,
                             std::vector<spare_offer>& out) const;

  // Apply a spill_grant addressed to this shard: charge the sale against
  // the seller's session capacity (and ψ).
  void apply_grant(const message& grant);

  // Seller churn passthrough: an inactive seller is skipped both by the
  // session's admission and by spare_offers (no spillover sales either).
  void set_seller_active(auction::seller_id s, bool active) {
    session_.set_seller_active(s, active);
  }

  // Checkpoint passthrough to the session (coverage replay state is
  // per-round scratch and not serialized).
  void save(ecrs::checkpoint_writer& w) const { session_.save(w); }
  void load(ecrs::checkpoint_reader& r) { session_.load(r); }

 private:
  std::uint32_t region_;
  std::vector<auction::seller_profile> profiles_;
  shard_options options_;
  ECRS_THREAD_OWNED("one shard round at a time") auction::msoa_session
      session_;
  ECRS_THREAD_OWNED("one shard round at a time") auction::coverage_state
      replay_;
};

}  // namespace ecrs::market
