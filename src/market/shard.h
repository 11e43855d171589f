// One regional market: a warm-start auction::msoa_session plus the
// region-local bookkeeping the marketplace round loop needs.
//
// A shard is strictly region-local: it runs its region's rounds on its own
// session (ψ/χ state, compiled-instance warm-start cache, scratch) and
// records the demand a round leaves uncovered in its round record. It never
// reads another shard's state: the marketplace hands the uncovered demand
// to the spillover stage and charges spillover sales to the helper shard's
// session (msoa_session::consume_external).
//
// Thread contract: the marketplace runs at most one shard::run_round per
// shard at a time (shards fan out across regions, not within one), and all
// spillover charging happens serially between rounds. Every member is
// therefore single-thread-confined per round, like msoa_session itself.
#pragma once

#include <cstdint>
#include <vector>

#include "auction/bid.h"
#include "auction/msoa.h"
#include "common/annotations.h"

namespace ecrs::market {

// One demander's unmet demand after a local round.
struct spill_deficit {
  auction::demander_id demander = 0;  // region-local id
  auction::units missing = 0;         // > 0
};

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
  // (vector capacity reused), uncovered demand included.
  void run_round(const auction::single_stage_instance& local,
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
