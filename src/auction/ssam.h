// SSAM: Single-Stage Auction Mechanism (paper §IV-C, Algorithm 1).
//
// A greedy primal–dual approximation of the NP-hard winner selection
// problem: repeatedly accept the bid with the lowest price per unit of
// *useful* coverage (price / U_ij(E)), at most one bid per seller, until all
// requirements are met. Winners are paid above their asking price:
//
//  - payment_rule::runner_up  — Algorithm 1 lines 6–7: the winner's utility
//    times the best cost-effectiveness ratio among competing bids at
//    selection time. Cheap (computed in-loop); always >= the asking price.
//  - payment_rule::critical_value — Lemma 3 / Myerson: the supremum report
//    at which the bid still wins, found by binary search over re-runs of the
//    greedy selection (monotone by Lemma 2). Exactly truthful.
//
// One engine runs selection and payments, on a *compiled* CSR view of the
// instance (auction/compiled.h): the bid-vector entry points below compile
// on entry (into the scratch, so steady-state callers pay no allocation),
// and every hot loop — greedy selection, the runner-up estimate scans, the
// critical-value probes, the feasibility replay, and the self-audit —
// walks contiguous structure-of-arrays rows instead of per-bid
// heap-allocated `bid::coverage` vectors. Selection is one loop under
// both payment rules: an argmin scan over incrementally maintained exact
// utilities that reproduces the (ratio, bid index) tie-breaking of the
// eager scan bit for bit. Every critical-value probe — inside run_ssam,
// critical_value_payment and wins_with_price — resolves against the
// winner's precomputed probe trajectory instead of replaying the auction.
//
// One oracle is kept beside the engine: the original O(n²·m) eager scan
// over the bid vectors with full replayed probe auctions
// (ssam_options::eager_reference, eager_greedy_selection). It shares no
// code with the compiled engine, and the equivalence tests require winners
// and payments bit-identical to it.
//
// Critical-value payments are independent pure probes of the instance and
// are computed in parallel on a shared thread pool
// (`ssam_options::payment_threads`). All entry points accept an optional
// `ssam_scratch` so repeated calls reuse their internal buffers instead of
// reallocating (see the class comment for the contract).
//
// The result carries the Theorem 3 dual certificate: per-unit price shares
// f(i,Ŝ), their spread Ξ, the harmonic factor W, and the ratio bound W·Ξ.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "auction/bid.h"

namespace ecrs::auction {

class compiled_instance;  // auction/compiled.h

enum class payment_rule { runner_up, critical_value };

// Reusable workspace for the SSAM hot path. run_ssam and the selection
// entry points accept an optional scratch; when provided, every internal
// buffer (compiled view, coverage and utility state, seller/bid masks) is
// borrowed from it instead of allocated per call, so
// repeated rounds and sweep trials stop hitting the allocator once the
// buffers have grown to the largest instance seen. The compiled path's
// per-winner critical-value probe slots are NOT stored here: they are
// carved from the calling thread's bump arena (common/arena.h) for the
// duration of the call, so a scratch that migrates between worker threads
// (sweep cells) never shares arena memory across threads. Results are
// bit-identical with and without a scratch.
//
// NOT thread-safe: a scratch serves one call at a time — use one per
// worker. The parallel payment fan-out inside a single run_ssam call is
// safe: each winner's probes get their own probe slot.
class ssam_scratch {
 public:
  ssam_scratch();
  ~ssam_scratch();
  ssam_scratch(ssam_scratch&&) noexcept;
  ssam_scratch& operator=(ssam_scratch&&) noexcept;

  // Internal buffer block (defined in ssam.cc); treat as opaque.
  struct impl;
  [[nodiscard]] impl& buffers();

 private:
  std::unique_ptr<impl> impl_;
};

// Default for ssam_options::self_audit: every mechanism invocation re-checks
// its own output in debug and sanitizer builds; plain release builds skip
// the audit on the hot path (it can be turned on per call).
#if !defined(NDEBUG) || defined(ECRS_SANITIZE_BUILD)
inline constexpr bool kSelfAuditDefault = true;
#else
inline constexpr bool kSelfAuditDefault = false;
#endif

struct ssam_options {
  payment_rule rule = payment_rule::runner_up;
  // Relative termination gap for the critical-value bisection: the search
  // stops once (hi - lo) / hi < critical_value_eps and returns the last
  // probe certified to win (lo), so a payment under-approximates the true
  // critical value by at most this relative amount. Must be in (0, 1).
  double critical_value_eps = 1e-9;
  // Platform payment budget W (paper §IV: the process continues "until the
  // total budget W is depleted or the last microservice has been
  // processed"). 0 = unlimited. Selection is gated by the in-loop runner-up
  // payment estimates: a bid is not accepted if paying the estimate would
  // exceed W, and selection stops there (the outcome may then be
  // infeasible). Under payment_rule::runner_up the estimates ARE the
  // payments, so the bound is exact. Under payment_rule::critical_value the
  // actual payments are re-verified after they are computed: trailing
  // winners are dropped in reverse selection order until
  // total_payment <= W, with the count in ssam_result::budget_dropped and
  // feasibility replayed against the surviving set.
  double payment_budget = 0.0;
  // Worker threads for the critical-value payment probes: 0 = the shared
  // process-wide pool (sized to the hardware), 1 = serial on the calling
  // thread, k > 1 = at most k workers. Payments are written to disjoint
  // slots, so the result is identical for every setting.
  std::size_t payment_threads = 0;
  // Route the call through the eager oracle: the original O(n²·m) scan over
  // the bid vectors, with every critical-value probe replaying the full
  // auction. The equivalence tests hold the compiled engine bit-identical
  // to it. Only meaningful on the single_stage_instance overload (the
  // compiled overload rejects it).
  bool eager_reference = false;
  // Re-check the returned result (feasibility, individual rationality,
  // accounting, budget balance, certificate sanity) with
  // auction::audit_or_throw before returning; a violation throws
  // ecrs::check_error. On by default in debug and sanitizer builds.
  bool self_audit = kSelfAuditDefault;
};

struct winning_bid {
  std::size_t bid_index = 0;        // into single_stage_instance::bids
  double payment = 0.0;             // price space of the input instance
  units utility_at_selection = 0;   // U_ij(E) when the bid was accepted
  double ratio_at_selection = 0.0;  // price / U_ij(E)
};

struct ssam_result {
  std::vector<winning_bid> winners;  // selection order
  bool feasible = false;             // all requirements satisfied
  double social_cost = 0.0;          // sum of winning prices
  double total_payment = 0.0;        // sum of payments
  // Winners evicted by the post-payment budget re-check (critical-value
  // rule with payment_budget > 0 only; see ssam_options::payment_budget).
  std::size_t budget_dropped = 0;

  // Theorem 3 dual certificate.
  std::vector<double> unit_shares;   // one f(i,Ŝ) value per covered unit
  double xi = 1.0;                   // Ξ = max share / min share
  double harmonic = 0.0;             // W = H(total covered units)
  double ratio_bound = 1.0;          // α = max(1, W·Ξ)
  double dual_objective = 0.0;       // social_cost / ratio_bound (<= OPT)
};

// Run the full mechanism: selection + payments + dual certificate.
// The instance must validate(); an unsatisfiable instance yields
// feasible == false with the partial selection that was reachable.
// `scratch` (optional) supplies the reusable workspace; see ssam_scratch.
[[nodiscard]] ssam_result run_ssam(const single_stage_instance& instance,
                                   const ssam_options& options = {},
                                   ssam_scratch* scratch = nullptr);

// Run the full mechanism directly on a pre-compiled view (no per-call
// compile). The caller owns the compiled_instance (patched in place with
// set_price / set_requirement between calls). Rejects eager_reference (the oracle
// needs the bid vectors). This is the MSOA warm-start entry point; results
// are bit-identical to run_ssam on the equivalent single_stage_instance.
[[nodiscard]] ssam_result run_ssam(const compiled_instance& compiled,
                                   const ssam_options& options = {},
                                   ssam_scratch* scratch = nullptr);

// Allocation-free flavours: run the mechanism INTO a caller-owned result,
// reusing its vectors' capacity (they are cleared, not shrunk). Combined
// with a warm scratch and payment_threads == 1 this is the 0-allocation
// steady-state path (the value-returning overloads above cost one fresh
// ssam_result worth of vectors per call); the parallel fan-out delegates
// its chunking to the shared thread pool, which allocates per parallel_for.
// Results are bit-identical to the value-returning overloads.
void run_ssam(const single_stage_instance& instance,
              const ssam_options& options, ssam_scratch* scratch,
              ssam_result& out);
void run_ssam(const compiled_instance& compiled, const ssam_options& options,
              ssam_scratch* scratch, ssam_result& out);

// Every entry point below validates the instance first (a negative or NaN
// price, an unsorted or out-of-range coverage list throws check_error), as
// run_ssam does.
//
// Selection only (no payments): the greedy winner set in selection order,
// computed with the compiled selection loop run_ssam uses.
[[nodiscard]] std::vector<std::size_t> greedy_selection(
    const single_stage_instance& instance, ssam_scratch* scratch = nullptr);

// The eager oracle's selection: the original O(n²·m) scan over the bid
// vectors, the bit-for-bit reference for greedy_selection.
[[nodiscard]] std::vector<std::size_t> eager_greedy_selection(
    const single_stage_instance& instance, ssam_scratch* scratch = nullptr);

// Does `bid_index` win the greedy selection if its price is replaced by
// `price_report` (all other bids unchanged)? Resolved against the bid's
// probe trajectory — the greedy sequence with the bid excluded — the same
// resolver every critical-value payment uses. `price_report` must be
// non-negative (+inf allowed).
[[nodiscard]] bool wins_with_price(const single_stage_instance& instance,
                                   std::size_t bid_index, double price_report);

// The Myerson critical value for a winning bid: the supremum report that
// still wins, bisected until the relative gap drops below `relative_eps`
// (the returned value is the largest probe certified to win, so it is below
// the true critical value by at most that relative amount). Returns the
// bid's own price when it faces no competition (pay-as-bid fallback,
// documented in DESIGN.md).
[[nodiscard]] double critical_value_payment(
    const single_stage_instance& instance, std::size_t bid_index,
    double relative_eps = 1e-9);

}  // namespace ecrs::auction
