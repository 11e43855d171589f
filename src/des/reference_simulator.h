// Frozen pre-PR5 event engine, kept as the equivalence reference for the
// slab/indexed-heap simulator (des/simulator.h).
//
// This is the original design — one std::function per event, an
// unordered_map<event_id, record> registry, a std::priority_queue with
// lazy discarding of cancelled entries, and a run_until that re-pushes the
// peeked entry — preserved verbatim behind a pimpl so its std::function
// internals stay out of the header (ecrs-lint des-std-function).
// tests/des_test.cc drives both engines through identical scripts and
// requires identical observable behaviour. Do not optimise this class.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "des/simulator.h"  // sim_time, event_id

namespace ecrs::des {

class reference_simulator {
 public:
  using callback = std::function<void()>;

  reference_simulator();
  ~reference_simulator();
  reference_simulator(const reference_simulator&) = delete;
  reference_simulator& operator=(const reference_simulator&) = delete;

  [[nodiscard]] sim_time now() const;
  [[nodiscard]] std::size_t pending_events() const;
  [[nodiscard]] std::uint64_t executed_events() const;

  event_id schedule_at(sim_time when, callback fn);
  event_id schedule_in(sim_time delay, callback fn);
  event_id schedule_periodic(sim_time period, callback fn);
  bool cancel(event_id id);
  void run_until(sim_time horizon);
  void run();
  bool step();

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace ecrs::des
