// Sharded multi-region marketplace horizon (DESIGN.md section 12): one
// row per round with social cost, payments, spillover traffic, and unmet
// demand. The table is byte-identical for every --threads setting
// (tests/market_test.cc enforces it).
//
// Flags beyond the common set: --regions, --rounds, --sellers and
// --demanders (per region), and --scale (demand scale in percent,
// 125 = 1.25).
#include "bench_util.h"

int main(int argc, char** argv) {
  const ecrs::flags f(argc, argv);
  ecrs::harness::marketplace_config cfg;
  cfg.regions = static_cast<std::uint32_t>(f.get_int("regions", 10));
  cfg.rounds = static_cast<std::size_t>(f.get_int("rounds", 5));
  cfg.sellers_per_region =
      static_cast<std::size_t>(f.get_int("sellers", 8));
  cfg.demanders_per_region =
      static_cast<std::size_t>(f.get_int("demanders", 4));
  cfg.demand_scale =
      static_cast<double>(f.get_int("scale", 125)) / 100.0;
  cfg.seed = static_cast<std::uint64_t>(f.get_int("seed", 1));
  cfg.threads = static_cast<std::size_t>(f.get_int("threads", 0));
  ecrs::bench::emit(f, "Sharded marketplace rounds with spillover",
                    ecrs::harness::marketplace_rounds(cfg));
  return 0;
}
