// Per-trial seed derivation for parallel experiments.
//
// A sweep is a grid of independent trials; each trial owns a private
// Simulator whose root Rng is seeded from one number. When trials run
// concurrently the seeds must be (a) derivable from (master seed, trial
// index) alone — never from execution order, or results would depend on the
// thread schedule — and (b) statistically independent, or co-scheduled
// trials would sample correlated failure processes.
//
// SeedStream gives both: trial_seed(i) pushes `master + (i+1)*gamma`
// (gamma = the odd SplitMix64 golden-gamma constant, so the pre-mix values
// are pairwise distinct for any index range) through the SplitMix64
// finalizer, a bijective avalanche mix. Distinctness is therefore exact,
// not probabilistic, and tests/test_seed_stream.cc checks the independence
// half empirically (cross-correlation of derived Rng streams).
//
// The legacy benches keep their published `base + i` seed grids (the
// numbers in EXPERIMENTS.md are pinned to them); util::Rng already applies
// SplitMix64 when seeding xoshiro, so those remain well-distributed.
// SeedStream is the scheme for new sweeps; the workload driver derives its
// per-session streams from it.
#pragma once

#include <cstdint>

namespace mercury::exp {

/// SplitMix64 finalizer: bijective 64-bit avalanche mix.
std::uint64_t splitmix64_mix(std::uint64_t x);

/// Index-addressable stream of per-trial seeds derived from one master
/// seed. Stateless per call: trial_seed(i) depends only on (master, i).
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t master) : master_(master) {}

  /// Seed for trial `index`. Pairwise distinct across indices (exact, by
  /// construction) and independent in the avalanche-mix sense.
  std::uint64_t trial_seed(std::uint64_t index) const;

  std::uint64_t master() const { return master_; }

 private:
  std::uint64_t master_;
};

}  // namespace mercury::exp
