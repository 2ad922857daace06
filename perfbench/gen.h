// Seeded input generators. Every input psme sees in a benchmark run comes
// from here: the same (seed, index) always yields the same input, on every
// host (splitmix64 and plain modulo, no std::*_distribution whose output is
// library-specific).
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Order-sensitive combine of `v` into `h` (input digests, CS hashes).
inline uint64_t mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= h >> 29;
  return h * 0xbf58476d1ce4e5b9ull;
}

// ---- wave workloads -------------------------------------------------------

/// Wave classes; their attributes are `v` and (for a, c) `w`.
enum WaveClass : uint8_t { kA, kB, kC, kD, kBlocker, kWaveClasses };

struct WmeSpec {
  uint8_t cls = kA;
  int64_t v = 0;
  int64_t w = 0;  // ignored by classes without a `w` attribute
};

struct WaveShape {
  int a_per_wave = 512;      // `a` wmes per wave; b/c/d/blocker follow it
  int64_t key_domain = 4093; // join keys lie in [0, domain)
  bool with_d = true;        // wave-wide's 4-CE chain needs `d` wmes
  /// false: every key is drawn uniformly. true: the i-th `a` of a wave and
  /// its companions take key perm[i mod domain] for a seeded per-wave
  /// permutation, so every wave loads the hot keys equally and seeds differ
  /// only in which key is hot when.
  bool balanced = false;
};

/// Wave `index` of the stream: per `a` wme i, also a `b` every 2nd, a `c`
/// every 3rd, a `d` every 4th (when with_d) and a `blocker` every 5th.
std::vector<WmeSpec> make_wave(uint64_t seed, uint64_t index,
                               const WaveShape& shape);

// ---- soar-learn -----------------------------------------------------------

/// Order in which episode `episode` runs the three paper tasks (a
/// permutation of {0, 1, 2} over registry task_names()).
std::vector<int> soar_task_order(uint64_t seed, uint64_t episode);

// ---- query-churn ----------------------------------------------------------

struct BlockSpec {
  int64_t name = 0;  // block id; printed as b<name>
  int color = 0;     // 0 blue, 1 red, 2 green
  int64_t on = -1;   // id of the block below, -1 for none
};

/// A resident chain of `chain` stacked blocks plus `loose` unstacked ones,
/// colored blue/red/green in equal shares in a seeded order.
std::vector<BlockSpec> make_blocks(uint64_t seed, int chain, int loose);

/// Cue index (0..2) for each of `n` queries: every aligned triple is a
/// seeded permutation of the three cues, so the mix stays exactly 1/3 each.
std::vector<int> make_cue_sequence(uint64_t seed, int n);

}  // namespace perfbench
