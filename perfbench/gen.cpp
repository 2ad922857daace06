#include "gen.h"

#include <cstddef>
#include <utility>

namespace perfbench {
namespace {

/// splitmix64: tiny, fast, fully specified.
struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed) {}
  uint64_t next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return next() % n; }
};

/// Mixes two words into a stream seed (one stream per input index).
uint64_t stream_seed(uint64_t seed, uint64_t index) {
  Rng r(seed * 0x2545f4914f6cdd1dull ^ (index + 1) * 0x9e3779b97f4a7c15ull);
  return r.next();
}

/// Fisher-Yates over {0, .., n-1}.
std::vector<int> permutation(Rng& r, int n) {
  std::vector<int> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<size_t>(r.below(static_cast<uint64_t>(i) + 1));
    std::swap(p[static_cast<size_t>(i)], p[j]);
  }
  return p;
}

}  // namespace

std::vector<WmeSpec> make_wave(uint64_t seed, uint64_t index,
                               const WaveShape& shape) {
  Rng r(stream_seed(seed, index));
  const auto domain = static_cast<uint64_t>(shape.key_domain);
  std::vector<int> perm;
  if (shape.balanced) perm = permutation(r, static_cast<int>(domain));
  std::vector<WmeSpec> out;
  out.reserve(static_cast<size_t>(shape.a_per_wave) * 2 + 4);
  for (int i = 0; i < shape.a_per_wave; ++i) {
    auto key = [&] {
      return shape.balanced ? perm[static_cast<size_t>(i) % domain]
                            : static_cast<int64_t>(r.below(domain));
    };
    out.push_back({kA, key(), key()});
    if (i % 2 == 0) out.push_back({kB, key(), 0});
    if (i % 3 == 0) out.push_back({kC, key(), key()});
    if (shape.with_d && i % 4 == 0) out.push_back({kD, key(), 0});
    if (i % 5 == 0) out.push_back({kBlocker, key(), 0});
  }
  return out;
}

std::vector<int> soar_task_order(uint64_t seed, uint64_t episode) {
  Rng r(stream_seed(seed ^ 0x50a7ull, episode));
  return permutation(r, 3);
}

std::vector<BlockSpec> make_blocks(uint64_t seed, int chain, int loose) {
  Rng r(stream_seed(seed ^ 0xb10cull, 0));
  const std::vector<int> order = permutation(r, chain + loose);
  std::vector<BlockSpec> out;
  for (int i = 0; i < chain + loose; ++i) {
    BlockSpec b;
    b.name = i;
    b.color = order[static_cast<size_t>(i)] % 3;
    b.on = (i > 0 && i < chain) ? i - 1 : -1;
    out.push_back(b);
  }
  return out;
}

std::vector<int> make_cue_sequence(uint64_t seed, int n) {
  Rng r(stream_seed(seed ^ 0xc0eull, 0));
  std::vector<int> out;
  out.reserve(static_cast<size_t>(n) + 3);
  while (static_cast<int>(out.size()) < n) {
    for (const int c : permutation(r, 3)) out.push_back(c);
  }
  out.resize(static_cast<size_t>(n));
  return out;
}

}  // namespace perfbench
