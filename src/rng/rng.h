// Pseudo-random number generation substrate.
//
// The paper's WRS sampler needs k independent uniform random numbers per
// cycle. On the FPGA this is provided by ThundeRiNG (Tan et al., ICS'21),
// which shares one expensive state sequence among many output instances and
// attaches a cheap per-instance decorrelator. ThunderingRng reproduces that
// structure in software: a single 64-bit LCG advances once per batch element,
// and each stream applies its own xor/multiply scrambler so the k outputs of
// a batch are mutually decorrelated and each stream is itself uniform.
//
// SplitMix64 and Xoshiro256StarStar are self-contained reference generators
// used for seeding, the CPU baseline, and tests.

#ifndef LIGHTRW_RNG_RNG_H_
#define LIGHTRW_RNG_RNG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace lightrw::rng {

// SplitMix64 (Steele et al.): a tiny generator whose main job here is
// turning arbitrary seeds into well-mixed 64-bit values.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// xoshiro256** (Blackman & Vigna): fast, high-quality general-purpose PRNG.
// Used as the CPU baseline's generator and as a reference in tests.
class Xoshiro256StarStar {
 public:
  explicit Xoshiro256StarStar(uint64_t seed);

  uint64_t Next();
  // Uniform 32-bit draw.
  uint32_t Next32() { return static_cast<uint32_t>(Next() >> 32); }
  // Uniform double in [0, 1).
  double NextUnit() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

 private:
  uint64_t s_[4];
};

// Multi-stream generator with ThundeRiNG's shared-state structure.
//
// One LCG state sequence is shared by all streams; stream i applies a
// per-stream decorrelator (xor with a stream-specific offset, an xorshift
// scramble, and a stream-specific odd multiplier). Hardware cost of an
// extra stream is one decorrelator — which is why the paper can afford 64
// streams in 1.2% of the chip — and the software model mirrors that: one
// LCG step plus one scramble per output.
class ThunderingRng {
 public:
  // Creates `num_streams` decorrelated streams. All randomness is
  // reproducible from `seed`.
  ThunderingRng(size_t num_streams, uint64_t seed);

  // Re-derives the stream set from `seed`, reusing the existing storage
  // when the stream count allows. Produces exactly the state a freshly
  // constructed ThunderingRng(num_streams, seed) would hold — hot loops
  // that re-key a pooled generator per walker use this instead of
  // constructing (and allocating) a new one.
  void Reseed(size_t num_streams, uint64_t seed);

  size_t num_streams() const { return offsets_.size(); }

  // Draws the next 32-bit output of stream `stream`. Streams advance
  // independently (each keeps its own position in the shared sequence, as
  // the hardware instances consume one shared state per cycle).
  uint32_t Next(size_t stream) {
    LIGHTRW_DCHECK(stream < states_.size());
    states_[stream] = LcgAdvance(states_[stream]);
    return Decorrelate(states_[stream], stream);
  }

  // Uniform double in [0, 1) from stream `stream`.
  double NextUnit(size_t stream) {
    return static_cast<double>(Next(stream)) * 0x1.0p-32;
  }

  // The shared LCG (Knuth's MMIX multiplier; full period mod 2^64) and
  // the decorrelator's two xorshift distances. Vectorized consumers of
  // Lanes() must apply exactly these, in the order Next() does.
  static constexpr uint64_t kLcgMultiplier = 6364136223846793005ULL;
  static constexpr uint64_t kLcgIncrement = 1442695040888963407ULL;
  static constexpr int kDecorrelateMixShift = 29;
  static constexpr int kDecorrelateFoldShift = 32;

  // Raw per-stream arrays for streams [base, base + n): element i of each
  // pointer belongs to stream base + i. A consumer that advances a lane
  // must store the new state back, exactly as Next() would.
  struct LaneView {
    uint64_t* states;
    const uint64_t* offsets;
    const uint64_t* multipliers;
  };
  LaneView Lanes(size_t base, [[maybe_unused]] size_t n) {
    LIGHTRW_DCHECK(base + n <= states_.size());
    return {states_.data() + base, offsets_.data() + base,
            multipliers_.data() + base};
  }

  // Draws one output from each of streams [base, base + out.size()), in
  // stream order — byte-identical to calling Next(base + i) in a loop,
  // but with the loop inside so the k-lane samplers advance all their
  // lanes in one call.
  void NextStreams(size_t base, std::span<uint32_t> out) {
    LIGHTRW_DCHECK(base + out.size() <= states_.size());
    for (size_t i = 0; i < out.size(); ++i) {
      const uint64_t s = LcgAdvance(states_[base + i]);
      states_[base + i] = s;
      out[i] = Decorrelate(s, base + i);
    }
  }

 private:
  static uint64_t LcgAdvance(uint64_t s) {
    return s * kLcgMultiplier + kLcgIncrement;
  }

  uint32_t Decorrelate(uint64_t shared, size_t stream) const {
    // Per-stream scrambler: xor offset, xorshift mix, odd multiply. Each
    // step is a bijection on 64-bit words, so each stream remains
    // uniform; the stream-specific constants break cross-stream
    // correlation of the shared sequence.
    uint64_t z = shared ^ offsets_[stream];
    z ^= z >> kDecorrelateMixShift;
    z *= multipliers_[stream];
    z ^= z >> kDecorrelateFoldShift;
    return static_cast<uint32_t>(z);
  }

  uint64_t seed_state_;
  std::vector<uint64_t> states_;       // per-stream position in shared seq
  std::vector<uint64_t> offsets_;      // per-stream xor offset
  std::vector<uint64_t> multipliers_;  // per-stream odd multiplier
};

}  // namespace lightrw::rng

#endif  // LIGHTRW_RNG_RNG_H_
