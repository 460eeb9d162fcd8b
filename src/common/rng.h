// Deterministic, implementation-independent random sampling.
//
// The standard <random> distributions are not guaranteed to produce the
// same sequences across standard-library implementations, which would
// make "identical results under a fixed seed" a per-toolchain promise.
// The fault-injection and noise layers therefore draw from a splitmix64
// generator with hand-rolled inverse-CDF / Box-Muller transforms: the
// same seed yields bit-identical streams everywhere.
#ifndef MEPIPE_COMMON_RNG_H_
#define MEPIPE_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

namespace mepipe {

// One splitmix64 step (Steele, Lea & Flood; the seeding PRNG of
// xoshiro). Advances `state` and returns a well-mixed 64-bit value.
constexpr std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Maps 64 random bits onto (0, 1) — never returns 0 or 1, so it is safe
// under std::log.
constexpr double UnitUniform(std::uint64_t bits) {
  return (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
}

// Box-Muller: one standard normal from two raw 64-bit draws. Its
// magnitude never exceeds sqrt(-2 ln UnitUniform(u1_bits)), which is what
// lets callers bound noise from the first draw alone.
inline double GaussianFromUniforms(std::uint64_t u1_bits, std::uint64_t u2_bits) {
  const double u1 = UnitUniform(u1_bits);
  const double u2 = UnitUniform(u2_bits);
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.14159265358979323846 * u2);
}

// Tiny deterministic sampler over a splitmix64 stream.
class SplitMixRng {
 public:
  explicit SplitMixRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t NextU64() { return SplitMix64(state_); }
  double NextUniform() { return UnitUniform(NextU64()); }

  // Exponential with the given mean (inverse CDF).
  double NextExponential(double mean) { return -mean * std::log(NextUniform()); }

  // Standard normal via GaussianFromUniforms over the next two draws
  // (the second value of the Box-Muller pair is discarded).
  double NextGaussian() {
    const std::uint64_t u1_bits = NextU64();
    const std::uint64_t u2_bits = NextU64();
    return GaussianFromUniforms(u1_bits, u2_bits);
  }

 private:
  std::uint64_t state_;
};

// Standard normal draw fully determined by `key` — for stateless per-op
// noise where the same key must always yield the same perturbation.
inline double GaussianFromKey(std::uint64_t key) {
  SplitMixRng rng(key);
  return rng.NextGaussian();
}

}  // namespace mepipe

#endif  // MEPIPE_COMMON_RNG_H_
