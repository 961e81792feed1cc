// Deterministic pseudo-random number generation for simulations.
//
// All randomness in the simulator flows through lg::util::Rng so that every
// experiment is reproducible from a single 64-bit seed. The generator is
// PCG32 (O'Neill), seeded via SplitMix64; both are tiny, fast, and have
// well-understood statistical quality, which matters because topology
// generation and failure sampling draw millions of variates per run.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace lg::util {

// SplitMix64: used to expand a user seed into stream/state initialisers.
constexpr std::uint64_t split_mix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// One uniform [0, 1) draw fully determined by (seed, kind, key, n): the
// stateless draw behind the fault plane, the adversary plane and the
// destabilizer schedule. No shared stream exists, so query order, query
// count and the asking thread cannot change a verdict; distinct `kind` tags
// keep draws for the same key independent.
constexpr double hash_unit(std::uint64_t seed, std::uint64_t kind,
                           std::uint64_t key, std::uint64_t n) noexcept {
  std::uint64_t state = seed ^ kind;
  state = split_mix64(state) ^ key;
  state = split_mix64(state) ^ n;
  return static_cast<double>(split_mix64(state) >> 11) * 0x1.0p-53;
}

// PCG32 generator with an explicit stream id, UniformRandomBitGenerator
// compatible so it can also drive <random> distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint32_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 0xda3e39cb94b95bdbULL) noexcept {
    std::uint64_t sm = seed;
    state_ = split_mix64(sm);
    inc_ = (split_mix64(sm) ^ stream) | 1ULL;
    (void)next_u32();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next_u32(); }

  std::uint32_t next_u32() noexcept {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18U) ^ old) >> 27U);
    const auto rot = static_cast<std::uint32_t>(old >> 59U);
    return (xorshifted >> rot) | (xorshifted << ((32U - rot) & 31U));
  }

  std::uint64_t next_u64() noexcept {
    return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  }

  // Uniform in [0, bound). Lemire's unbiased multiply-shift rejection method.
  std::uint32_t uniform_u32(std::uint32_t bound) noexcept;

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  bool bernoulli(double p) noexcept { return uniform01() < p; }

  // Exponential with given mean (mean = 1/lambda).
  double exponential(double mean) noexcept;

  // Standard normal via Box-Muller (caches the second variate).
  double normal(double mu = 0.0, double sigma = 1.0) noexcept;

  // Pareto with scale x_min > 0 and shape alpha > 0.
  double pareto(double x_min, double alpha) noexcept;

  // Zipf-like rank in [0, n) with exponent s (rejection-free inverse-CDF
  // approximation; adequate for workload skew, not for cryptography).
  std::size_t zipf(std::size_t n, double s) noexcept;

  // Sample k distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform_u32(static_cast<std::uint32_t>(i))]);
    }
  }

  // Pick a uniformly random element; container must be non-empty.
  template <typename T>
  const T& pick(const std::vector<T>& v) noexcept {
    return v[uniform_u32(static_cast<std::uint32_t>(v.size()))];
  }

  // Derive an independent child generator (for per-subsystem streams).
  Rng fork(std::uint64_t stream_tag) noexcept {
    return Rng{next_u64(), stream_tag};
  }

  // ---- Checkpoint/restore ----
  // The complete generator state, exposed so a snapshotted simulation can
  // resume its random streams mid-sequence (lg::fleet checkpoint/restore).
  // The cached Box-Muller variate is part of the state: dropping it would
  // desynchronize every draw after the next normal().
  struct State {
    std::uint64_t state = 0;
    std::uint64_t inc = 0;
    bool have_cached_normal = false;
    double cached_normal = 0.0;
  };
  State save_state() const noexcept {
    return State{state_, inc_, have_cached_normal_, cached_normal_};
  }
  void restore_state(const State& s) noexcept {
    state_ = s.state;
    inc_ = s.inc;
    have_cached_normal_ = s.have_cached_normal;
    cached_normal_ = s.cached_normal;
  }

 private:
  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace lg::util
