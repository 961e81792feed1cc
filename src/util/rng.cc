#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace lg::util {

std::uint32_t Rng::uniform_u32(std::uint32_t bound) noexcept {
  if (bound <= 1) return 0;
  std::uint64_t m = static_cast<std::uint64_t>(next_u32()) * bound;
  auto lo = static_cast<std::uint32_t>(m);
  if (lo < bound) {
    const std::uint32_t threshold = (0u - bound) % bound;
    while (lo < threshold) {
      m = static_cast<std::uint64_t>(next_u32()) * bound;
      lo = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span <= std::numeric_limits<std::uint32_t>::max()) {
    return lo + static_cast<std::int64_t>(
                    uniform_u32(static_cast<std::uint32_t>(span)));
  }
  // Rare wide ranges: rejection sampling on 64 bits.
  const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() -
                              std::numeric_limits<std::uint64_t>::max() % span;
  std::uint64_t r = next_u64();
  while (r >= limit) r = next_u64();
  return lo + static_cast<std::int64_t>(r % span);
}

double Rng::exponential(double mean) noexcept {
  double u = uniform01();
  while (u <= 0.0) u = uniform01();
  return -mean * std::log(u);
}

double Rng::normal(double mu, double sigma) noexcept {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mu + sigma * cached_normal_;
  }
  double u1 = uniform01();
  while (u1 <= 0.0) u1 = uniform01();
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return mu + sigma * r * std::cos(theta);
}

double Rng::pareto(double x_min, double alpha) noexcept {
  double u = uniform01();
  while (u <= 0.0) u = uniform01();
  return x_min / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::zipf(std::size_t n, double s) noexcept {
  if (n <= 1) return 0;
  // Inverse-CDF on the continuous approximation of the zeta distribution,
  // clamped to [0, n). Good enough for generating skewed workload ranks.
  const double u = uniform01();
  if (s == 1.0) {
    const double hn = std::log(static_cast<double>(n) + 1.0);
    const auto r = static_cast<std::size_t>(std::exp(u * hn)) - 1;
    return r < n ? r : n - 1;
  }
  const double p = 1.0 - s;
  const double max_cdf = (std::pow(static_cast<double>(n) + 1.0, p) - 1.0) / p;
  const double x = std::pow(u * max_cdf * p + 1.0, 1.0 / p) - 1.0;
  const auto r = static_cast<std::size_t>(x);
  return r < n ? r : n - 1;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) k = n;
  std::vector<std::size_t> out;
  out.reserve(k);
  // Floyd's algorithm: O(k) expected insertions without materialising [0, n).
  std::vector<bool> taken(n, false);
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::size_t>(
        uniform_u32(static_cast<std::uint32_t>(j + 1)));
    if (taken[t]) {
      taken[j] = true;
      out.push_back(j);
    } else {
      taken[t] = true;
      out.push_back(t);
    }
  }
  return out;
}

}  // namespace lg::util
