#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace lg::util {

void Summary::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Summary::merge(const Summary& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double n = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  mean_ += delta * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double Summary::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Summary::stddev() const noexcept { return std::sqrt(variance()); }

void EmpiricalCdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void EmpiricalCdf::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void EmpiricalCdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::cdf(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double EmpiricalCdf::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size())));
  return samples_[rank == 0 ? 0 : rank - 1];
}

double EmpiricalCdf::mean() const {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

double EmpiricalCdf::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double EmpiricalCdf::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double EmpiricalCdf::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double EmpiricalCdf::mass_fraction_above(double x) const {
  const double total = sum();
  if (total <= 0.0) return 0.0;
  ensure_sorted();
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  const double above = std::accumulate(it, samples_.end(), 0.0);
  return above / total;
}

double EmpiricalCdf::mean_residual(double x) const {
  ensure_sorted();
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  if (it == samples_.end()) return 0.0;
  const auto n = static_cast<double>(samples_.end() - it);
  const double s = std::accumulate(it, samples_.end(), 0.0);
  return s / n - x;
}

double EmpiricalCdf::residual_quantile(double x, double q) const {
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  if (it == samples_.end()) return 0.0;
  const auto n = static_cast<std::size_t>(samples_.end() - it);
  q = std::clamp(q, 0.0, 1.0);
  auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank > 0) --rank;
  return *(it + static_cast<std::ptrdiff_t>(rank)) - x;
}

std::size_t EmpiricalCdf::count_above(double x) const {
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<std::size_t>(samples_.end() - it);
}

const std::vector<double>& EmpiricalCdf::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

LogHistogram::LogHistogram(double min_value, double growth,
                           std::size_t max_buckets)
    : min_value_(min_value > 0.0 ? min_value : 1e-9),
      growth_(growth > 1.0 ? growth : 2.0),
      counts_(max_buckets == 0 ? 1 : max_buckets, 0) {}

std::size_t LogHistogram::bucket_for(double x) const noexcept {
  // log() drift at exact bucket edges would make determinism depend on libm;
  // walk the geometric edges instead (bucket counts are small by design).
  double edge = min_value_;
  for (std::size_t i = 0; i + 1 < counts_.size(); ++i) {
    edge *= growth_;
    if (x < edge) return i;
  }
  return counts_.size() - 1;  // open-ended overflow
}

void LogHistogram::add(double x) noexcept {
  if (total_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++total_;
  sum_ += x;
  if (x < min_value_) {
    ++underflow_;
    return;
  }
  ++counts_[bucket_for(x)];
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
  if (other.total_ == 0) return;
  if (other.min_value_ != min_value_ || other.growth_ != growth_ ||
      other.counts_.size() != counts_.size()) {
    return;
  }
  if (total_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  total_ += other.total_;
  sum_ += other.sum_;
  underflow_ += other.underflow_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

double LogHistogram::bucket_low(std::size_t i) const noexcept {
  double edge = min_value_;
  for (std::size_t k = 0; k < i; ++k) edge *= growth_;
  return edge;
}

double LogHistogram::bucket_high(std::size_t i) const noexcept {
  return bucket_low(i + 1);
}

double LogHistogram::quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(total_)));
  if (rank == 0) rank = 1;
  if (rank <= underflow_) return std::min(min_value_, max_);
  rank -= underflow_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (rank <= counts_[i]) {
      // The last bucket is open-ended: its only honest upper bound is the
      // recorded max. Any other bucket reports its high edge, clamped so a
      // quantile never exceeds the recorded max.
      if (i + 1 == counts_.size()) return max_;
      return std::min(bucket_high(i), max_);
    }
    rank -= counts_[i];
  }
  return max_;
}

double LogHistogram::mean() const noexcept {
  return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
}

}  // namespace lg::util
