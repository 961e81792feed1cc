// Descriptive statistics used by the experiment harnesses: streaming moment
// accumulation, empirical CDFs (the paper reports nearly everything as a CDF
// or a quantile), and log-bucketed histograms.
#pragma once

#include <cstddef>
#include <vector>

namespace lg::util {

// Streaming mean/variance/min/max via Welford's algorithm.
class Summary {
 public:
  void add(double x) noexcept;
  void merge(const Summary& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  // sample variance (n-1)
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  // ---- checkpoint ----
  // Welford accumulation is floating-point-order dependent, so a snapshot
  // carries the raw accumulator (m2 included) bit-exactly rather than
  // recompute it from summary statistics (util/codec.h archives).
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self) {
    ar.var(self.n_);
    ar.f64(self.mean_);
    ar.f64(self.m2_);
    ar.f64(self.min_);
    ar.f64(self.max_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Empirical distribution over an explicit sample set. Samples are stored and
// sorted lazily; suitable for the tens of thousands of observations the
// experiments produce.
class EmpiricalCdf {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  // P[X <= x].
  double cdf(double x) const;
  // Inverse CDF; q in [0, 1]. Uses the nearest-rank method.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double sum() const;
  double min() const;
  double max() const;

  // Fraction of the *total mass* (sum of samples) contributed by samples
  // strictly greater than x. This is how Fig. 1's dotted line is defined:
  // share of total unavailability due to outages longer than x.
  double mass_fraction_above(double x) const;

  // Mean of (X - x) over samples with X > x: expected residual beyond x.
  // Used for Fig. 5 (residual outage duration).
  double mean_residual(double x) const;
  // Quantile of the residual distribution beyond x.
  double residual_quantile(double x, double q) const;
  // Number of samples strictly greater than x.
  std::size_t count_above(double x) const;

  const std::vector<double>& sorted_samples() const;

  // ---- checkpoint ----
  // The samples as stored, without sorting them first (sorted_samples()
  // sorts in place): a loaded CDF holds them in the same order, so any
  // downstream Welford pass over them stays bit-exact.
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self) {
    ar.vec(self.samples_, 8, [&](auto& x) { ar.f64(x); });
    if constexpr (Ar::kLoading) self.sorted_ = self.samples_.empty();
  }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Log-bucketed (geometric) histogram for latency-style distributions whose
// interesting range spans orders of magnitude — per-phase episode latencies
// run from sub-second probe rounds to multi-hour holddowns, where fixed-width
// bins either blur the head or truncate the tail. Bucket i covers
// [min_value * growth^i, min_value * growth^(i+1)); one extra underflow
// bucket catches x < min_value and the last bucket is open-ended overflow.
// Quantiles are nearest-rank over bucket counts and report the bucket's
// upper bound (a conservative value: the true quantile is <= it).
class LogHistogram {
 public:
  // `growth` > 1 is the per-bucket ratio; `max_buckets` includes the
  // overflow bucket but not the underflow one.
  LogHistogram(double min_value, double growth, std::size_t max_buckets);

  void add(double x) noexcept;
  // Accumulate another histogram. The two must share (min_value, growth,
  // max_buckets); mismatched geometry is ignored (merge of incompatible
  // histograms is a bug upstream, not something to blur statistically).
  void merge(const LogHistogram& other) noexcept;

  std::size_t total() const noexcept { return total_; }
  bool empty() const noexcept { return total_ == 0; }
  std::size_t buckets() const noexcept { return counts_.size(); }
  std::size_t bucket_count(std::size_t i) const { return counts_.at(i); }
  std::size_t underflow() const noexcept { return underflow_; }
  double bucket_low(std::size_t i) const noexcept;
  double bucket_high(std::size_t i) const noexcept;

  // Nearest-rank quantile, q in [0, 1]; returns 0 when empty. Exact for
  // min (underflow reports min_value's low edge as 0) and clamped to the
  // recorded max for the overflow bucket.
  double quantile(double q) const noexcept;
  // Exact mean (running sum / count), unaffected by bucketing.
  double mean() const noexcept;
  double min() const noexcept { return total_ ? min_ : 0.0; }
  double max() const noexcept { return total_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t bucket_for(double x) const noexcept;
  double min_value_;
  double growth_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace lg::util
