// Shared plumbing for the lgbench workloads: options, the metric/check
// record each workload fills, and the small timing helpers they share.
//
// Every workload runs on the calling thread (or one TrialRunner worker),
// reports each metric once by name with its unit, and counts correctness
// checks as attempted/failed. Verification is timed separately from the
// measured region so it never leaks into wall_s.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "mem/rss.h"
#include "obs/metrics.h"
#include "run/trial_runner.h"

namespace lgbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measuring budget: timed repetitions stop past it
  bool trace = false;     // per-layer timing (separate traced run)
  bool smoke = false;     // reduced sizes for the benchmark's own tests
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string source;  // workload pass that measured it
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string source;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit, source};
  }
  // One correctness check; failures are named on stderr.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "[lgbench] CHECK FAILED (%s): %s\n",
                   source.c_str(), what.c_str());
    }
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median of a copy (the samples stay in measurement order).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile, q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

inline double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// VmHWM of this process: each workload runs in its own process, so this is
// the workload's own peak.
inline double peak_rss_mb() {
  return static_cast<double>(lg::mem::peak_rss_bytes()) / (1024.0 * 1024.0);
}

// Seed of input `index` of a run: repetitions draw fresh inputs from the
// --seed stream, so one run averages over several inputs of the same size.
inline std::uint64_t input_seed(const Options& opt, std::size_t index) {
  return lg::run::trial_seed(opt.seed, index);
}

template <typename Rep>
struct Repetitions {
  std::vector<Rep> plain;   // untraced repetitions; plain[i] ran input i
  std::vector<Rep> traced;  // traced repetitions; traced[i] ran input i
  double rss_mb = 0.0;      // peak after set-up + the first batch
};

// Timed repetitions of a closed batch: `run(input, traced)` runs input
// number `input` and returns a Rep with its wall_s. An untraced run takes
// one input per repetition; a traced run takes each input twice, untraced
// then traced, so the pair's difference is the tracing overhead. At least
// one input, then more until the measured time reaches --seconds. Peak RSS
// is read after the first batch: later ones only add allocator slack.
template <typename Rep, typename Fn>
Repetitions<Rep> repeat(const Options& opt, const char* name, Fn&& run) {
  Repetitions<Rep> out;
  double measured = 0.0;
  for (std::size_t input = 0; input == 0 || measured < opt.seconds; ++input) {
    for (const bool traced : {false, true}) {
      if (traced && !opt.trace) break;
      Rep rep = run(input, traced);
      measured += rep.wall_s;
      if (input == 0 && !traced) out.rss_mb = peak_rss_mb();
      std::printf("  %s: input %zu%s %.3f s\n", name, input,
                  traced ? " (traced)" : "", rep.wall_s);
      (traced ? out.traced : out.plain).push_back(std::move(rep));
    }
  }
  return out;
}

// Median over repetitions of a per-repetition figure.
template <typename Rep, typename Fn>
double median_of(const std::vector<Rep>& reps, Fn&& figure) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(figure(r));
  return median(std::move(v));
}

// Median traced-minus-untraced wall time over the inputs run both ways.
template <typename Rep>
double trace_overhead_s(const Repetitions<Rep>& runs) {
  std::vector<double> d;
  for (std::size_t i = 0; i < runs.traced.size(); ++i) {
    d.push_back(runs.traced[i].wall_s - runs.plain[i].wall_s);
  }
  return median(std::move(d));
}

// Median over inputs of (sum of the traced layer timings) / (untraced
// wall_s of the same input): how much of the end-to-end time the layer
// metrics account for.
template <typename Rep, typename Fn>
double layer_coverage(const Repetitions<Rep>& runs, Fn&& layer_sum) {
  std::vector<double> c;
  for (std::size_t i = 0; i < runs.traced.size(); ++i) {
    c.push_back(layer_sum(runs.traced[i]) / runs.plain[i].wall_s);
  }
  return median(std::move(c));
}

// Workload entry points. Each fills `out` with its metrics and checks.
void run_internet_repair(const Options& opt, Report& out);
void run_fleet_outages(const Options& opt, Report& out);
void run_service_checkpoint(const Options& opt, Report& out);

}  // namespace lgbench
