// lg::obs — metrics registry. Named counters, gauges, and distribution
// metrics (backed by lg::util's Summary/EmpiricalCdf) cheap enough to live on
// the simulator's hot paths: instrumented code resolves a handle once (by
// name, typically in a constructor) and every subsequent update is a branch
// on the registry's enabled flag plus an add. No string lookup, no map
// traversal, no allocation per event.
//
// Naming scheme: `lg.<module>.<name>` (e.g. lg.bgp.updates_sent,
// lg.scheduler.events_executed, lg.lifeguard.time_to_repair). See the
// Observability section of DESIGN.md for the full catalogue.
//
// Each registry is single-threaded (plain integers, no atomics), matching
// the simulator, but the process is not: lg::run's TrialRunner runs its
// trials' SimWorlds on several threads at once. Parallel safety comes from
// *scoping*, not locking — every thread reports into its thread-current
// registry (MetricsRegistry::current(), installed via ScopedMetricsRegistry
// and defaulting to the global one; see util/thread_current.h), and
// per-trial registries are merge()d into the global registry sequentially, in
// trial-index order, so merged results are byte-identical for any thread
// count.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/stats.h"
#include "util/thread_current.h"

namespace lg::obs {

class MetricsRegistry;

// Monotonically increasing event count. Handles are stable for the lifetime
// of their registry.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    if (*enabled_) value_ += n;
  }
  // Zero just this counter (registration and handle stay valid). Lets an
  // instrumented subsystem with its own resettable counters (e.g.
  // BgpEngine::reset_counters) keep the registry in lockstep.
  void reset() noexcept { value_ = 0; }
  std::uint64_t value() const noexcept { return value_; }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, const bool* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  std::string name_;
  const bool* enabled_;
  std::uint64_t value_ = 0;
};

// Point-in-time value with a tracked high-water mark.
class Gauge {
 public:
  void set(double v) noexcept {
    if (!*enabled_) return;
    value_ = v;
    if (v > max_) max_ = v;
  }
  // Lift the high-water mark without asserting a new current value.
  void maximize(double v) noexcept {
    if (!*enabled_) return;
    if (v > max_) max_ = v;
  }
  double value() const noexcept { return value_; }
  double max() const noexcept { return max_; }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, const bool* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  std::string name_;
  const bool* enabled_;
  double value_ = 0.0;
  double max_ = 0.0;
};

// Sample distribution: streaming moments plus retained samples so reports
// can export quantiles. Intended for low-rate observations (per-outage
// latencies, per-run convergence times), not per-message hot paths.
class Distribution {
 public:
  void observe(double x) {
    if (!*enabled_) return;
    summary_.add(x);
    cdf_.add(x);
  }
  const util::Summary& summary() const noexcept { return summary_; }
  const util::EmpiricalCdf& cdf() const noexcept { return cdf_; }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  Distribution(std::string name, const bool* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  std::string name_;
  const bool* enabled_;
  util::Summary summary_;
  util::EmpiricalCdf cdf_;
};

// current() is the registry instrumented code resolves handles against:
// the one installed on this thread by ScopedMetricsRegistry, else global().
class MetricsRegistry : public util::ThreadCurrent<MetricsRegistry> {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry merged results and single-threaded runs land in.
  static MetricsRegistry& global();
  static MetricsRegistry& fallback() { return global(); }

  // Fold `other` into this registry: counters add, gauges keep the merged
  // value and the max high-water mark, distributions concatenate. Callers
  // control determinism by merging in a fixed order (trial index).
  void merge(const MetricsRegistry& other);

  // Opt-out switch: with the registry disabled every update is a single
  // predictable branch, so instrumentation can stay compiled-in everywhere.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }
  // Honor the LG_METRICS switch (util::env_switch).
  void configure_from_env();

  // Find-or-create by name. Repeated calls with the same name return the
  // same handle; a name registered as one kind must not be requested as
  // another.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Distribution& distribution(const std::string& name);

  // Zero every metric while keeping registrations (handles stay valid).
  void reset();

  // Name-sorted views.
  std::vector<const Counter*> counters() const;
  std::vector<const Gauge*> gauges() const;
  std::vector<const Distribution*> distributions() const;

  // ---- checkpoint ----
  // Every counter, gauge and distribution by name, each kind name-sorted; a
  // distribution carries its Welford accumulator and its samples. A loaded
  // registry reproduces the saved one's contents verbatim instead of
  // replaying history: loading resets the registry, then find-or-creates
  // each named handle and sets its value as saved, whatever the enabled
  // flag. Handles live instrumented objects hold stay valid and see the
  // loaded values.
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self);

 private:
  static constexpr std::uint32_t kTag = 0x5254454d;  // "METR"
  // v2: every integer a varint.
  static constexpr std::uint32_t kVersion = 2;

  bool enabled_ = true;
  // deque: stable element addresses as the registry grows.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Distribution> distributions_;
  std::unordered_map<std::string, Counter*> counter_by_name_;
  std::unordered_map<std::string, Gauge*> gauge_by_name_;
  std::unordered_map<std::string, Distribution*> distribution_by_name_;
};

template <class Ar, class Self>
void MetricsRegistry::layout(Ar& ar, Self& self) {
  ar.magic(kTag, kVersion);
  if constexpr (Ar::kLoading) self.reset();
  // One kind: its count, then each metric's name and `fields`.
  const auto kind = [&](auto view, auto find, std::size_t min_entry_bytes,
                        auto&& fields) {
    if constexpr (Ar::kLoading) {
      const std::size_t n = ar.count(min_entry_bytes);
      for (std::size_t i = 0; i < n; ++i) fields((self.*find)(ar.str()));
    } else {
      const auto sorted = (self.*view)();
      ar.count(sorted.size(), min_entry_bytes);
      for (const auto* m : sorted) {
        ar.record(min_entry_bytes, [&] {
          ar.str(m->name());
          fields(*m);
        });
      }
    }
  };
  kind(&MetricsRegistry::counters, &MetricsRegistry::counter, 2,
       [&](auto& c) { ar.var(c.value_); });
  kind(&MetricsRegistry::gauges, &MetricsRegistry::gauge, 17, [&](auto& g) {
    ar.f64(g.value_);
    ar.f64(g.max_);
  });
  kind(&MetricsRegistry::distributions, &MetricsRegistry::distribution, 35,
       [&](auto& d) {
         util::Summary::layout(ar, d.summary_);
         util::EmpiricalCdf::layout(ar, d.cdf_);
       });
}

// Makes a registry thread-current, so everything the enclosed code
// instruments (SimWorld, BgpEngine, Prober, ...) reports into it instead of
// the global singleton.
using ScopedMetricsRegistry = util::Scoped<MetricsRegistry>;

}  // namespace lg::obs
