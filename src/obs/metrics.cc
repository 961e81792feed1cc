#include "obs/metrics.h"

#include <algorithm>

#include "util/env_knobs.h"

namespace lg::obs {

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& c : other.counters_) {
    counter(c.name()).value_ += c.value_;
  }
  for (const auto& g : other.gauges_) {
    Gauge& dst = gauge(g.name());
    dst.value_ = g.value_;  // last merge wins; callers merge in index order
    if (g.max_ > dst.max_) dst.max_ = g.max_;
  }
  for (const auto& d : other.distributions_) {
    Distribution& dst = distribution(d.name());
    dst.summary_.merge(d.summary_);
    dst.cdf_.add_all(d.cdf_.sorted_samples());
  }
}

void MetricsRegistry::configure_from_env() {
  enabled_ = util::env_switch("LG_METRICS", enabled_);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  if (const auto it = counter_by_name_.find(name);
      it != counter_by_name_.end()) {
    return *it->second;
  }
  counters_.push_back(Counter(name, &enabled_));
  counter_by_name_.emplace(name, &counters_.back());
  return counters_.back();
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  if (const auto it = gauge_by_name_.find(name); it != gauge_by_name_.end()) {
    return *it->second;
  }
  gauges_.push_back(Gauge(name, &enabled_));
  gauge_by_name_.emplace(name, &gauges_.back());
  return gauges_.back();
}

Distribution& MetricsRegistry::distribution(const std::string& name) {
  if (const auto it = distribution_by_name_.find(name);
      it != distribution_by_name_.end()) {
    return *it->second;
  }
  distributions_.push_back(Distribution(name, &enabled_));
  distribution_by_name_.emplace(name, &distributions_.back());
  return distributions_.back();
}

void MetricsRegistry::reset() {
  for (auto& c : counters_) c.value_ = 0;
  for (auto& g : gauges_) {
    g.value_ = 0.0;
    g.max_ = 0.0;
  }
  for (auto& d : distributions_) {
    d.summary_ = util::Summary{};
    d.cdf_ = util::EmpiricalCdf{};
  }
}

namespace {
template <typename T>
std::vector<const T*> sorted_view(const std::deque<T>& items) {
  std::vector<const T*> out;
  out.reserve(items.size());
  for (const auto& item : items) out.push_back(&item);
  std::sort(out.begin(), out.end(),
            [](const T* a, const T* b) { return a->name() < b->name(); });
  return out;
}
}  // namespace

std::vector<const Counter*> MetricsRegistry::counters() const {
  return sorted_view(counters_);
}

std::vector<const Gauge*> MetricsRegistry::gauges() const {
  return sorted_view(gauges_);
}

std::vector<const Distribution*> MetricsRegistry::distributions() const {
  return sorted_view(distributions_);
}

}  // namespace lg::obs
