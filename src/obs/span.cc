#include "obs/span.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

#include "util/env_knobs.h"
#include "util/rng.h"

namespace lg::obs {

SpanRegistry& SpanRegistry::global() {
  static SpanRegistry reg;
  return reg;
}

void SpanRegistry::configure_from_env() {
  enabled_ = util::env_switch(
      "LG_SPANS", enabled_ || std::getenv("LG_TRACE_OUT") != nullptr);
}

SpanId SpanRegistry::begin(double t, const char* name, SpanId parent,
                           std::uint64_t a, std::uint64_t b) {
  if (!enabled_) return 0;
  // Same id derivation shape as run::trial_seed: spread the sequence across
  // the word, then SplitMix64. Never zero — that is the "no span" value.
  std::uint64_t state = seed_ ^ (0x9e3779b97f4a7c15ULL * (++sequence_));
  SpanId id = util::split_mix64(state);
  if (id == 0) id = sequence_;
  SpanRecord rec;
  rec.id = id;
  rec.parent = parent;
  rec.name = name;
  rec.begin = t;
  rec.a = a;
  rec.b = b;
  rec.track = track_;
  index_.emplace(id, records_.size());
  records_.push_back(std::move(rec));
  return id;
}

void SpanRegistry::end(SpanId id, double t) {
  if (id == 0) return;
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  records_[it->second].end = t;
}

void SpanRegistry::annotate(SpanId id, const char* key, double value) {
  if (id == 0) return;
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  records_[it->second].notes.emplace_back(key, value);
}

void SpanRegistry::reparent(SpanId id, SpanId parent) {
  if (id == 0) return;
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  records_[it->second].parent = parent;
}

void SpanRegistry::merge(const SpanRegistry& other) {
  for (const SpanRecord& rec : other.records_) {
    index_.emplace(rec.id, records_.size());
    records_.push_back(rec);
  }
}

std::size_t SpanRegistry::open_count() const {
  std::size_t n = 0;
  for (const SpanRecord& rec : records_) n += rec.open() ? 1 : 0;
  return n;
}

void SpanRegistry::clear() {
  records_.clear();
  index_.clear();
  scope_.clear();
  sequence_ = 0;
  epoch_ = 0;
}

void SpanRegistry::restore_record(const SpanRecord& rec) {
  index_.emplace(rec.id, records_.size());
  records_.push_back(rec);
}

const char* SpanRegistry::intern_name(const std::string& name) {
  // Deliberately leaked: interned names must outlive every registry,
  // including the global one (static destruction order is not knowable).
  static std::mutex* mu = new std::mutex;
  static auto* pool = new std::unordered_map<std::string, const char*>;
  const std::lock_guard<std::mutex> lock(*mu);
  const auto it = pool->find(name);
  if (it != pool->end()) return it->second;
  auto* stored = new std::string(name);
  pool->emplace(*stored, stored->c_str());
  return stored->c_str();
}

std::string SpanRegistry::digest() const {
  std::string out;
  out.reserve(records_.size() * 96);
  char buf[160];
  for (const SpanRecord& rec : records_) {
    std::snprintf(buf, sizeof(buf),
                  "%016llx parent %016llx track %u %s [%.6f,%.6f] a=%llu "
                  "b=%llu",
                  static_cast<unsigned long long>(rec.id),
                  static_cast<unsigned long long>(rec.parent), rec.track,
                  rec.name, rec.begin, rec.end,
                  static_cast<unsigned long long>(rec.a),
                  static_cast<unsigned long long>(rec.b));
    out += buf;
    for (const auto& [key, value] : rec.notes) {
      std::snprintf(buf, sizeof(buf), " %s=%.6f", key, value);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace lg::obs
