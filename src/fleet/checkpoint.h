// Checkpoint layouts for the pieces of a service-plane shard that are not
// owned by any single subsystem: observability registries (metrics, spans,
// trace ring) and token buckets. The byte-identity contract means a
// restored shard's *registries* must match the original process exactly —
// the stdout surface, BENCH_*.json, and span digests are all rendered from
// them — so loading restores saved contents verbatim instead of replaying
// history. Each layout is one function for both archives (util/codec.h);
// registries are rebuilt through their restore APIs on the loading side.
//
// Blob-shape note: every section is magic-tagged so a reader that drifts out
// of sync fails loudly at the next section boundary instead of misparsing
// doubles as counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/budget.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/codec.h"

namespace lg::fleet {

inline constexpr std::uint32_t kRngTag = 0x20474e52;      // "RNG "
inline constexpr std::uint32_t kBucketTag = 0x544b4342;   // "BCKT"
inline constexpr std::uint32_t kMetricsTag = 0x5254454d;  // "METR"
inline constexpr std::uint32_t kSpansTag = 0x4e415053;    // "SPAN"
inline constexpr std::uint32_t kTraceTag = 0x43415254;    // "TRAC"
// v2: every integer a varint.
inline constexpr std::uint32_t kCheckpointVersion = 2;

// TokenBucket mutable state (rate/burst are configuration, rebuilt on
// restore).
template <class Ar, util::MaybeConst<TokenBucket> B>
void serialize(Ar& ar, B& bucket) {
  ar.magic(kBucketTag, kCheckpointVersion);
  TokenBucket::State s = bucket.save_state();
  ar.f64(s.tokens);
  ar.f64(s.last);
  ar.f64(s.spent);
  ar.var(s.granted);
  ar.var(s.denied);
  if constexpr (Ar::kLoading) bucket.restore_state(s);
}

// Metrics: every counter/gauge/distribution by name, in name-sorted order.
// Loading reads every entry, resets `reg`, then find-or-creates each named
// handle — existing handles held by live instrumented objects stay valid
// and see the restored values.
template <class Ar, util::MaybeConst<obs::MetricsRegistry> R>
void serialize(Ar& ar, R& reg) {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
    double max = 0.0;
  };
  struct DistributionEntry {
    std::string name;
    std::uint64_t n = 0;
    double mean = 0.0, m2 = 0.0, min = 0.0, max = 0.0;
    std::vector<double> samples;
  };
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<DistributionEntry> dists;
  if constexpr (!Ar::kLoading) {
    for (const obs::Counter* c : reg.counters()) {
      counters.push_back({c->name(), c->value()});
    }
    for (const obs::Gauge* g : reg.gauges()) {
      gauges.push_back({g->name(), g->value(), g->max()});
    }
    for (const obs::Distribution* d : reg.distributions()) {
      const util::Summary& s = d->summary();
      dists.push_back({d->name(), s.count(), s.mean(), s.m2(), s.min(),
                       s.max(), d->cdf().raw_samples()});
    }
  }

  ar.magic(kMetricsTag, kCheckpointVersion);
  ar.vec(counters, 2, [&](auto& c) {
    ar.str(c.name);
    ar.var(c.value);
  });
  ar.vec(gauges, 17, [&](auto& g) {
    ar.str(g.name);
    ar.f64(g.value);
    ar.f64(g.max);
  });
  ar.vec(dists, 35, [&](auto& d) {
    ar.str(d.name);
    ar.var(d.n);
    ar.f64(d.mean);
    ar.f64(d.m2);
    ar.f64(d.min);
    ar.f64(d.max);
    ar.vec(d.samples, 8, [&](auto& x) { ar.f64(x); });
  });

  if constexpr (Ar::kLoading) {
    reg.reset();
    for (const CounterEntry& c : counters) reg.counter(c.name).restore(c.value);
    for (const GaugeEntry& g : gauges) reg.gauge(g.name).restore(g.value, g.max);
    for (DistributionEntry& d : dists) {
      reg.distribution(d.name).restore(d.n, d.mean, d.m2, d.min, d.max,
                                       std::move(d.samples));
    }
  }
}

// Spans: the id-stream position (seed/sequence/epoch/track) plus every
// record in recording order. Loading clears `reg` and replays records with
// their original ids, so SpanIds held by live episode machines keep
// resolving after a restore.
template <class Ar, util::MaybeConst<obs::SpanRegistry> R>
void serialize(Ar& ar, R& reg) {
  ar.magic(kSpansTag, kCheckpointVersion);
  if constexpr (Ar::kLoading) reg.clear();
  bool enabled = reg.enabled();
  std::uint64_t seed = reg.seed();
  std::uint64_t sequence = reg.sequence();
  std::uint64_t epoch = reg.epoch();
  std::uint32_t track = reg.track();
  ar.b(enabled);
  ar.var(seed);
  ar.var(sequence);
  ar.var(epoch);
  ar.var(track);
  if constexpr (Ar::kLoading) {
    reg.set_enabled(enabled);
    reg.restore_stream(seed, sequence, epoch, track);
  }

  // Span and note names are static strings; loading interns them.
  const auto name = [&](auto& n) {
    std::string s;
    if constexpr (!Ar::kLoading) s = n;
    ar.str(s);
    if constexpr (Ar::kLoading) n = obs::SpanRegistry::intern_name(s);
  };
  // Five varints, an empty name and notes, and the two times.
  constexpr std::size_t kMinRecordBytes = 5 + 2 + 2 * 8;
  const auto record = [&](auto& rec) {
    ar.record(kMinRecordBytes, [&] {
      ar.var(rec.id);
      ar.var(rec.parent);
      name(rec.name);
      ar.f64(rec.begin);
      ar.f64(rec.end);
      ar.var(rec.a);
      ar.var(rec.b);
      ar.var(rec.track);
      ar.vec(rec.notes, 9, [&](auto& note) {
        name(note.first);
        ar.f64(note.second);
      });
    });
  };
  if constexpr (Ar::kLoading) {
    const std::size_t n = ar.count(kMinRecordBytes);
    for (std::size_t i = 0; i < n; ++i) {
      obs::SpanRecord rec;
      record(rec);
      reg.restore_record(rec);
    }
  } else {
    ar.count(reg.records().size(), kMinRecordBytes);
    for (const obs::SpanRecord& rec : reg.records()) record(rec);
  }
}

// Trace ring: lifetime counters plus held events, oldest first.
template <class Ar, util::MaybeConst<obs::TraceRing> T>
void serialize(Ar& ar, T& ring) {
  ar.magic(kTraceTag, kCheckpointVersion);
  if constexpr (Ar::kLoading) ring.clear();
  bool enabled = ring.enabled();
  // recorded() already folds merge-inherited drops in, and dropped() is
  // always recorded() - size(), so the lifetime total plus the held events
  // reproduce both public counters exactly.
  std::uint64_t recorded = ring.recorded();
  std::vector<obs::TraceEvent> events;
  if constexpr (!Ar::kLoading) events = ring.events();
  ar.b(enabled);
  ar.var(recorded);
  ar.vec(events, 19, [&](auto& e) {
    ar.f64(e.t);
    ar.enum8(e.kind,
             static_cast<obs::TraceKind>(
                 static_cast<int>(obs::TraceKind::kCount) - 1),
             "trace kind");
    ar.var(e.a);
    ar.var(e.b);
    ar.f64(e.value);
  });
  if constexpr (Ar::kLoading) {
    ring.set_enabled(enabled);
    ring.restore(recorded, 0, events);
  }
}

}  // namespace lg::fleet
