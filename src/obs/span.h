// lg::obs — causal span tracing. Where the TraceRing answers "what
// happened", spans answer "where did the minutes go": every span is a named
// [begin, end] interval in *simulated* time with an optional parent, so an
// operator (or the fuzzer's shrinker) can decompose an episode's
// time-to-remediate into detect / isolate / remediate / verify without
// re-deriving causality from flat counters.
//
// Determinism contract (the property every later scale PR leans on):
//  * Span ids are derived from (registry seed, per-registry sequence) via
//    SplitMix64 — never wall clock, never pointers — so the id stream of a
//    trial depends only on its trial seed.
//  * Registries are scoped exactly like MetricsRegistry / TraceRing:
//    instrumented code records into the thread-current registry
//    (ScopedSpanRegistry), and lg::run::TrialRunner merges per-trial
//    registries into the caller's registry in trial-index order.
//  * Consequence: the merged span tree — ids, ordering, parent linkage,
//    annotations — is byte-identical for any LG_THREADS value.
//
// Spans are OFF by default (like the TraceRing): recording allocates, and
// the hot paths must stay a branch-plus-nothing when nobody is looking.
// LG_SPANS enables them; setting LG_TRACE_OUT=<path> (the Perfetto
// exporter, see obs/perfetto.h) implies LG_SPANS for bench harnesses.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/thread_current.h"

namespace lg::obs {

// 0 is "no span": begin() on a disabled registry returns it, and end() /
// annotate() on it are no-ops, so call sites never branch on enablement.
using SpanId = std::uint64_t;

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root
  const char* name = "";  // static-duration string (span names are a fixed
                          // vocabulary, not formatted text)
  double begin = 0.0;     // simulated seconds
  double end = -1.0;      // < 0 while the span is still open
  std::uint64_t a = 0;    // kind-specific (target address, AS, ...)
  std::uint64_t b = 0;
  // Perfetto track the span renders on; TrialRunner sets one per trial so
  // shard timelines stay separate.
  std::uint32_t track = 0;
  // Low-rate key/value annotations (deferral ages, outcome codes). Keys are
  // static strings; duplicates are allowed and kept in record order.
  std::vector<std::pair<const char*, double>> notes;

  bool open() const noexcept { return end < 0.0; }
  double duration() const noexcept { return open() ? 0.0 : end - begin; }
};

// current() is the registry instrumented code records into: the one
// installed on this thread by ScopedSpanRegistry, else global().
class SpanRegistry : public util::ThreadCurrent<SpanRegistry> {
 public:
  SpanRegistry() = default;
  SpanRegistry(const SpanRegistry&) = delete;
  SpanRegistry& operator=(const SpanRegistry&) = delete;

  // Process-wide registry merged results and single-threaded runs land in.
  static SpanRegistry& global();
  static SpanRegistry& fallback() { return global(); }

  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }
  // Honor the LG_SPANS switch (util::env_switch). A set LG_TRACE_OUT makes
  // its default "on", since the Perfetto exporter has nothing to render
  // without spans.
  void configure_from_env();

  // Id-stream base (a trial seed) and Perfetto track. Set by TrialRunner
  // before any begin(); both default to 0 for the global registry.
  void set_seed(std::uint64_t seed) noexcept { seed_ = seed; }
  std::uint64_t seed() const noexcept { return seed_; }
  // Monotone per-registry run counter. TrialRunner bumps this on the
  // destination registry once per run() and folds the value into every
  // trial's span seed, so two sequential runs with identical trial seeds
  // (e.g. two fleet cells in one bench) merge without id collisions.
  std::uint64_t bump_epoch() noexcept { return ++epoch_; }
  void set_track(std::uint32_t track) noexcept { track_ = track; }
  std::uint32_t track() const noexcept { return track_; }

  // Open a span at simulated time `t`. Returns 0 when disabled.
  SpanId begin(double t, const char* name, SpanId parent = 0,
               std::uint64_t a = 0, std::uint64_t b = 0);
  // Close `id` at simulated time `t`. Unknown / zero ids are ignored.
  void end(SpanId id, double t);
  // Attach a (key, value) note to `id`. Unknown / zero ids are ignored.
  void annotate(SpanId id, const char* key, double value);
  // Re-link `id` under `parent` after the fact — for spans whose causal
  // owner appears later (a SUSPECT residency that predates its episode).
  void reparent(SpanId id, SpanId parent);

  // ---- Implicit parenting for call-tree scopes ----
  // Explicit parents serve interleaved long-lived spans (episodes); the
  // scope stack serves strictly nested ones (a convergence pump inside a
  // trial body). begin() does NOT consult the stack — callers opt in by
  // passing scope_top() as the parent.
  void push_scope(SpanId id) { scope_.push_back(id); }
  void pop_scope() {
    if (!scope_.empty()) scope_.pop_back();
  }
  SpanId scope_top() const noexcept {
    return scope_.empty() ? 0 : scope_.back();
  }

  // Append `other`'s records (in their recording order) to this registry.
  // Ids are preserved — they are unique per (seed, sequence) by
  // construction — so parent links keep resolving after the merge. Callers
  // control determinism by merging in a fixed order (trial index).
  void merge(const SpanRegistry& other);

  const std::deque<SpanRecord>& records() const noexcept { return records_; }
  std::size_t size() const noexcept { return records_.size(); }
  // Spans still open (begun, never ended).
  std::size_t open_count() const;
  void clear();

  // Stable multi-line textual digest of every record — equal strings mean
  // byte-identical span trees (the determinism tests diff this).
  std::string digest() const;

  // ---- Checkpoint/restore ----
  // A restored registry must continue the exact id stream of the
  // checkpointed one: same seed, same sequence position, same epoch and
  // track. Records are replayed in recording order via restore_record so
  // ids (and therefore parent links and SpanIds held by live episode
  // machines) stay valid across the restore.
  std::uint64_t sequence() const noexcept { return sequence_; }
  std::uint64_t epoch() const noexcept { return epoch_; }
  void restore_stream(std::uint64_t seed, std::uint64_t sequence,
                      std::uint64_t epoch, std::uint32_t track) noexcept {
    seed_ = seed;
    sequence_ = sequence;
    epoch_ = epoch;
    track_ = track;
  }
  // Append a deserialized record (id preserved, index rebuilt).
  void restore_record(const SpanRecord& rec);
  // Span names are `const char*` with static duration by contract; a
  // deserialized name is interned into a process-lifetime pool so restored
  // records satisfy the same contract (and equal names compare cheaply).
  static const char* intern_name(const std::string& name);

 private:
  bool enabled_ = false;
  std::uint64_t seed_ = 0;
  std::uint64_t sequence_ = 0;
  std::uint64_t epoch_ = 0;  // reset by clear(), like the id sequence
  std::uint32_t track_ = 0;
  std::deque<SpanRecord> records_;
  std::unordered_map<SpanId, std::size_t> index_;
  std::vector<SpanId> scope_;
};

// Makes a registry the thread-current span registry.
using ScopedSpanRegistry = util::Scoped<SpanRegistry>;

}  // namespace lg::obs
