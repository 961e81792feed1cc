// lg::run — deterministic parallel trial execution.
//
// The reproduction harnesses share one workload shape: N independent trials
// (one poisoning, one replicate outage study, one chunk of reachability
// samples), each driven by its own SimWorld / Rng, aggregated at the end.
// That is embarrassingly parallel, and Internet-scale poisoning studies
// (Smith & Schuchard's curtain-withdrawal work) need thousands of such
// trials for statistical coverage — so the runner is built for "as many
// cores as the hardware allows" without giving up reproducibility:
//
//  * the calling thread and up to threads - 1 workers claim trial indices
//    from one atomic counter, threads taken from LG_THREADS or the hardware
//    (at LG_THREADS=1 every trial runs on the calling thread);
//  * every trial gets an independent seed derived from (base_seed, index)
//    via SplitMix64, so trial i's world is identical no matter which thread
//    runs it or in what order;
//  * every trial gets fresh obs::MetricsRegistry / obs::TraceRing /
//    obs::SpanRegistry instances installed as the thread-current sinks for
//    its duration, so the global singletons are never touched concurrently,
//    and the disabled fault and adversary planes, so a trial on the calling
//    thread sees only the planes it scopes itself, as one on a worker does;
//  * results, metrics, traces and spans are merged in trial-index order on
//    the calling thread once every trial has finished, into the sinks that
//    were current where run() was called (the global ones in a bench main()).
//
// Consequence: output (ASCII tables, BENCH_*.json payloads, merged metrics)
// is byte-identical for any thread count, while wall-clock scales with
// cores.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace lg::run {

// The thread count a run asks for: `requested` when nonzero, else the
// LG_THREADS environment variable when set (a positive integer; anything
// else throws std::invalid_argument, see util/env_knobs.h), else
// std::thread::hardware_concurrency() (minimum 1).
std::size_t thread_count(std::size_t requested);

// The per-trial seed: SplitMix64 over base_seed XOR a spread of the index,
// so neighbouring trials get statistically independent streams.
std::uint64_t trial_seed(std::uint64_t base_seed, std::size_t index) noexcept;

// Handed to each trial body. `metrics`/`trace`/`spans` are the trial-local
// sinks — already installed as the thread-current instances, so code that
// resolves obs::MetricsRegistry::current() (SimWorld, BgpEngine, ...) lands
// in them without ever naming them. The span registry is seeded with the
// trial seed (deterministic ids) and tracked by trial index (one Perfetto
// lane per trial).
struct TrialContext {
  std::size_t index = 0;
  std::size_t total = 0;
  std::uint64_t seed = 0;
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRing* trace = nullptr;
  obs::SpanRegistry* spans = nullptr;
};

struct TrialRunnerConfig {
  // 0 picks thread_count(0) (LG_THREADS env, else hardware).
  std::size_t threads = 0;
  std::uint64_t base_seed = 0x4c464721ULL;  // "LFG!"
};

class TrialRunner {
 public:
  explicit TrialRunner(TrialRunnerConfig cfg = {});

  std::size_t threads() const noexcept { return threads_; }
  std::uint64_t base_seed() const noexcept { return cfg_.base_seed; }

  // Run `n` trials of `fn`, returning fn's results in trial-index order.
  // If any trial throws, the exception of the lowest-index failing trial is
  // rethrown after all trials finish (and nothing is merged).
  template <typename Fn>
  auto run(std::size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, TrialContext&>> {
    using T = std::invoke_result_t<Fn&, TrialContext&>;
    static_assert(!std::is_void_v<T>,
                  "trial bodies must return their per-trial result");
    std::vector<std::optional<T>> slots(n);
    run_erased(n, [&slots, &fn](TrialContext& ctx) {
      slots[ctx.index].emplace(fn(ctx));
    });
    std::vector<T> out;
    out.reserve(n);
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

 private:
  // Non-template core: fan-out, per-trial scoping, ordered merge.
  void run_erased(std::size_t n,
                  const std::function<void(TrialContext&)>& body);

  TrialRunnerConfig cfg_;
  std::size_t threads_ = 1;
};

}  // namespace lg::run
