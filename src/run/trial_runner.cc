#include "run/trial_runner.h"

#include <exception>
#include <memory>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace lg::run {

std::uint64_t trial_seed(std::uint64_t base_seed, std::size_t index) noexcept {
  // Spread the index across the word before SplitMix64 so sequential trial
  // indices do not land in sequential SplitMix64 streams.
  std::uint64_t state =
      base_seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1));
  return util::split_mix64(state);
}

TrialRunner::TrialRunner(TrialRunnerConfig cfg) : cfg_(cfg) {
  threads_ = cfg_.threads != 0 ? cfg_.threads : util::default_thread_count();
}

void TrialRunner::run_erased(std::size_t n,
                             const std::function<void(TrialContext&)>& body) {
  if (n == 0) return;

  // Destination sinks: whatever is current on the *calling* thread, so
  // nested/scoped uses compose. Capture their switches now; each trial ring
  // inherits the capacity so wraparound behaviour matches a serial run.
  obs::MetricsRegistry& dst_metrics = obs::MetricsRegistry::current();
  obs::TraceRing& dst_trace = obs::TraceRing::current();
  obs::SpanRegistry& dst_spans = obs::SpanRegistry::current();
  const bool metrics_enabled = dst_metrics.enabled();
  const bool trace_enabled = dst_trace.enabled();
  const bool spans_enabled = dst_spans.enabled();
  // One epoch per run() against this destination: folded into every trial's
  // span seed so two sequential runs with identical trial seeds (two bench
  // cells merging into the same registry) cannot collide on span ids.
  const std::uint64_t span_epoch = spans_enabled ? dst_spans.bump_epoch() : 0;
  const std::size_t trace_capacity = dst_trace.capacity();

  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries(n);
  std::vector<std::unique_ptr<obs::TraceRing>> rings(n);
  std::vector<std::unique_ptr<obs::SpanRegistry>> span_regs(n);
  std::vector<std::exception_ptr> errors(n);

  {
    util::ThreadPool pool(threads_);
    for (std::size_t i = 0; i < n; ++i) {
      pool.submit([&, i] {
        auto metrics = std::make_unique<obs::MetricsRegistry>();
        metrics->set_enabled(metrics_enabled);
        auto ring = std::make_unique<obs::TraceRing>(trace_capacity);
        ring->set_enabled(trace_enabled);
        auto spans = std::make_unique<obs::SpanRegistry>();
        spans->set_enabled(spans_enabled);
        const obs::ScopedMetricsRegistry metrics_scope(*metrics);
        const obs::ScopedTraceRing trace_scope(*ring);
        const obs::ScopedSpanRegistry span_scope(*spans);
        TrialContext ctx;
        ctx.index = i;
        ctx.total = n;
        ctx.seed = trial_seed(cfg_.base_seed, i);
        // Span ids derive from (run epoch, trial seed), never the worker
        // thread, and each trial renders on its own Perfetto track.
        std::uint64_t span_seed_state =
            ctx.seed ^ (0x9e3779b97f4a7c15ULL * span_epoch);
        spans->set_seed(util::split_mix64(span_seed_state));
        spans->set_track(static_cast<std::uint32_t>(i));
        ctx.metrics = metrics.get();
        ctx.trace = ring.get();
        ctx.spans = spans.get();
        try {
          body(ctx);
        } catch (...) {
          errors[i] = std::current_exception();
        }
        registries[i] = std::move(metrics);
        rings[i] = std::move(ring);
        span_regs[i] = std::move(spans);
      });
    }
    pool.wait_idle();
  }

  for (const std::exception_ptr& err : errors) {
    if (err) std::rethrow_exception(err);
  }

  for (std::size_t i = 0; i < n; ++i) {
    dst_metrics.merge(*registries[i]);
    dst_trace.merge(*rings[i]);
    dst_spans.merge(*span_regs[i]);
  }
}

}  // namespace lg::run
