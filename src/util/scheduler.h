// Discrete-event scheduler driving the whole simulation: BGP message
// propagation (with per-session delays and MRAI timers), probe round-trips,
// LIFEGUARD's monitoring rounds, and failure injection all run as events on
// one virtual clock.
//
// Time is a double in *seconds* of simulated time. Events at equal timestamps
// execute in insertion order (stable), which keeps runs deterministic. The
// run loop extracts all events sharing the earliest deadline as one batch
// (step_batch) — same observable order, but one heap scan per *deadline*
// instead of per event, which is what the BGP frontier pump leans on when it
// schedules one tick per delivery quantum.
//
// Events cannot be cancelled. Nothing needs to: the episode stall watchdog
// is a check inside each monitoring round, and a damping re-check whose
// session is no longer suppressed fires and does nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace lg::util {

using SimTime = double;

// Throws std::invalid_argument naming `field` unless `seconds` is a
// positive, finite period. An event that re-schedules itself every zero
// seconds fires at the same instant forever, so every config field that
// drives such a loop is checked before the loop starts.
void require_period(const char* field, double seconds);

class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const noexcept { return now_; }

  // Schedule `cb` to run at absolute time `when` (clamped to now()).
  void at(SimTime when, Callback cb);

  // Schedule `cb` to run `delay` seconds from now.
  void after(SimTime delay, Callback cb) { at(now_ + delay, std::move(cb)); }

  // Run until the queue drains or `until` is reached (whichever first).
  // Returns the number of events executed.
  std::size_t run(SimTime until = kForever);

  // Execute exactly one event if any is pending before `until`.
  bool step(SimTime until = kForever);

  // Batch extraction: execute *every* event sharing the earliest pending
  // deadline (in insertion order), including events that the batch itself
  // schedules at that same instant. Returns the number executed (0 when
  // nothing is due before `until`).
  std::size_t step_batch(SimTime until = kForever);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }
  // High-water mark of pending events (queue depth) over the run.
  std::size_t max_pending() const noexcept { return max_pending_; }

  static constexpr SimTime kForever = 1e300;

  // ---- checkpoint ----
  // A checkpoint barrier is only taken with the queue drained (BGP quiesced,
  // every tick closure retired), so the layout is the clock and the two
  // lifetime counters. Loading throws std::runtime_error if events are
  // pending: closures cannot be serialized, and silently dropping them would
  // be a correctness bug, not a restore.
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self) {
    if constexpr (Ar::kLoading) {
      if (!self.heap_.empty()) {
        throw std::runtime_error(
            "scheduler checkpoint: queue not drained (" +
            std::to_string(self.heap_.size()) + " pending events)");
      }
    }
    ar.f64(self.now_);
    ar.var(self.executed_);
    ar.var(self.max_pending_);
  }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps; callback key
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // Pop the top event and run its callback.
  void execute_top();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t max_pending_ = 0;
  // Binary heap (std::push_heap/pop_heap with Later) of plain events, so a
  // sift moves 16 bytes; the closures stay put in callbacks_.
  std::vector<Event> heap_;
  // seq -> callback; erased when the event fires.
  std::unordered_map<std::uint64_t, Callback> callbacks_;
};

}  // namespace lg::util
