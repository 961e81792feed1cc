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
// Cancelled events leave tombstones in the heap; when tombstones outnumber
// live events the heap is compacted in place, so heavy cancel churn cannot
// grow the queue beyond a constant factor of the live event count. No code
// under src/ cancels today: the episode stall watchdog is a check inside
// each monitoring round, and a damping re-check whose session is no longer
// suppressed fires and does nothing.
#pragma once

#include <cstdint>
#include <functional>
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
  // Returns an id usable with cancel().
  std::uint64_t at(SimTime when, Callback cb);

  // Schedule `cb` to run `delay` seconds from now.
  std::uint64_t after(SimTime delay, Callback cb) {
    return at(now_ + delay, std::move(cb));
  }

  // Cancel a pending event. Returns false if already fired or unknown.
  bool cancel(std::uint64_t id);

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

  bool empty() const noexcept { return live_events_ == 0; }
  std::size_t pending() const noexcept { return live_events_; }
  std::uint64_t executed() const noexcept { return executed_; }
  // High-water mark of pending events (queue depth) over the run.
  std::size_t max_pending() const noexcept { return max_pending_; }
  std::uint64_t cancelled() const noexcept { return cancelled_; }
  // Internal heap depth including tombstones, and how often compaction ran —
  // the regression surface for the tombstone-buildup bound.
  std::size_t queue_depth() const noexcept { return heap_.size(); }
  std::uint64_t compactions() const noexcept { return compactions_; }

  static constexpr SimTime kForever = 1e300;

  // ---- Checkpoint/restore ----
  // A checkpoint barrier is only taken with the queue drained (BGP quiesced,
  // every tick closure retired), so scheduler state reduces to the clock and
  // the lifetime counters. restore_state() throws if events are pending —
  // closures cannot be serialized, and silently dropping them would be a
  // correctness bug, not a restore.
  struct State {
    SimTime now = 0.0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t compactions = 0;
    std::size_t max_pending = 0;
  };
  State save_state() const noexcept {
    return State{now_, executed_, cancelled_, compactions_, max_pending_};
  }
  void restore_state(const State& s);

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // Drop tombstones off the heap top so heap_.front() (if any) is live.
  void prune_top();
  // Rebuild the heap without tombstones once they outnumber live events.
  void maybe_compact();
  // Pop the top event (assumed live) and run its callback.
  void execute_top();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t live_events_ = 0;
  std::size_t max_pending_ = 0;
  // Binary heap (std::push_heap/pop_heap with Later) rather than
  // std::priority_queue: compaction needs to filter the container in place.
  std::vector<Event> heap_;
  // id -> callback; erased on fire/cancel. Cancelled events stay in the
  // heap as tombstones until popped or compacted away.
  std::unordered_map<std::uint64_t, Callback> callbacks_;
};

}  // namespace lg::util
