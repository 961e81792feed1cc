#include "util/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace lg::util {

void require_period(const char* field, double seconds) {
  if (!(seconds > 0.0) || !std::isfinite(seconds)) {
    throw std::invalid_argument(std::string(field) +
                                ": must be a positive period in seconds, got " +
                                std::to_string(seconds));
  }
}

void Scheduler::at(SimTime when, Callback cb) {
  if (when < now_) when = now_;
  const std::uint64_t seq = next_seq_++;
  heap_.push_back(Event{when, seq});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  callbacks_.emplace(seq, std::move(cb));
  if (heap_.size() > max_pending_) max_pending_ = heap_.size();
}

void Scheduler::execute_top() {
  const Event ev = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  const auto it = callbacks_.find(ev.seq);
  Callback cb = std::move(it->second);
  callbacks_.erase(it);
  now_ = std::max(now_, ev.when);
  ++executed_;
  cb();
}

bool Scheduler::step(SimTime until) {
  if (heap_.empty() || heap_.front().when > until) return false;
  execute_top();
  return true;
}

std::size_t Scheduler::step_batch(SimTime until) {
  if (heap_.empty() || heap_.front().when > until) return 0;
  const SimTime due = heap_.front().when;
  std::size_t n = 0;
  // Events scheduled *during* the batch at the same instant join it (they
  // sort after everything already pending at `due`), matching the one-at-a-
  // time loop exactly.
  while (!heap_.empty() && heap_.front().when == due) {
    execute_top();
    ++n;
  }
  return n;
}

std::size_t Scheduler::run(SimTime until) {
  std::size_t n = 0;
  for (std::size_t batch = step_batch(until); batch != 0;
       batch = step_batch(until)) {
    n += batch;
  }
  // Advance the clock to the bound: everything due before it has run.
  if (until != kForever && now_ < until) now_ = until;
  return n;
}

void Scheduler::restore_state(const State& s) {
  if (!heap_.empty()) {
    throw std::runtime_error(
        "Scheduler::restore_state: queue not drained (" +
        std::to_string(heap_.size()) + " pending events)");
  }
  now_ = s.now;
  executed_ = s.executed;
  max_pending_ = s.max_pending;
}

}  // namespace lg::util
