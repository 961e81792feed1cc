// VectorPool: a freelist of reusable std::vector buffers.
//
// The BGP engine's frontier pump retires one vector of in-flight updates per
// quantum bucket; at Internet scale that is hundreds of thousands of
// vectors per convergence, each of which would otherwise be destroyed (and
// its heap buffer freed) only to be re-allocated for the next bucket.
// VectorPool keeps retired vectors — cleared but with capacity intact — and
// hands them back on acquire, so steady-state pumping performs no per-bucket
// heap traffic. Pooling is a pure allocation optimisation and never changes
// results.
//
// Not thread-safe: each pool is owned by one engine on one pump thread.
#pragma once

#include <utility>
#include <vector>

namespace lg::mem {

template <typename T>
class VectorPool {
 public:
  // An empty vector, reusing a retired buffer's capacity when available.
  std::vector<T> acquire() {
    if (!spares_.empty()) {
      std::vector<T> out = std::move(spares_.back());
      spares_.pop_back();
      return out;
    }
    return {};
  }

  // Return a vector to the pool. Contents are cleared; capacity is kept.
  void release(std::vector<T>&& v) {
    v.clear();
    spares_.push_back(std::move(v));
  }

  std::size_t spare_count() const noexcept { return spares_.size(); }
  // Capacity held by retired buffers (for rib_memory-style accounting).
  std::size_t spare_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& v : spares_) total += v.capacity() * sizeof(T);
    return total;
  }

 private:
  std::vector<std::vector<T>> spares_;
};

}  // namespace lg::mem
