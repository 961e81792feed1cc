// SharedArray: an immutable, ref-counted array in one allocation, held
// through one 8-byte pointer.
//
// PathRef (path_ref.h) and CommunitiesRef (communities_ref.h) are its two
// instances. A buffer is one block: a header (the holder count and the
// element count) with the elements inline behind it. A holder is one
// pointer, a buffer one allocation, and reading an element one pointer hop.
// The empty array holds no block and never allocates, so every empty ref
// compares equal and shares nothing.
//
// Blocks are immutable after construction, so refs may be copied and
// dropped on different lg::run trial threads. The holder count is bumped
// relaxed (a new holder copies from a ref that already keeps the block
// alive) and dropped acq_rel (the last holder frees the block after every
// other holder's reads). It is 32 bits: wrapping it would take 2^32 refs,
// 32 GiB of holders alone. `Tag` keeps instances over the same element type
// (AS ids and communities are both uint32_t) distinct types.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace lg::bgp {

template <class T, class Tag>
class SharedArray {
  struct Block {
    std::atomic<std::uint32_t> refs{1};
    std::uint32_t size = 0;
  };
  static_assert(std::is_trivially_copyable_v<T> &&
                sizeof(Block) % alignof(T) == 0);

 public:
  // Container traits, so test failures print a ref's elements.
  using value_type = T;
  using const_iterator = const T*;

  SharedArray() noexcept = default;  // the empty array, no allocation

  // Implicit by design: every vector producer (baseline_path, policy
  // communities, literals in tests) yields a ref at the assignment site.
  SharedArray(const std::vector<T>& values)
      : SharedArray(std::span<const T>(values)) {}
  SharedArray(std::initializer_list<T> values)
      : SharedArray(std::span<const T>(values.begin(), values.size())) {}

  // A new buffer of `n` elements, written by `fill(std::span<T>)` before
  // anything can share it (no temporary vector). n == 0 allocates nothing.
  template <class Fill>
  static SharedArray make(std::size_t n, Fill&& fill) {
    SharedArray out;
    if (n == 0) return out;
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("SharedArray: too many elements");
    }
    void* raw = ::operator new(sizeof(Block) + n * sizeof(T));
    out.block_ = ::new (raw) Block;
    out.block_->size = static_cast<std::uint32_t>(n);
    T* first = reinterpret_cast<T*>(out.block_ + 1);
    std::uninitialized_default_construct_n(first, n);
    fill(std::span<T>(first, n));
    return out;
  }

  SharedArray(const SharedArray& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  SharedArray(SharedArray&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  SharedArray& operator=(const SharedArray& other) noexcept {
    // Re-assigning the held buffer (self-assignment included) is a no-op.
    if (block_ != other.block_) {
      if (other.block_ != nullptr) {
        other.block_->refs.fetch_add(1, std::memory_order_relaxed);
      }
      release();
      block_ = other.block_;
    }
    return *this;
  }
  SharedArray& operator=(SharedArray&& other) noexcept {
    if (this != &other) {
      release();
      block_ = std::exchange(other.block_, nullptr);
    }
    return *this;
  }
  ~SharedArray() { release(); }

  // The elements, valid as long as any ref sharing the buffer lives.
  std::span<const T> get() const noexcept { return {data(), size()}; }
  operator std::span<const T>() const noexcept { return get(); }
  // The buffer's identity: copies share it, equal contents in separate
  // buffers do not; null when empty.
  const void* buffer() const noexcept { return block_; }

  bool empty() const noexcept { return block_ == nullptr; }
  std::size_t size() const noexcept {
    return block_ == nullptr ? 0 : block_->size;
  }
  T operator[](std::size_t i) const noexcept { return data()[i]; }
  T front() const noexcept { return data()[0]; }
  T back() const noexcept { return data()[size() - 1]; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size(); }

  // Content equality, with a same-buffer fast path (shared buffers make it
  // the common path on re-export diff checks).
  friend bool operator==(const SharedArray& a, const SharedArray& b) noexcept {
    return a.block_ == b.block_ || std::ranges::equal(a.get(), b.get());
  }
  friend bool operator==(const SharedArray& a,
                         const std::vector<T>& b) noexcept {
    return std::ranges::equal(a.get(), b);
  }

 private:
  explicit SharedArray(std::span<const T> values)
      : SharedArray(make(values.size(), [&](std::span<T> out) {
          std::copy(values.begin(), values.end(), out.begin());
        })) {}

  const T* data() const noexcept {
    return block_ == nullptr
               ? nullptr
               : std::launder(reinterpret_cast<const T*>(block_ + 1));
  }

  void release() noexcept {
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      block_->~Block();
      ::operator delete(block_);
    }
    block_ = nullptr;
  }

  Block* block_ = nullptr;
};

}  // namespace lg::bgp
