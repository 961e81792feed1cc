// CommunitiesRef: an immutable, ref-counted community set.
//
// The same sharing argument as PathRef (path_ref.h), applied to the other
// per-route attribute vector: one announcement's communities fan out into the
// UpdateMessage, the receiver's Adj-RIB-In Route, the promoted best Route,
// and — because Gao-Rexford re-export forwards communities unmodified unless
// the speaker strips them — every downstream Adj-RIB-Out entry and re-sent
// UpdateMessage. With a plain std::vector each stage copies; at Internet
// scale (70k speakers x degree slots) those copies dominate RIB memory.
// CommunitiesRef interns the set into one shared immutable buffer, so a
// route's communities cost 16 bytes per holder plus one shared allocation
// per *distinct* set per origination.
//
// The empty set — the overwhelmingly common case — holds nullptr and never
// allocates. Buffers are immutable after construction, so sharing across
// lg::run trial workers is safe (atomic refcounts); to modify, build a new
// Communities and wrap it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

namespace lg::bgp {

using Community = std::uint32_t;
using Communities = std::vector<Community>;

class CommunitiesRef {
 public:
  CommunitiesRef() = default;  // the empty set, no allocation

  // Implicit by design, mirroring PathRef: every Communities producer
  // (origin policies, literals in tests) yields a CommunitiesRef at the
  // assignment site.
  CommunitiesRef(Communities comm)
      : data_(comm.empty()
                  ? nullptr
                  : std::make_shared<const Communities>(std::move(comm))) {}
  CommunitiesRef(std::initializer_list<Community> values)
      : CommunitiesRef(Communities(values)) {}

  // The shared buffer (a static empty vector when unset). The reference is
  // valid as long as any CommunitiesRef sharing the buffer lives.
  const Communities& get() const noexcept {
    return data_ ? *data_ : empty_set();
  }
  operator const Communities&() const noexcept { return get(); }

  bool empty() const noexcept { return data_ == nullptr || data_->empty(); }
  std::size_t size() const noexcept { return data_ ? data_->size() : 0; }
  Community operator[](std::size_t i) const noexcept { return (*data_)[i]; }
  auto begin() const noexcept { return get().begin(); }
  auto end() const noexcept { return get().end(); }

  // Content equality, with a same-buffer fast path (shared buffers make it
  // the common path on re-export diff checks).
  friend bool operator==(const CommunitiesRef& a,
                         const CommunitiesRef& b) noexcept {
    return a.data_ == b.data_ || a.get() == b.get();
  }
  friend bool operator==(const CommunitiesRef& a,
                         const Communities& b) noexcept {
    return a.get() == b;
  }

 private:
  static const Communities& empty_set() noexcept;

  std::shared_ptr<const Communities> data_;
};

}  // namespace lg::bgp
