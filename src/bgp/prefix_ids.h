// Engine-wide dense prefix ids.
//
// A BgpEngine numbers every prefix the first time it sees one (an
// origination, a delivery, a Prefix-keyed speaker call or a snapshot load),
// 0, 1, 2, ... in that order, and indexes its per-prefix tables by the id:
// each speaker's prefix states and the engine's MRAI tables. The hot path
// carries ids, so a delivery reaches the receiver's state by array index.
// Ids are internal: no id is written to a snapshot or shown in any output,
// and every walk that can reach one goes in ascending prefix order.
//
// The Prefix -> id index is an open-addressing table of ids, so its size is
// exactly what it allocates (rib_memory counts it).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/prefix.h"

namespace lg::bgp {

class PrefixIds {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  // The id of `p`, assigning the next one if `p` is new.
  std::uint32_t intern(const topo::Prefix& p) {
    if (2 * (prefixes_.size() + 1) > slots_.size()) grow();
    std::size_t i = home(p);
    for (; slots_[i] != kNone; i = (i + 1) & mask()) {
      if (prefixes_[slots_[i]] == p) return slots_[i];
    }
    slots_[i] = static_cast<std::uint32_t>(prefixes_.size());
    prefixes_.push_back(p);
    return slots_[i];
  }

  // The id of `p`, or kNone if it has none yet.
  std::uint32_t find(const topo::Prefix& p) const {
    if (slots_.empty()) return kNone;
    for (std::size_t i = home(p); slots_[i] != kNone; i = (i + 1) & mask()) {
      if (prefixes_[slots_[i]] == p) return slots_[i];
    }
    return kNone;
  }

  topo::Prefix prefix(std::uint32_t id) const { return prefixes_[id]; }

  // Every id, in ascending prefix order.
  std::vector<std::uint32_t> in_prefix_order() const {
    std::vector<std::uint32_t> ids(prefixes_.size());
    for (std::uint32_t id = 0; id < ids.size(); ++id) ids[id] = id;
    std::sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
      return prefixes_[a] < prefixes_[b];
    });
    return ids;
  }

  std::size_t bytes() const noexcept {
    return prefixes_.capacity() * sizeof(topo::Prefix) +
           slots_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::size_t mask() const noexcept { return slots_.size() - 1; }
  // Fibonacci hashing: the top bits of a multiplicative hash, because
  // (addr, length) keys vary mostly in bits a power-of-two mask would drop.
  std::size_t home(const topo::Prefix& p) const noexcept {
    const std::uint64_t key =
        static_cast<std::uint64_t>(p.addr()) << 8 | p.length();
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) &
           mask();
  }
  // Keeps the table at most half full, power-of-two sized.
  void grow() {
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), kNone);
    for (std::uint32_t id = 0; id < prefixes_.size(); ++id) {
      std::size_t i = home(prefixes_[id]);
      while (slots_[i] != kNone) i = (i + 1) & mask();
      slots_[i] = id;
    }
  }

  std::vector<topo::Prefix> prefixes_;  // id -> prefix
  std::vector<std::uint32_t> slots_;    // open addressing; kNone = empty
};

}  // namespace lg::bgp
