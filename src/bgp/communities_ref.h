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
// route's communities cost 8 bytes per holder (one pointer) plus one shared
// allocation, the count and the values inline (bgp/shared_array.h), per
// *distinct* set per origination.
//
// The empty set — the overwhelmingly common case — holds nullptr and never
// allocates. Buffers are immutable after construction, so sharing across
// lg::run trial workers is safe (atomic refcounts); to modify, build a new
// Communities and wrap it.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/shared_array.h"

namespace lg::bgp {

using Community = std::uint32_t;
using Communities = std::vector<Community>;

struct CommunitiesTag;
using CommunitiesRef = SharedArray<Community, CommunitiesTag>;
static_assert(sizeof(CommunitiesRef) == 8);

}  // namespace lg::bgp
