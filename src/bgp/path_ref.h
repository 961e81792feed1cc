// PathRef: an immutable, ref-counted AS path.
//
// A single BGP announcement fans its AS_PATH out into the UpdateMessage, the
// scheduler lambda that delivers it, the receiver's Adj-RIB-In Route, the
// promoted best Route, and the Adj-RIB-Out entries of every neighbor it is
// re-exported to. With plain std::vector that is one heap copy per hop per
// stage — the dominant allocation source on convergence hot paths. PathRef
// interns the hops into one shared immutable buffer at creation (typically
// in BgpSpeaker::export_unit or an origin policy) and every downstream stage
// shares it for the price of a refcount.
//
// A PathRef is one 8-byte pointer to a single allocation holding the count
// and the hops inline (bgp/shared_array.h); get() views the hops as a span.
// The buffer is immutable after construction, so sharing across lg::run
// worker threads is safe (the count is atomic); to modify a path, build a
// new AsPath and wrap it.
#pragma once

#include <vector>

#include "bgp/shared_array.h"
#include "topology/as_graph.h"

namespace lg::bgp {

using AsPath = std::vector<topo::AsId>;

struct PathTag;
using PathRef = SharedArray<topo::AsId, PathTag>;
static_assert(sizeof(PathRef) == 8);

}  // namespace lg::bgp
