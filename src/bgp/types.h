// Core BGP value types: AS paths (including crafted/poisoned ones), routes,
// update messages, and origin announcement policies.
//
// AS_PATH convention: index 0 is the *leftmost* (most recently prepended) AS,
// the back is the origin. The paper's "O-A-O" poisoned announcement is the
// vector {O, A, O}: neighbors see O as the next hop, A in the middle triggers
// A's loop prevention, O at the end keeps the registered origin.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/communities_ref.h"
#include "bgp/path_ref.h"
#include "topology/as_graph.h"
#include "topology/prefix.h"

namespace lg::bgp {

using topo::AsId;
using topo::Prefix;

// BGP community attribute values (RFC 1997 style, opaque 32-bit tags). The
// paper probes communities as a possible AVOID_PROBLEM notification channel
// (§2.3) and finds they are not viable: many networks strip them, so they
// never reach arbitrary ASes. `Community`/`Communities` are defined in
// communities_ref.h next to the interned CommunitiesRef wrapper that routes
// and update messages carry.

std::string path_str(const AsPath& path);

// Number of times `as` appears in `path` (loop detection input).
std::size_t count_occurrences(const AsPath& path, AsId as);

// True if any element of `path` is in `set`.
bool path_contains_any(const AsPath& path,
                       const std::vector<AsId>& set);

// Does traffic following `path` actually traverse `as` on the way to
// `origin`? A poisoned announcement embeds the poisoned AS in its crafted
// suffix (O-A-O), so occurrences at or after the first appearance of the
// origin are announcement artifacts, not hops traffic crosses.
bool path_traverses(const AsPath& path, AsId as, AsId origin);

// The paper's hypothetical AVOID_PROBLEM(X, P) primitive (§3): a signed hint
// from P's origin that X is not correctly forwarding P's traffic. Honoring
// ASes *deprioritize* (rather than drop) routes through X — giving the
// Avoidance property for everyone with an alternative, the Backup property
// for everyone without, and the Notification property at X itself. This is
// the clean mechanism poisoning approximates; the primitive is implemented
// so the two can be compared head-to-head (bench/avoid_problem_primitive).
struct AvoidHint {
  AsId as = topo::kInvalidAs;                // avoid this AS...
  std::optional<topo::AsLinkKey> link;       // ...or just this link of it
  friend bool operator==(const AvoidHint&, const AvoidHint&) = default;
};

// Would traffic following `path` hit what `hint` tells it to avoid? The
// final element (the true origin) is exempt: a hint can never be about the
// origin itself. For link hints, consecutive distinct path elements are
// treated as AS adjacencies.
bool path_hits_avoid_hint(const AsPath& path, const AvoidHint& hint);

// How a route was learned, for local-pref assignment. Gao-Rexford economics:
// prefer customer routes (they pay), then peer, then provider.
enum class LearnedFrom : std::uint8_t { kCustomer, kPeer, kProvider, kLocal };

int local_pref(LearnedFrom lf) noexcept;
const char* learned_from_name(LearnedFrom lf) noexcept;

struct Route {
  Prefix prefix;
  PathRef path;           // as received (no self-prepend); shared buffer
  AsId neighbor = topo::kInvalidAs;  // who advertised it to us
  LearnedFrom learned = LearnedFrom::kLocal;
  // As received (possibly stripped upstream); interned, shared with the
  // update message it arrived in and every re-export of this route.
  CommunitiesRef communities;
  std::optional<AvoidHint> avoid_hint;  // as received

  std::size_t path_length() const noexcept { return path.size(); }

  friend bool operator==(const Route&, const Route&) = default;
};

// Total order used by the decision process: returns true if `a` is preferred
// over `b`. Local-pref, then shortest AS path, then lowest neighbor AS id
// (deterministic stand-in for the router-id tie-break).
bool better_route(const Route& a, const Route& b) noexcept;

enum class MsgType : std::uint8_t { kAnnounce, kWithdraw };

struct UpdateMessage {
  MsgType type = MsgType::kAnnounce;
  AsId from = topo::kInvalidAs;
  AsId to = topo::kInvalidAs;
  Prefix prefix;
  PathRef path;                // valid iff type == kAnnounce; shared buffer
  CommunitiesRef communities;  // valid iff type == kAnnounce; shared buffer
  std::optional<AvoidHint> avoid_hint;  // valid iff type == kAnnounce

  std::string str() const;
};

// What an origin announces for one of its prefixes, possibly per-neighbor
// (selective advertising / selective poisoning, §3.1.2).
struct OriginPolicy {
  // Default announcement sent to neighbors without an explicit override.
  // nullopt means "do not announce by default". PathRef, so every export of
  // the policy shares one buffer instead of copying the path per neighbor.
  std::optional<PathRef> default_path;
  // Per-neighbor overrides; nullopt value = withhold from that neighbor.
  std::unordered_map<AsId, std::optional<PathRef>> per_neighbor;
  // Communities attached to every announcement of this prefix. Kept as a
  // plain mutable vector (policies are built incrementally by callers); the
  // speaker interns it into a CommunitiesRef once at set_origin_policy.
  Communities communities;
  // AVOID_PROBLEM hint attached to every announcement of this prefix.
  std::optional<AvoidHint> avoid_hint;

  const std::optional<PathRef>& path_for(AsId neighbor) const {
    const auto it = per_neighbor.find(neighbor);
    return it == per_neighbor.end() ? default_path : it->second;
  }
};

// Convenience builders for the announcement shapes the paper uses.
//
// baseline_path(O, 3)            -> {O, O, O}            (prepended baseline)
// poisoned_path(O, {A}, 3)       -> {O, A, O}            (single poison)
// poisoned_path(O, {A, A}, 4)    -> {O, A, A, O}         (double poison, §7.1)
//
// `total_len` pads with leading O's so the poisoned announcement keeps the
// same length as the baseline, which is what makes unaffected ASes converge
// without path exploration (§3.1.1). It must be >= poisons.size() + 2.
AsPath baseline_path(AsId origin, std::size_t total_len);
AsPath poisoned_path(AsId origin, const std::vector<AsId>& poisons,
                     std::size_t total_len);

}  // namespace lg::bgp
