// Silent data-plane failure injection.
//
// The paper's premise: routers keep *advertising* routes while silently
// failing to *forward* (corrupted line cards, broken MPLS tunnels — §2.1).
// Failures here therefore never touch the BGP control plane; they only drop
// packets in the forwarding loop, optionally scoped to one destination AS
// (partial outage) and one direction (unidirectional failure, the case that
// makes traceroute lie and motivates LIFEGUARD's isolation machinery).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "topology/as_graph.h"

namespace lg::dp {

using topo::AsId;

using FailureId = std::uint64_t;

struct Failure {
  // Exactly one of `at_as` / `at_link` is set.
  //
  // at_as: packets being *forwarded by* this AS are dropped (local delivery
  // to destinations inside the AS still works — the AS is reachable, it just
  // cannot pass traffic onward). This models an AS advertising routes whose
  // data plane is broken.
  std::optional<AsId> at_as;

  // at_link: packets crossing this inter-AS link are dropped.
  std::optional<topo::AsLinkKey> at_link;
  // For link failures: restrict to packets travelling out of `direction_from`
  // (nullopt = both directions fail).
  std::optional<AsId> direction_from;

  // Scope: only drop packets whose destination address is owned by this AS
  // (its production/sentinel/infrastructure space). nullopt = every
  // destination. A "reverse path failure between S and D at A" is
  // Failure{.at_as = A, .toward_as = S}.
  std::optional<AsId> toward_as;

  std::string str() const;
};

class FailureInjector {
 public:
  FailureId inject(Failure failure);
  bool clear(FailureId id);

  // Should a packet currently held by `as`, destined to an address owned by
  // `dst_owner` (kInvalidAs if unowned), be dropped instead of forwarded?
  bool drops_at_as(AsId as, AsId dst_owner) const;

  // Should a packet crossing `from` -> `to` be dropped?
  bool drops_on_link(AsId from, AsId to, AsId dst_owner) const;

  const std::vector<std::pair<FailureId, Failure>>& active() const {
    return active_;
  }

  // ---- checkpoint ----
  // The id counter, then each active failure with its id (util/codec.h
  // archives). The counter survives a restore, so ids issued after resume
  // match the ids the original process would have issued.
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self) {
    ar.var(self.next_id_);
    const auto as = [&](auto& v) { ar.var(v); };
    // An id and four absent fields.
    ar.vec(self.active_, 5, [&](auto& e) {
      ar.var(e.first);
      ar.opt(e.second.at_as, as);
      ar.opt(e.second.at_link,
             [&](auto& k) { topo::AsLinkKey::layout(ar, k); });
      ar.opt(e.second.direction_from, as);
      ar.opt(e.second.toward_as, as);
    });
  }

 private:
  static bool scope_matches(const Failure& f, AsId dst_owner);
  std::vector<std::pair<FailureId, Failure>> active_;
  FailureId next_id_ = 1;
};

}  // namespace lg::dp
