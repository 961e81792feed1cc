#include "check/invariants.h"

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <unordered_set>

#include "bgp/speaker.h"
#include "bgp/types.h"
#include "topology/as_graph.h"

namespace lg::check {

namespace {

// Index of the first occurrence of the origin (path.back()) — everything at
// or after it is announcement artifact (lead padding put the origin first in
// crafted paths), everything before it is a hop traffic actually crosses.
std::size_t first_origin_index(std::span<const AsId> path) {
  const AsId origin = path.back();
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == origin) return i;
  }
  return path.size() - 1;  // unreachable: back() always matches
}

// The real forwarding chain of `route` as seen from `as`: [as, h0, .., O]
// with consecutive duplicates collapsed (prepend padding repeats an AS
// without adding a hop).
std::vector<AsId> real_chain(AsId as, std::span<const AsId> path) {
  std::vector<AsId> chain{as};
  const std::size_t k = first_origin_index(path);
  for (std::size_t i = 0; i <= k; ++i) {
    if (chain.back() != path[i]) chain.push_back(path[i]);
  }
  return chain;
}

std::string route_detail(AsId as, const Prefix& prefix,
                         const bgp::Route& route) {
  return "as=" + std::to_string(as) + " prefix=" + prefix.str() + " path=" +
         bgp::path_str(route.path) + " neighbor=" +
         std::to_string(route.neighbor);
}

}  // namespace

InvariantChecker::InvariantChecker(const bgp::BgpEngine& engine)
    : engine_(&engine) {}

std::vector<Prefix> InvariantChecker::all_prefixes() const {
  std::set<Prefix> set;
  for (const AsId id : engine_->graph().as_ids()) {
    for (const Prefix& p : engine_->speaker(id).known_prefixes()) {
      set.insert(p);
    }
  }
  return {set.begin(), set.end()};
}

std::vector<Violation> InvariantChecker::check_all() const {
  std::vector<Violation> out;
  check_route_provenance(out);
  check_loop_free(out);
  check_valley_free(out);
  check_poison_absence(out);
  check_adj_out_consistency(out);
  check_fib_lpm(out);
  check_sentinel_coverage(out);
  check_export_fixpoint(out);
  return out;
}

void InvariantChecker::check_route_provenance(
    std::vector<Violation>& out) const {
  const auto prefixes = all_prefixes();
  for (const AsId as : engine_->graph().as_ids()) {
    for (const Prefix& p : prefixes) {
      const bgp::Route* r = engine_->best_route(as, p);
      if (r == nullptr) continue;
      if (r->path.empty()) {
        out.push_back({"route_provenance",
                       "empty path: " + route_detail(as, p, *r)});
        continue;
      }
      // Every announcement in this simulator leads with the sender's ASN
      // (origins lead-pad crafted paths with their own ASN, transit hops
      // prepend themselves), so the first path element names the neighbor
      // the route was learned from.
      if (r->path[0] != r->neighbor) {
        out.push_back({"route_provenance",
                       "first hop != advertising neighbor: " +
                           route_detail(as, p, *r)});
      }
      const auto chain = real_chain(as, r->path);
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        if (!engine_->graph().relationship(chain[i], chain[i + 1])) {
          out.push_back({"route_provenance",
                         "non-adjacent real hops " +
                             std::to_string(chain[i]) + "-" +
                             std::to_string(chain[i + 1]) + ": " +
                             route_detail(as, p, *r)});
        }
      }
    }
  }
}

void InvariantChecker::check_loop_free(std::vector<Violation>& out) const {
  const auto prefixes = all_prefixes();
  for (const AsId as : engine_->graph().as_ids()) {
    const auto& self = engine_->speaker(as);
    for (const Prefix& p : prefixes) {
      const bgp::Route* r = engine_->best_route(as, p);
      if (r == nullptr || r->path.empty()) continue;
      const std::span<const AsId> path = r->path.get();
      // The holder itself: its import filter saw the whole path.
      if (!self.config().loop_detection_disabled &&
          bgp::count_occurrences(path, as) >= self.config().loop_threshold) {
        out.push_back({"loop_free",
                       "own ASN at/above loop threshold: " +
                           route_detail(as, p, *r)});
      }
      // Each real hop y at its first position i exported the suffix that
      // follows it; if that suffix already contained y at or above y's loop
      // threshold, y's import filter should have rejected the route and y
      // could never have re-exported it.
      const std::size_t k = first_origin_index(path);
      std::unordered_set<AsId> seen;
      for (std::size_t i = 0; i < k; ++i) {
        const AsId hop = path[i];
        if (!seen.insert(hop).second) continue;  // judge at first position
        if (!engine_->graph().has_as(hop)) {
          out.push_back({"loop_free",
                         "unknown AS " + std::to_string(hop) +
                             " on real segment: " + route_detail(as, p, *r)});
          continue;
        }
        const auto& cfg = engine_->speaker(hop).config();
        if (cfg.loop_detection_disabled) continue;
        std::size_t suffix_count = 0;
        for (std::size_t j = i + 1; j < path.size(); ++j) {
          if (path[j] == hop) ++suffix_count;
        }
        if (suffix_count >= cfg.loop_threshold) {
          out.push_back({"loop_free",
                         "hop " + std::to_string(hop) +
                             " re-exported a path containing itself: " +
                             route_detail(as, p, *r)});
        }
      }
    }
  }
}

void InvariantChecker::check_valley_free(std::vector<Violation>& out) const {
  const auto prefixes = all_prefixes();
  for (const AsId as : engine_->graph().as_ids()) {
    for (const Prefix& p : prefixes) {
      const bgp::Route* r = engine_->best_route(as, p);
      if (r == nullptr || r->path.empty()) continue;
      const auto chain = real_chain(as, r->path);
      // Gao-Rexford export discipline at every transit hop v: the route
      // came from `next` (toward the origin) and was passed to `prev`
      // (toward the holder), which is only allowed when v learned it from a
      // customer or is exporting it to a customer.
      for (std::size_t j = 1; j + 1 < chain.size(); ++j) {
        const AsId v = chain[j];
        const auto rel_next = engine_->graph().relationship(v, chain[j + 1]);
        const auto rel_prev = engine_->graph().relationship(v, chain[j - 1]);
        if (!rel_next || !rel_prev) continue;  // flagged by provenance check
        if (*rel_next != topo::Rel::kCustomer &&
            *rel_prev != topo::Rel::kCustomer) {
          out.push_back({"valley_free",
                         "valley at " + std::to_string(v) + ": " +
                             route_detail(as, p, *r)});
        }
      }
    }
  }
}

void InvariantChecker::check_poison_absence(
    std::vector<Violation>& out) const {
  const auto prefixes = all_prefixes();
  const auto& ids = engine_->graph().as_ids();
  for (const Prefix& p : prefixes) {
    std::vector<AsId> origins;
    for (const AsId id : ids) {
      if (engine_->speaker(id).originates(p)) origins.push_back(id);
    }
    if (origins.size() != 1) continue;  // ambiguous provenance: skip
    const AsId origin = origins[0];
    const auto* policy = engine_->speaker(origin).origin_policy(p);
    if (policy == nullptr) continue;
    // The announced variants: one per neighbor, deduplicated by content.
    std::vector<bgp::AsPath> variants;
    for (const auto& n : engine_->graph().neighbors(origin)) {
      const auto& path = policy->path_for(n.id);
      if (!path) continue;
      bgp::AsPath v(path->begin(), path->end());
      if (std::find(variants.begin(), variants.end(), v) == variants.end()) {
        variants.push_back(std::move(v));
      }
    }
    if (variants.empty()) continue;
    // Candidate poisoned ASes: mentioned in some variant, not the origin.
    std::set<AsId> candidates;
    for (const auto& v : variants) {
      for (const AsId hop : v) {
        if (hop != origin && engine_->graph().has_as(hop)) {
          candidates.insert(hop);
        }
      }
    }
    for (const AsId a : candidates) {
      const auto& cfg = engine_->speaker(a).config();
      if (cfg.loop_detection_disabled) continue;
      const bool poisoned_everywhere =
          std::all_of(variants.begin(), variants.end(),
                      [&](const bgp::AsPath& v) {
                        return bgp::count_occurrences(v, a) >=
                               cfg.loop_threshold;
                      });
      if (!poisoned_everywhere) continue;
      // A appears at/above its loop threshold in every announced variant:
      // its import filter rejects every derivation, so A holds no route and
      // no best path anywhere routes traffic through A.
      if (engine_->best_route(a, p) != nullptr) {
        out.push_back({"poison_absence",
                       "poisoned AS " + std::to_string(a) +
                           " still holds a route for " + p.str()});
      }
      for (const AsId x : ids) {
        const bgp::Route* r = engine_->best_route(x, p);
        if (r == nullptr || r->path.empty()) continue;
        if (bgp::path_traverses(r->path, a, origin)) {
          out.push_back({"poison_absence",
                         "best path traverses poisoned AS " +
                             std::to_string(a) + ": " +
                             route_detail(x, p, *r)});
        }
      }
    }
  }
}

void InvariantChecker::check_adj_out_consistency(
    std::vector<Violation>& out) const {
  for (const AsId s : engine_->graph().as_ids()) {
    const auto& sender = engine_->speaker(s);
    for (const Prefix& p : sender.known_prefixes()) {
      for (const auto& n : engine_->graph().neighbors(s)) {
        const auto adv_state = sender.adj_out_state(p, n.id);
        const auto& receiver = engine_->speaker(n.id);
        // The receiver's Adj-RIB-In entry learned from s, if any.
        std::optional<bgp::Route> entry;
        for (const bgp::Route& r : receiver.rib_in(p)) {
          if (r.neighbor == s) {
            entry = r;
            break;
          }
        }
        const std::string where = "session " + std::to_string(s) + "->" +
                                  std::to_string(n.id) + " prefix " +
                                  p.str();
        if (adv_state != bgp::BgpSpeaker::AdjOutState::kAdvertised) {
          // Nothing advertised (or explicitly withdrawn): the neighbor must
          // not be holding a route from us.
          if (entry) {
            out.push_back({"adj_out_consistency",
                           "receiver holds a route the sender's Adj-RIB-Out "
                           "does not advertise: " +
                               where});
          }
          continue;
        }
        const bgp::BgpSpeaker::ExportUnit unit = *sender.adj_out_unit(p, n.id);
        // Replicate the receiver's import filter: a rejected advertisement
        // legitimately leaves no RIB entry.
        const auto& rcfg = receiver.config();
        bool acceptable = true;
        if (!rcfg.loop_detection_disabled &&
            bgp::count_occurrences(unit.path, n.id) >= rcfg.loop_threshold) {
          acceptable = false;
        }
        if (acceptable && rcfg.reject_customer_routes_containing_my_peers &&
            engine_->graph().relationship(n.id, s) == topo::Rel::kCustomer) {
          for (const AsId hop : unit.path) {
            if (engine_->graph().relationship(n.id, hop) ==
                topo::Rel::kPeer) {
              acceptable = false;
              break;
            }
          }
        }
        if (acceptable && rcfg.path_length_limit > 0 &&
            unit.path.size() > rcfg.path_length_limit) {
          acceptable = false;
        }
        if (acceptable && rcfg.peerlock_filter) {
          const auto& locked = engine_->locked_ases();
          for (std::size_t i = 1; i < unit.path.size(); ++i) {
            const AsId lk = unit.path[i];
            if (lk == n.id) continue;
            if (!std::binary_search(locked.begin(), locked.end(), lk)) {
              continue;
            }
            const AsId in_front = unit.path[i - 1];
            if (std::binary_search(locked.begin(), locked.end(), in_front)) {
              continue;
            }
            if (engine_->graph().relationship(in_front, lk) ==
                topo::Rel::kProvider) {
              continue;
            }
            acceptable = false;
            break;
          }
        }
        if (!acceptable) {
          if (entry) {
            out.push_back({"adj_out_consistency",
                           "receiver holds a route its import filter "
                           "rejects: " +
                               where});
          }
          continue;
        }
        if (!entry) {
          out.push_back({"adj_out_consistency",
                         "advertised route missing from receiver RIB "
                         "(lost update): " +
                             where});
          continue;
        }
        if (!(entry->path == unit.path) ||
            entry->communities != unit.communities ||
            entry->avoid_hint != unit.avoid_hint) {
          out.push_back({"adj_out_consistency",
                         "receiver RIB disagrees with sender Adj-RIB-Out "
                         "(stale update applied): " +
                             where + " sender=" + bgp::path_str(unit.path) +
                             " receiver=" + bgp::path_str(entry->path)});
        }
      }
    }
  }
}

void InvariantChecker::check_fib_lpm(std::vector<Violation>& out) const {
  const auto prefixes = all_prefixes();
  // Representative probe addresses: both edges of every known prefix.
  std::vector<topo::Ipv4> addrs;
  addrs.reserve(prefixes.size() * 2);
  for (const Prefix& p : prefixes) {
    addrs.push_back(p.first_address());
    if (p.last_address() != p.first_address()) {
      addrs.push_back(p.last_address());
    }
  }
  for (const AsId as : engine_->graph().as_ids()) {
    const auto& spk = engine_->speaker(as);
    for (const topo::Ipv4 dst : addrs) {
      const bgp::FibResult fib = spk.fib_lookup(dst);
      // Naive LPM over the public API: most specific covering prefix with
      // origin state or a best route wins.
      bgp::FibResult want;
      for (int len = 32; len >= 0 && !want.has_route; --len) {
        const Prefix cand(dst, static_cast<std::uint8_t>(len));
        if (spk.originates(cand)) {
          want = bgp::FibResult{.has_route = true,
                                .local = true,
                                .via_default = false,
                                .next_hop = as,
                                .matched = cand};
        } else if (const bgp::Route* r = spk.best_route(cand)) {
          want = bgp::FibResult{
              .has_route = true,
              .local = false,
              .via_default = false,
              .next_hop = spk.forced_egress().value_or(r->neighbor),
              .matched = cand};
        }
      }
      if (!want.has_route && spk.config().has_default_route) {
        if (const auto gw = spk.default_gateway()) {
          want = bgp::FibResult{.has_route = true,
                                .local = false,
                                .via_default = true,
                                .next_hop = *gw,
                                .matched = Prefix(0, 0)};
        }
      }
      if (fib.has_route != want.has_route || fib.local != want.local ||
          fib.via_default != want.via_default ||
          (fib.has_route && !fib.via_default &&
           (fib.next_hop != want.next_hop || fib.matched != want.matched)) ||
          (fib.has_route && fib.via_default &&
           fib.next_hop != want.next_hop)) {
        out.push_back({"fib_lpm",
                       "fib_lookup disagrees with naive LPM: as=" +
                           std::to_string(as) + " dst=" +
                           topo::format_ipv4(dst) + " fib(matched=" +
                           fib.matched.str() + ",next=" +
                           std::to_string(fib.next_hop) + ") want(matched=" +
                           want.matched.str() + ",next=" +
                           std::to_string(want.next_hop) + ")"});
      }
    }
  }
}

void InvariantChecker::check_sentinel_coverage(
    std::vector<Violation>& out) const {
  const auto prefixes = all_prefixes();
  const auto& ids = engine_->graph().as_ids();
  for (const Prefix& p : prefixes) {
    const Prefix sentinel = p.parent();
    if (sentinel == p ||
        std::find(prefixes.begin(), prefixes.end(), sentinel) ==
            prefixes.end()) {
      continue;
    }
    // The paper's deployment: one origin announces both the production
    // prefix and its covering less-specific sentinel.
    std::optional<AsId> origin;
    for (const AsId id : ids) {
      if (engine_->speaker(id).originates(p) &&
          engine_->speaker(id).originates(sentinel)) {
        origin = id;
        break;
      }
    }
    if (!origin) continue;
    for (const AsId x : ids) {
      if (x == *origin) continue;
      const auto& spk = engine_->speaker(x);
      if (spk.originates(p) || spk.best_route(p) != nullptr) continue;
      const bgp::Route* back = spk.best_route(sentinel);
      if (back == nullptr) continue;
      // Captive AS: no route for the specific, but the sentinel survives —
      // production traffic must fall through LPM onto the sentinel route.
      const bgp::FibResult fib = spk.fib_lookup(p.first_address());
      const AsId want_next = spk.forced_egress().value_or(back->neighbor);
      if (!fib.has_route || fib.via_default || fib.matched != sentinel ||
          fib.next_hop != want_next) {
        out.push_back({"sentinel_coverage",
                       "captive AS " + std::to_string(x) +
                           " does not fall back onto sentinel " +
                           sentinel.str() + " for " + p.str()});
      }
    }
  }
}

void InvariantChecker::check_export_fixpoint(
    std::vector<Violation>& out) const {
  for (const AsId s : engine_->graph().as_ids()) {
    const auto& sender = engine_->speaker(s);
    for (const Prefix& p : sender.known_prefixes()) {
      for (const auto& n : engine_->graph().neighbors(s)) {
        const auto current = sender.export_path(p, n.id);
        const auto adv_state = sender.adj_out_state(p, n.id);
        const std::string where = "session " + std::to_string(s) + "->" +
                                  std::to_string(n.id) + " prefix " +
                                  p.str();
        if (adv_state == bgp::BgpSpeaker::AdjOutState::kNeverAdvertised) {
          if (current) {
            out.push_back({"export_fixpoint",
                           "exportable route never advertised: " + where});
          }
          continue;
        }
        if (sender.adj_out_unit(p, n.id) != current) {
          out.push_back({"export_fixpoint",
                         "pending Adj-RIB-Out diff at quiescence: " + where});
        }
      }
    }
  }
}

}  // namespace lg::check
