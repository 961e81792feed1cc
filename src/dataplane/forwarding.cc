#include "dataplane/forwarding.h"

namespace lg::dp {

const char* delivery_status_name(DeliveryStatus s) noexcept {
  switch (s) {
    case DeliveryStatus::kDelivered:
      return "delivered";
    case DeliveryStatus::kNoRoute:
      return "no-route";
    case DeliveryStatus::kDroppedAtAs:
      return "dropped-at-as";
    case DeliveryStatus::kDroppedOnLink:
      return "dropped-on-link";
    case DeliveryStatus::kTtlExceeded:
      return "ttl-exceeded";
  }
  return "?";
}

std::vector<AsId> ForwardResult::as_path() const {
  std::vector<AsId> out;
  for (const auto& hop : hops) {
    if (out.empty() || out.back() != hop.as) out.push_back(hop.as);
  }
  return out;
}

template <bool kRecordHops>
ForwardResult DataPlane::walk(AsId src_as, topo::Ipv4 dst,
                              std::optional<topo::RouterId> from_router,
                              std::optional<AsId> first_hop) const {
  ForwardResult result;
  const AsId dst_owner =
      topo::AddressPlan::owner_of(dst).value_or(topo::kInvalidAs);

  AsId cur = src_as;
  topo::RouterId entry = from_router.value_or(net_->core(src_as));

  for (int hop_budget = kMaxAsHops; hop_budget > 0; --hop_budget) {
    if constexpr (kRecordHops) result.hops.push_back(entry);
    result.final_as = cur;

    auto fib = engine_->fib_lookup(cur, dst);
    // Source-side egress selection: only meaningful at the first AS, and
    // never overrides local delivery.
    if (first_hop && cur == src_as && !(fib.has_route && fib.local)) {
      fib.has_route = true;
      fib.local = false;
      fib.next_hop = *first_hop;
    }
    if (!fib.has_route) {
      result.status = DeliveryStatus::kNoRoute;
      return result;
    }

    if (fib.local) {
      // Deliver inside `cur`: to the addressed router, or the core where
      // hosts (and prefix probe targets) attach.
      if constexpr (kRecordHops) {
        topo::RouterId target = net_->core(cur);
        if (const auto r = topo::AddressPlan::router_of(dst);
            r && r->as == cur) {
          target = *r;
        }
        const auto intra = net_->intra_path(entry, target);
        result.hops.insert(result.hops.end(), intra.begin() + 1, intra.end());
      }
      result.status = DeliveryStatus::kDelivered;
      return result;
    }

    // Transit: a silent blackhole inside `cur` eats the packet at ingress.
    if (failures_->drops_at_as(cur, dst_owner)) {
      result.status = DeliveryStatus::kDroppedAtAs;
      return result;
    }

    const AsId next = fib.next_hop;
    if constexpr (kRecordHops) {
      const auto intra = net_->intra_path(entry, net_->border(cur, next));
      result.hops.insert(result.hops.end(), intra.begin() + 1, intra.end());
    }

    if (failures_->drops_on_link(cur, next, dst_owner)) {
      result.status = DeliveryStatus::kDroppedOnLink;
      return result;
    }

    if constexpr (kRecordHops) entry = net_->border(next, cur);
    cur = next;
  }
  result.status = DeliveryStatus::kTtlExceeded;
  return result;
}

ForwardResult DataPlane::forward(AsId src_as, topo::Ipv4 dst,
                                 std::optional<topo::RouterId> from_router,
                                 std::optional<AsId> first_hop) const {
  return walk<true>(src_as, dst, from_router, first_hop);
}

ForwardResult DataPlane::reach(AsId src_as, topo::Ipv4 dst) const {
  return walk<false>(src_as, dst, std::nullopt, std::nullopt);
}

}  // namespace lg::dp
