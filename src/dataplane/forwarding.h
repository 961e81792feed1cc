// Hop-by-hop packet forwarding over the current BGP state.
//
// Every probe in the system — pings, traceroute TTL-steps, spoofed probes,
// BGP-convergence loss sampling — walks the data plane one leg at a time, by
// one loop with two entry points. DataPlane::forward() records the
// router-level hops of a leg: the prober uses it for a traceroute's forward
// leg (its true hops) and for reverse traceroutes, and the callers outside
// the prober (scenarios, DNS failover, benches) use it too.
// DataPlane::reach() runs the same walk without hops and reports only the
// status and the AS where the leg ended: the prober uses it for both legs of
// every ping and spoofed ping and for the reply from every traceroute hop
// and destination, paths nobody reads.
//
// Forwarding consults each AS's FIB *as it is right now*, so transient
// inconsistencies during BGP convergence naturally produce loops and
// blackholes (the convergence loss the paper measures in §5.2), and
// injected silent failures drop packets while BGP keeps advertising.
#pragma once

#include <optional>
#include <vector>

#include "bgp/engine.h"
#include "dataplane/failures.h"
#include "dataplane/router_net.h"
#include "topology/addressing.h"
#include "topology/prefix.h"

namespace lg::dp {

enum class DeliveryStatus : std::uint8_t {
  kDelivered,
  kNoRoute,        // some AS had no FIB entry for the destination
  kDroppedAtAs,    // silent blackhole inside an AS
  kDroppedOnLink,  // silent failure on an inter-AS link
  kTtlExceeded,    // forwarding loop (transient during convergence)
};

const char* delivery_status_name(DeliveryStatus s) noexcept;

struct ForwardResult {
  DeliveryStatus status = DeliveryStatus::kNoRoute;
  // Router-level hops actually traversed, starting at the source router.
  std::vector<topo::RouterId> hops;
  // AS where forwarding ended (delivery point or drop point).
  AsId final_as = topo::kInvalidAs;

  bool delivered() const noexcept {
    return status == DeliveryStatus::kDelivered;
  }
  // AS-level view of the traversed path (deduplicated consecutive).
  std::vector<AsId> as_path() const;
};

class DataPlane {
 public:
  DataPlane(const bgp::BgpEngine& engine, const RouterNet& net,
            const FailureInjector& failures)
      : engine_(&engine), net_(&net), failures_(&failures) {}

  // Forward a packet that originates inside `src_as` (at `from_router` if
  // given, else the AS core) toward `dst`. `first_hop` forces the packet out
  // via a specific neighbor of src_as regardless of src_as's FIB — the
  // data-plane analogue of an edge network choosing its egress provider
  // (used for forward-path repair, §2.3, and for probing a specific
  // original path after rerouting).
  ForwardResult forward(AsId src_as, topo::Ipv4 dst,
                        std::optional<topo::RouterId> from_router =
                            std::nullopt,
                        std::optional<AsId> first_hop = std::nullopt) const;

  // forward(src_as, dst) without the hops: the same status and final AS,
  // with `hops` left empty. Neither depends on the router a leg starts at,
  // so it makes no border or intra-AS lookups and allocates nothing.
  ForwardResult reach(AsId src_as, topo::Ipv4 dst) const;

  const RouterNet& net() const noexcept { return *net_; }
  const bgp::BgpEngine& engine() const noexcept { return *engine_; }
  const FailureInjector& failures() const noexcept { return *failures_; }

  static constexpr int kMaxAsHops = 48;

 private:
  // The one walk loop; kRecordHops decides whether it fills `hops`.
  template <bool kRecordHops>
  ForwardResult walk(AsId src_as, topo::Ipv4 dst,
                     std::optional<topo::RouterId> from_router,
                     std::optional<AsId> first_hop) const;

  const bgp::BgpEngine* engine_;
  const RouterNet* net_;
  const FailureInjector* failures_;
};

}  // namespace lg::dp
