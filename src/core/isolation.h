// Failure isolation (§4.1): given a vantage point that lost connectivity to
// a target, determine the direction of the failure and the AS (or inter-AS
// link) responsible, using only measurements available from the vantage
// point side — spoofed pings/traceroutes through helper vantage points, the
// historical path atlas, and pings to candidate routers.
//
// The steps mirror §4.1.2:
//   1. confirm the failure (it may have resolved under us),
//   2. isolate direction with spoofed pings,
//   3. measure the path in the working direction,
//   4. test atlas paths in the failing direction by pinging candidate
//      routers from the vantage point (and helpers, to distinguish "dead"
//      from "can't reach *us*"),
//   5. prune to the reachability horizon and blame the first hop past it.
//
// The engine also computes what a traceroute-only diagnosis would have
// blamed, to reproduce the paper's "40% of isolations differ from
// traceroute" result (§5.3).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/atlas.h"
#include "measure/probes.h"
#include "measure/vantage.h"

namespace lg::core {

enum class FailureDirection : std::uint8_t {
  kNone,  // target reachable after all
  kForward,
  kReverse,
  kBidirectional,
};

const char* direction_name(FailureDirection d) noexcept;

struct IsolationResult {
  FailureDirection direction = FailureDirection::kNone;
  // LIFEGUARD's verdict.
  std::optional<AsId> blamed_as;
  std::optional<topo::AsLinkKey> blamed_link;
  // What an operator using traceroute alone would conclude.
  std::optional<AsId> traceroute_blame;
  // Candidate ASes that could not reach the vantage point.
  std::vector<AsId> suspect_ases;
  // Measurement cost accounting.
  std::uint64_t probes_used = 0;
  double modeled_seconds = 0.0;
  // True when the target answered during isolation (transient problem).
  bool target_reachable = false;
  // How much the verdict can be trusted, in [0, 1]. 1.0 on a clean
  // measurement plane; scaled down by Lifeguard's probe-coverage estimate
  // when vantage points are dropping out or probes are being lost — a
  // widened confidence interval that the decision loop uses to defer
  // poisoning instead of acting on thin evidence.
  double confidence = 1.0;
};

class IsolationEngine {
 public:
  IsolationEngine(measure::Prober& prober, PathAtlas& atlas)
      : prober_(&prober), atlas_(&atlas) {}

  // Run the full §4.1.2 procedure for vp's outage toward `target`: direction,
  // blamed AS/link, the traceroute-only counterfactual, and probe/latency
  // cost accounting. Reentrant per call; mutates only the atlas.
  IsolationResult isolate(const VantagePoint& vp, Ipv4 target,
                          std::span<const VantagePoint> helpers);

 private:
  FailureDirection isolate_direction(const VantagePoint& vp, Ipv4 target,
                                     std::span<const VantagePoint> helpers,
                                     std::optional<VantagePoint>& fwd_witness);
  // Is this candidate router currently able to reach the vantage point?
  bool reachable_from_vp(const VantagePoint& vp, RouterId router);
  bool reachable_from_helper(std::span<const VantagePoint> helpers,
                             RouterId router);

  void blame_forward(const VantagePoint& vp, Ipv4 target, IsolationResult& out);
  void blame_reverse(const VantagePoint& vp, Ipv4 target, IsolationResult& out);
  std::optional<AsId> traceroute_only_blame(
      const VantagePoint& vp, Ipv4 target,
      const measure::TracerouteResult& tr) const;

  measure::Prober* prober_;
  PathAtlas* atlas_;
};

}  // namespace lg::core
