// Vantage points: the PlanetLab-host analogue. A vantage point is a host
// inside some AS's production prefix that can source probes (including
// spoofed ones, which PlanetLab permitted from selected sites) and receive
// replies addressed to it.
#pragma once

#include <string>

#include "topology/addressing.h"
#include "topology/as_graph.h"

namespace lg::measure {

struct VantagePoint {
  topo::AsId as = topo::kInvalidAs;
  topo::Ipv4 addr = 0;
  std::string name;

  static VantagePoint in_as(topo::AsId as, std::string name = {}) {
    return VantagePoint{as, topo::AddressPlan::production_host(as),
                        name.empty() ? "vp-as" + std::to_string(as)
                                     : std::move(name)};
  }
};

}  // namespace lg::measure
