// Remediation via crafted BGP announcements (§3.1).
//
// The Remediator owns an origin AS's announcements:
//  * steady state: the production prefix is announced with a *prepended
//    baseline* (O-O-O) so that a later poisoned announcement (O-A-O) has the
//    same length — unaffected ASes then reconverge with a single update
//    instead of exploring paths (§3.1.1);
//  * a covering *sentinel* less-specific is always announced unpoisoned, so
//    ASes captive behind a poisoned AS keep a backup route and so repairs on
//    the original path can be detected (§3.1.2, §4.2);
//  * poison(A) inserts A into the production path; selective_poison(A, P)
//    poisons only the announcements sent via providers in P, steering
//    traffic off one of A's links without cutting A off (§3.1.2, Fig. 3);
//  * unpoison() reverts to the baseline.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "bgp/engine.h"
#include "measure/probes.h"
#include "measure/vantage.h"
#include "topology/addressing.h"

namespace lg::core {

using topo::AsId;
using topo::Prefix;

// The sentinel check of an egress shift: ping `target` from `vp` with the
// forced egress of vp's AS cleared for that one probe, so it takes the
// original forward path (clear-and-restore is race-free in the simulator).
bool original_egress_repaired(bgp::BgpEngine& engine, measure::Prober& prober,
                              const measure::VantagePoint& vp,
                              topo::Ipv4 target);

struct RemediatorConfig {
  // Length of the steady-state prepended baseline (O-O-O).
  std::size_t baseline_prepend = 3;
  // Announce the covering sentinel less-specific alongside production.
  bool use_sentinel = true;
};

class Remediator {
 public:
  Remediator(bgp::BgpEngine& engine, AsId origin, RemediatorConfig cfg = {});

  AsId origin() const noexcept { return origin_; }
  // The monitored /24 and its covering less-specific (from the address plan).
  const Prefix& production_prefix() const noexcept { return production_; }
  const Prefix& sentinel_prefix() const noexcept { return sentinel_; }

  // Steady-state announcements for both prefixes.
  void announce_baseline();

  // Poison `target` on the production prefix toward every neighbor. The
  // sentinel stays on the baseline path.
  void poison(AsId target);

  // Poison a multi-AS path (e.g. {A, A} to defeat an AS that allows one
  // occurrence of its own ASN, §7.1).
  void poison_path(const std::vector<AsId>& poisons);

  // Poison `target` only on announcements via `poisoned_providers`;
  // everyone else receives the baseline (Fig. 3's selective poisoning).
  void selective_poison(AsId target,
                        std::span<const AsId> poisoned_providers);

  // Revert the production prefix to the baseline announcement.
  void unpoison();

  // Stop announcing both prefixes.
  void withdraw_all();

  // The AS currently poisoned on the production prefix, if any.
  std::optional<AsId> current_poison() const noexcept { return poison_; }
  bool is_poisoned() const noexcept { return poison_.has_value(); }

 private:
  std::size_t poisoned_len(std::size_t npoisons) const {
    return std::max(cfg_.baseline_prepend, npoisons + 2);
  }

  bgp::BgpEngine* engine_;
  AsId origin_;
  RemediatorConfig cfg_;
  Prefix production_;
  Prefix sentinel_;
  std::optional<AsId> poison_;
};

}  // namespace lg::core
