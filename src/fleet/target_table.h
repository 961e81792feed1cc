// lg::fleet — the sharded table of monitored destinations.
//
// The deployment monitored thousands of destinations from each vantage
// point. The fleet splits that set across a fixed number of shards — each
// shard is an independent simulated universe driven by one EpisodeManager —
// so the shard count (not the thread count) defines the partition, and the
// same fleet produces byte-identical results under any LG_THREADS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/addressing.h"

namespace lg::workload {
class SimWorld;
}  // namespace lg::workload

namespace lg::fleet {

using topo::AsId;
using topo::Ipv4;

// Fraction of the outages the fleet and the service plane inject that fail
// the reverse path toward the origin (the paper's headline case); the rest
// fail the forward path toward one monitored destination's AS.
inline constexpr double kReverseFraction = 0.8;

struct MonitoredTarget {
  Ipv4 addr = 0;
  AsId as = topo::kInvalidAs;
  // Estimated impact of losing this destination (degree of its AS): the
  // admission controller repairs high-impact episodes first when probe
  // budget runs short.
  double weight = 1.0;
};

// One entry of the multi-prefix service universe: a (prefix, origin-policy)
// pair the always-on plane keeps an episode machine for. The key is the
// prefix's identity — a customer prefix the origin is responsible for is
// never announced itself — and maps onto a monitored client whose
// reachability stands in for the prefix's reachability. Real BGP work
// (sentinel + selective poisoning) is leased through the origin's physical
// remediation slots, so a universe of 100k prefixes costs per-prefix state,
// not 100k RIB entries.
struct ServicedPrefix {
  // Dense fleet-wide key; shard = key partition, policy seed, RNG salt.
  std::uint32_t key = 0;
  // Index into the shard's monitored-client vector.
  std::uint32_t client = 0;
};

class TargetTable {
 public:
  // Partition `total` monitored destinations over `shards` shards.
  TargetTable(std::size_t total, std::size_t shards);

  std::size_t total() const noexcept { return total_; }
  std::size_t shards() const noexcept { return shards_; }
  // Balanced split: every shard gets total/shards, the first total%shards
  // shards get one more.
  std::size_t shard_quota(std::size_t shard) const;

  // Enumerate up to `count` probe-responding router addresses inside
  // `world`, skipping `origin` (we do not monitor ourselves). Deterministic:
  // router index 0 (the cores) across all ASes first, then index 1, ... so
  // the monitored set spreads over the topology before doubling up inside
  // any AS. Returns fewer than `count` when the world runs out of
  // responding routers.
  static std::vector<MonitoredTarget> enumerate(workload::SimWorld& world,
                                                AsId origin,
                                                std::size_t count);

  // Key of `shard`'s first serviced prefix (prefix keys are dense and
  // contiguous per shard, so the shard owning a key is recoverable from the
  // quotas alone).
  std::size_t shard_start(std::size_t shard) const;

  // Build `shard`'s slice of the serviced-prefix universe over `clients`
  // monitored destinations (prefix -> client by key modulo, so clients are
  // load-balanced and the mapping is position-independent). Deterministic
  // in (total, shards, shard, clients) only.
  std::vector<ServicedPrefix> shard_universe(std::size_t shard,
                                             std::size_t clients) const;


 private:
  std::size_t total_;
  std::size_t shards_;
};

}  // namespace lg::fleet
