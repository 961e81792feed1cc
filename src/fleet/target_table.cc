#include "fleet/target_table.h"

#include <algorithm>

#include "workload/sim_world.h"

namespace lg::fleet {

TargetTable::TargetTable(std::size_t total, std::size_t shards)
    : total_(total), shards_(shards == 0 ? 1 : shards) {}

std::size_t TargetTable::shard_quota(std::size_t shard) const {
  if (shard >= shards_) return 0;
  const std::size_t base = total_ / shards_;
  return base + (shard < total_ % shards_ ? 1 : 0);
}

std::size_t TargetTable::shard_start(std::size_t shard) const {
  if (shard > shards_) shard = shards_;
  const std::size_t base = total_ / shards_;
  const std::size_t rem = total_ % shards_;
  return shard * base + std::min(shard, rem);
}

std::vector<ServicedPrefix> TargetTable::shard_universe(
    std::size_t shard, std::size_t clients) const {
  std::vector<ServicedPrefix> out;
  if (clients == 0) return out;
  const std::size_t start = shard_start(shard);
  const std::size_t quota = shard_quota(shard);
  out.reserve(quota);
  for (std::size_t i = 0; i < quota; ++i) {
    const auto key = static_cast<std::uint32_t>(start + i);
    out.push_back(
        ServicedPrefix{key, static_cast<std::uint32_t>(key % clients)});
  }
  return out;
}

std::vector<MonitoredTarget> TargetTable::enumerate(workload::SimWorld& world,
                                                    AsId origin,
                                                    std::size_t count) {
  std::vector<MonitoredTarget> out;
  if (count == 0) return out;
  out.reserve(count);
  const auto& ases = world.graph().as_ids();
  std::uint8_t max_routers = 0;
  for (const AsId as : ases) {
    max_routers = std::max(max_routers, world.net().num_routers(as));
  }
  for (std::uint8_t idx = 0; idx < max_routers; ++idx) {
    for (const AsId as : ases) {
      if (as == origin) continue;
      if (idx >= world.net().num_routers(as)) continue;
      const Ipv4 addr =
          topo::AddressPlan::router_address(topo::RouterId{as, idx});
      if (!world.prober().target_responds(addr)) continue;
      out.push_back(MonitoredTarget{
          addr, as, 1.0 + static_cast<double>(world.graph().degree(as))});
      if (out.size() == count) return out;
    }
  }
  return out;
}

}  // namespace lg::fleet
