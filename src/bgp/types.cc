#include "bgp/types.h"

#include <algorithm>
#include <stdexcept>

namespace lg::bgp {

std::string path_str(std::span<const AsId> path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) out += "-";
    out += std::to_string(path[i]);
  }
  return out.empty() ? "(empty)" : out;
}

std::size_t count_occurrences(std::span<const AsId> path, AsId as) {
  return static_cast<std::size_t>(std::count(path.begin(), path.end(), as));
}

bool path_contains_any(std::span<const AsId> path,
                       const std::vector<AsId>& set) {
  return std::any_of(path.begin(), path.end(), [&](AsId a) {
    return std::find(set.begin(), set.end(), a) != set.end();
  });
}

bool path_traverses(std::span<const AsId> path, AsId as, AsId origin) {
  for (const AsId hop : path) {
    if (hop == origin) return false;  // reached the crafted suffix
    if (hop == as) return true;
  }
  return false;
}

bool path_hits_avoid_hint(std::span<const AsId> path,
                          const AvoidHint& hint) {
  if (path.empty()) return false;
  if (hint.link) {
    AsId prev = topo::kInvalidAs;
    for (const AsId hop : path) {
      if (prev != topo::kInvalidAs && prev != hop &&
          topo::AsLinkKey(prev, hop) == *hint.link) {
        return true;
      }
      prev = hop;
    }
    return false;
  }
  // AS-level hint: every element except the true origin at the back.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i] == hint.as) return true;
  }
  return false;
}

int local_pref(LearnedFrom lf) noexcept {
  switch (lf) {
    case LearnedFrom::kLocal:
      return 1000;
    case LearnedFrom::kCustomer:
      return 300;
    case LearnedFrom::kPeer:
      return 200;
    case LearnedFrom::kProvider:
      return 100;
  }
  return 0;
}

bool better_route(const Route& a, const Route& b) noexcept {
  const int pa = local_pref(a.learned);
  const int pb = local_pref(b.learned);
  if (pa != pb) return pa > pb;
  if (a.path.size() != b.path.size()) return a.path.size() < b.path.size();
  return a.neighbor < b.neighbor;
}

std::string UpdateMessage::str() const {
  std::string out = type == MsgType::kAnnounce ? "ANNOUNCE " : "WITHDRAW ";
  out += prefix.str() + " " + std::to_string(from) + "->" + std::to_string(to);
  if (type == MsgType::kAnnounce) out += " path " + path_str(path);
  return out;
}

AsPath baseline_path(AsId origin, std::size_t total_len) {
  if (total_len == 0) throw std::invalid_argument("empty baseline path");
  return AsPath(total_len, origin);
}

AsPath poisoned_path(AsId origin, const std::vector<AsId>& poisons,
                     std::size_t total_len) {
  if (total_len < poisons.size() + 2) {
    throw std::invalid_argument(
        "poisoned path needs origin on both ends: total_len >= poisons + 2");
  }
  AsPath path;
  path.reserve(total_len);
  // Leading origin copies keep length equal to the prepended baseline.
  const std::size_t lead = total_len - poisons.size() - 1;
  path.insert(path.end(), lead, origin);
  path.insert(path.end(), poisons.begin(), poisons.end());
  path.push_back(origin);  // registries list the true origin (§3.1.1)
  return path;
}

}  // namespace lg::bgp
