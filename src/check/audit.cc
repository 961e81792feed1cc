#include "check/audit.h"

#include <cstdio>
#include <cstdlib>

#include "check/invariants.h"
#include "util/env_knobs.h"

namespace lg::check {

bool audit_enabled() {
  static const bool enabled = util::env_switch("LG_CHECK", false);
  return enabled;
}

std::size_t maybe_audit(const bgp::BgpEngine& engine, const char* context) {
  if (!audit_enabled()) return 0;
  const InvariantChecker checker(engine);
  const auto violations = checker.check_all();
  if (!violations.empty()) {
    std::fprintf(stderr, "LG_CHECK: %zu invariant violation(s) at [%s]:\n",
                 violations.size(), context != nullptr ? context : "?");
    for (const Violation& v : violations) {
      std::fprintf(stderr, "  [%s] %s\n", v.invariant.c_str(),
                   v.detail.c_str());
    }
    std::abort();
  }
  // Number of invariant families audited (see InvariantChecker::check_all).
  return 8;
}

}  // namespace lg::check
