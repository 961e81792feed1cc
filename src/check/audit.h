// lg::check — opt-in post-convergence audit hook.
//
// Call maybe_audit(engine, context) after a run_to_quiescence / converge()
// at any point where the simulation should be at a BGP fixpoint. With
// LG_CHECK unset (the default) the call is a single cached-boolean branch —
// benches keep their byte-identical outputs. With LG_CHECK=1 the full
// InvariantChecker audit runs; the audit itself is made of const queries
// only, so it cannot advance simulated time, consume randomness, or perturb
// anything the run later measures. A violation prints every finding (with
// the context string) to stderr and aborts — an invariant broken at quiesce
// means the simulator's BGP core is wrong and nothing downstream can be
// trusted.
#pragma once

#include <cstddef>

namespace lg::bgp {
class BgpEngine;
}  // namespace lg::bgp

namespace lg::check {

// The LG_CHECK switch (util::env_switch), default off. Cached after the
// first call.
bool audit_enabled();

// Audits a quiesced engine when LG_CHECK is enabled; no-op otherwise.
// Returns the number of invariants checked (0 when disabled); aborts the
// process on any violation.
std::size_t maybe_audit(const bgp::BgpEngine& engine, const char* context);

}  // namespace lg::check
