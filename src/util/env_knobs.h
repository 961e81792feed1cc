// Parsing for LG_* environment knobs: numbers strictly, switches by one rule.
//
// A forgiving parser turns a typo'd LG_FLEET_TARGETS=1O00 into a run of the
// default config, the worst failure mode for an experiment: the run
// succeeds and reports numbers for a config the operator did not ask for.
// Every knob that takes a number goes through these helpers instead, which
// follow the topology loader's convention (src/topology/io.cc): malformed
// operator input throws std::invalid_argument naming the knob and the
// offending text ("<NAME>: expected ..., got '<v>'"), never a silent
// fallback. Unset knobs still mean "keep the default".
#pragma once

#include <cstddef>
#include <cstdint>

namespace lg::util {

// A finite number >= `min`.
double env_double_knob(const char* name, double base, double min);
// A fraction in [0, 1] (prevalences, intensities).
double env_fraction_knob(const char* name, double base);
// A positive integer (counts, sizes, thread counts).
std::size_t env_size_knob(const char* name, std::size_t base);
// A decimal integer in [0, 2^64) (seeds).
std::uint64_t env_u64_knob(const char* name, std::uint64_t base);

// An on/off switch (LG_METRICS, LG_TRACE, LG_SPANS, LG_CHECK): "on" or "1"
// enables, "off" or "0" disables, and anything else, unset included, keeps
// `fallback`. Switches are the one forgiving kind of knob: a wrong value
// leaves the default alone rather than aborting the run.
bool env_switch(const char* name, bool fallback);

}  // namespace lg::util
