// Process resident-set-size readers, for the memory ceilings that gate
// Internet-scale runs (bench/internet_scale, the CI smoke job).
//
// RSS is an OS-level observation — page-cache pressure, allocator arenas and
// ASLR all perturb it — so it is NEVER emitted into deterministic outputs
// (BENCH_*.json headlines, stdout). Benches print it to stderr and enforce
// ceilings via exit codes; the byte-exact memory story lives in the
// deterministic rib_memory accounting (bgp::BgpEngine::rib_memory()).
#pragma once

#include <cstddef>

namespace lg::mem {

// Current resident set size in bytes; 0 when unavailable on this platform.
std::size_t current_rss_bytes();

// Peak (high-water-mark) resident set size in bytes; 0 when unavailable.
std::size_t peak_rss_bytes();

// Hands free heap memory back to the OS (glibc's malloc_trim(0); a no-op
// elsewhere), so a current_rss_bytes() taken next reads live memory rather
// than pages the allocator keeps after a large free.
void trim_heap();

}  // namespace lg::mem
