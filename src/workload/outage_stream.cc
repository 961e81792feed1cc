#include "workload/outage_stream.h"

#include <limits>

#include "util/codec.h"

namespace lg::workload {

namespace {
constexpr std::uint32_t kStreamTag = 0x52545354;  // "TSTR"
// v2: every integer a varint.
constexpr std::uint32_t kVersion = 2;
constexpr std::uint64_t kRngStream = 0x6f757473ULL;  // "outs"
}  // namespace

OutageStream::OutageStream(OutageStreamConfig cfg)
    : cfg_(cfg), rng_(cfg.seed, kRngStream) {}

void OutageStream::ensure_pending() {
  if (has_pending_) return;
  if (cfg_.rate_per_hour <= 0.0) {
    pending_ = OutageEvent{std::numeric_limits<double>::infinity(), 0.0};
    has_pending_ = true;
    return;
  }
  clock_ += rng_.exponential(3600.0 / cfg_.rate_per_hour);
  double d = sample_outage_duration(rng_, {});
  if (cfg_.duration_cap_seconds > 0.0 && d > cfg_.duration_cap_seconds) {
    d = cfg_.duration_cap_seconds;
  }
  pending_ = OutageEvent{clock_, d};
  has_pending_ = true;
  ++generated_;
}

double OutageStream::next_start() {
  ensure_pending();
  return pending_.start_seconds;
}

OutageEvent OutageStream::next() {
  ensure_pending();
  const OutageEvent out = pending_;
  // A silent stream's pending event is the +infinity sentinel; it is never
  // actually consumable, so keep it pending rather than "generating" more.
  if (cfg_.rate_per_hour > 0.0) has_pending_ = false;
  return out;
}

template <class Ar, class Self>
void OutageStream::layout(Ar& ar, Self& self) {
  ar.magic(kStreamTag, kVersion);
  util::Rng::layout(ar, self.rng_);
  ar.f64(self.clock_);
  ar.var(self.generated_);
  ar.b(self.has_pending_);
  ar.f64(self.pending_.start_seconds);
  ar.f64(self.pending_.duration_seconds);
}

void OutageStream::serialize(util::BinWriter& w) const { layout(w, *this); }
void OutageStream::serialize(util::BinReader& r) { layout(r, *this); }

}  // namespace lg::workload
