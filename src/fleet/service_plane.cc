#include "fleet/service_plane.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "bgp/types.h"
#include "core/remediation.h"
#include "obs/trace.h"
#include "run/trial_runner.h"
#include "util/codec.h"
#include "util/env_knobs.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "workload/outage_stream.h"
#include "workload/sim_world.h"

namespace lg::fleet {

using core::EpisodeState;

namespace {

constexpr std::uint32_t kShardTag = 0x53435653;  // "SVCS"
constexpr std::uint32_t kPlaneTag = 0x4c505653;  // "SVPL"
constexpr std::uint32_t kFileTag = 0x46435653;   // "SVCF"
// The plane's and the responsiveness model's RNG sections; v2: every
// integer a varint.
constexpr std::uint32_t kRngTag = 0x20474e52;  // "RNG "
constexpr std::uint32_t kRngVersion = 2;
// v2: outcome array grew a kCaptive slot (lg::adversary).
// v3: per-prefix lifecycle state moved into the core::EpisodeMachine section.
// v4: the scheduler section lost its cancellation counters.
// v5: every integer a varint; a record's slot is stored plus one.
constexpr std::uint32_t kVersion = 5;

// Physical /28 slots a shard can lease: the production /24's sixteen, less
// the one holding the production host.
constexpr std::size_t kMaxSlots = 15;
constexpr std::uint8_t kNoSlot = 0xff;
constexpr std::uint32_t kFreeSlot = 0xffffffffu;

// Sampled outage durations are truncated here (the fleet's cap is an hour).
constexpr double kOutageDurationCapSeconds = 1800.0;
// Bounded per-shard rings: closed-episode records and remediation latencies
// kept for reporting; older entries fold into the fingerprint.
constexpr std::size_t kRecordRing = 4096;
constexpr std::size_t kLatencyRing = 4096;
// Slot announcements use the origin's baseline length (O-O-O, the default
// Remediator's that setup() announces), which a one-AS poison (O-A-O) keeps.
constexpr std::size_t kSlotPathLength =
    std::max<std::size_t>(core::RemediatorConfig{}.baseline_prepend, 3);

// One formatted double for the fingerprint: fixed precision, no locale.
void append_num(std::ostringstream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  os << buf;
}

// Per-monitored-client detection state. Isolation runs once per client per
// incident and its verdict is shared by every serviced prefix mapped here.
struct ClientState {
  MonitoredTarget info;
  // AS-level baseline path from the origin, captured once at setup; blame is
  // the first baseline AS missing from the current responsive path.
  std::vector<AsId> baseline;
  std::uint16_t fails = 0;
  bool down = false;
  bool isolated = false;
  AsId blamed = topo::kInvalidAs;
};

// Per-serviced-prefix remediation state; the episode lifecycle is the
// machine's slot of the same index. A few bytes here and a few dozen there,
// so a 100k universe costs megabytes, not RIBs.
struct PrefixState {
  std::uint8_t slot = kNoSlot;  // leased remediation slot
  std::uint16_t verify_fails = 0;
};

struct ActiveFailure {
  dp::FailureId id = 0;
  double until = 0.0;
};

workload::OutageStreamConfig stream_config(const ServiceConfig& cfg,
                                           std::uint64_t seed) {
  workload::OutageStreamConfig sc;
  sc.rate_per_hour = cfg.outages_per_hour / static_cast<double>(cfg.shards);
  sc.duration_cap_seconds = kOutageDurationCapSeconds;
  sc.seed = seed ^ 0x6f757467ULL;
  return sc;
}

class ServicePlane {
 public:
  ServicePlane(workload::SimWorld& world, const ServiceConfig& cfg,
               std::size_t shard, std::uint64_t seed, AsId origin,
               AnnouncementBudget& announce, ProbeAdmission& admission)
      : world_(&world),
        cfg_(&cfg),
        shard_(shard),
        origin_(origin),
        announce_(&announce),
        admission_(&admission),
        rng_(seed ^ 0x73766370ULL, 0x6469726eULL),
        stream_(stream_config(cfg, seed)),
        production_(topo::AddressPlan::production_prefix(origin)),
        slots_(cfg.slots),
        slot_owner_(slots_, kFreeSlot),
        machine_(fleet_timing()),
        trace_(&obs::TraceRing::current()) {
    providers_ = world_->graph().providers(origin_);
    std::sort(providers_.begin(), providers_.end());
  }

  // Fresh-run setup: baseline announcements, client enumeration, baseline
  // path capture, universe construction. A restored run skips this — load()
  // reinstates the same state from the blob instead.
  void setup() {
    core::Remediator rem(world_->engine(), origin_);
    rem.announce_baseline();
    world_->converge();
    TargetTable ctable(cfg_->clients, cfg_->shards);
    const auto targets = TargetTable::enumerate(
        *world_, origin_, ctable.shard_quota(shard_));
    clients_.reserve(targets.size());
    const Ipv4 reply = topo::AddressPlan::production_host(origin_);
    for (const auto& t : targets) {
      ClientState cl;
      cl.info = t;
      cl.baseline =
          world_->prober().traceroute(origin_, t.addr, reply).responsive_as_path();
      clients_.push_back(std::move(cl));
    }
    build_universe();
    culprits_ = world_->feed_ases(20);
  }

  void tick(double now) {
    ++ticks_;
    expire_failures(now);
    inject_due(now);
    ping_clients();
    for (std::size_t i = 0; i < universe_.size(); ++i) {
      machine_.watch(i, now);
      step(i, now);
    }
  }

  std::uint64_t ticks() const noexcept { return ticks_; }
  bool drained() const noexcept {
    return machine_.open_count() == 0 && active_.empty();
  }

  void fill_report(ServiceShardReport& report, double now) const {
    report.origin = origin_;
    report.clients = clients_.size();
    report.prefixes = universe_.size();
    report.ticks = ticks_;
    report.outages_injected = outages_injected_;
    report.episodes_opened = machine_.opened();
    report.episodes_closed = machine_.closed();
    report.outcomes = machine_.outcomes();
    report.fingerprint = fnv_.state;
    report.slot_leases = slot_leases_;
    report.slot_waits = slot_waits_;
    report.open_at_end = machine_.open_count();
    report.announce_spent = announce_->bucket().spent();
    report.announce_capacity = announce_->bucket().capacity(now);
    report.announce_utilization = announce_->utilization(now);
    report.announce_granted = announce_->bucket().granted();
    report.announce_denied = announce_->bucket().denied();
    report.probe_admitted = admission_->admitted();
    report.probe_deferred = admission_->deferred();
    report.records = held(records_, total_records_, kRecordRing);
    report.remediate_latencies =
        held(latencies_, total_latencies_, kLatencyRing);
  }

  // ---- checkpoint ----

  // The plane's checkpoint layout; Self is const ServicePlane when saving.
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self) {
    ar.magic(kPlaneTag, kVersion);
    std::uint64_t shard = self.shard_;
    ar.var(shard);
    if (shard != self.shard_) {
      throw std::runtime_error("service checkpoint: blob is for shard " +
                               std::to_string(shard) + ", restoring shard " +
                               std::to_string(self.shard_));
    }
    AsId origin = self.origin_;
    ar.var(origin);
    if (origin != self.origin_) {
      throw std::runtime_error(
          "service checkpoint: origin mismatch (different topology/config?)");
    }
    ar.var(self.ticks_);
    ar.var(self.outages_injected_);
    ar.magic(kRngTag, kRngVersion);
    util::Rng::layout(ar, self.rng_);
    self.stream_.serialize(ar);
    ar.vec(self.clients_, 15, [&](auto& cl) {
      ar.var(cl.info.addr);
      ar.var(cl.info.as);
      ar.f64(cl.info.weight);
      ar.vec(cl.baseline, 1, [&](auto& as) { ar.var(as); });
      ar.var(cl.fails);
      ar.b(cl.down);
      ar.b(cl.isolated);
      ar.var(cl.blamed);
    });
    if constexpr (Ar::kLoading) self.build_universe();
    ar.vec(self.states_, 2, [&](auto& st) {
      ar.var(st.slot);
      if (st.slot != kNoSlot && st.slot >= self.slots_) {
        throw std::runtime_error(
            "service checkpoint: a prefix holds slot " +
            std::to_string(st.slot) + ", but the config has " +
            std::to_string(self.slots_) + " slots (different config?)");
      }
      ar.var(st.verify_fails);
    });
    if (self.states_.size() != self.universe_.size()) {
      throw std::runtime_error(
          "service checkpoint: universe size mismatch (different config?)");
    }
    core::EpisodeMachine::layout(ar, self.machine_);
    ar.vec(self.slot_owner_, 1, [&](auto& owner) { ar.var(owner); });
    if (self.slot_owner_.size() != self.slots_) {
      throw std::runtime_error(
          "service checkpoint: slot count mismatch (different config?)");
    }
    if constexpr (Ar::kLoading) self.check_slot_owners();
    ar.vec(self.active_, 9, [&](auto& a) {
      ar.var(a.id);
      ar.f64(a.until);
    });
    ar.var(self.fnv_.state);
    ar.var(self.slot_leases_);
    ar.var(self.slot_waits_);
    ar.var(self.total_records_);
    util::ring(ar, self.records_, self.total_records_, kRecordRing, 33,
               "episode record ring", [&](auto& rec) {
                 ar.var(rec.key);
                 ar.var(rec.client);
                 ar.var(rec.client_as);
                 ar.var(rec.blamed);
                 ar.f64(rec.opened_at);
                 ar.f64(rec.remediated_at);
                 ar.f64(rec.closed_at);
                 ar.enum8(rec.outcome, EpisodeOutcome::kCaptive,
                          "episode outcome");
                 // The slot plus one, so never leased (-1) is 0.
                 std::uint64_t slot =
                     static_cast<std::uint64_t>(rec.slot + 1);
                 ar.var(slot);
                 if constexpr (Ar::kLoading) {
                   if (slot > kMaxSlots) {
                     throw std::runtime_error(
                         "service checkpoint: an episode record holds slot " +
                         std::to_string(slot - 1) + ", past the " +
                         std::to_string(kMaxSlots) + " a shard can hold");
                   }
                   rec.slot = static_cast<std::int16_t>(slot - 1);
                 }
                 ar.var(rec.flap_generation);
                 ar.var(rec.probe_deferrals);
                 ar.var(rec.budget_deferrals);
               });
    ar.var(self.total_latencies_);
    util::ring(ar, self.latencies_, self.total_latencies_, kLatencyRing, 8,
               "latency ring", [&](auto& v) { ar.f64(v); });
    if constexpr (Ar::kLoading) self.culprits_ = self.world_->feed_ases(20);
  }

 private:
  // A loaded owner table must mirror the prefixes' leases: each leased slot
  // owned by the one prefix holding it, every other slot free. A held slot
  // marked free would be leased twice, and its first holder's close would
  // withdraw the second's announcement.
  void check_slot_owners() const {
    std::vector<std::uint32_t> want(slots_, kFreeSlot);
    const auto reject = [](std::size_t slot) {
      return std::runtime_error(
          "service checkpoint: slot " + std::to_string(slot) +
          "'s owner does not match the prefix leasing it");
    };
    for (std::size_t i = 0; i < states_.size(); ++i) {
      const std::uint8_t slot = states_[i].slot;
      if (slot == kNoSlot) continue;
      if (want[slot] != kFreeSlot) throw reject(slot);
      want[slot] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t slot = 0; slot < slots_; ++slot) {
      if (slot_owner_[slot] != want[slot]) throw reject(slot);
    }
  }

  void build_universe() {
    TargetTable ptable(cfg_->prefixes, cfg_->shards);
    universe_ = ptable.shard_universe(shard_, clients_.size());
    states_.assign(universe_.size(), PrefixState{});
    for (const ServicedPrefix& p : universe_) {
      const MonitoredTarget& client = clients_[p.client].info;
      machine_.add(client.addr, client.as);
    }
  }

  // Physical slots 1..15 of the production /24; slot 0 would contain the
  // production host address, whose routing must stay on the baseline.
  topo::Prefix slot_prefix(std::uint8_t slot) const {
    return topo::Prefix(
        production_.addr() + (static_cast<Ipv4>(slot) + 1) * 16u, 28);
  }
  Ipv4 slot_probe_addr(std::uint8_t slot) const {
    return production_.addr() + (static_cast<Ipv4>(slot) + 1) * 16u + 1u;
  }

  void expire_failures(double now) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (active_[i].until <= now) {
        world_->failures().clear(active_[i].id);
      } else {
        active_[kept++] = active_[i];
      }
    }
    active_.resize(kept);
  }

  void inject_due(double now) {
    if (clients_.empty()) return;
    const double offset = cfg_->warmup_seconds;
    while (true) {
      const double at = offset + stream_.next_start();
      if (!(at <= now) || at > cfg_->horizon_seconds) break;
      const auto ev = stream_.next();
      dp::Failure f;
      if (!culprits_.empty()) {
        f.at_as = culprits_[rng_.uniform_u32(
            static_cast<std::uint32_t>(culprits_.size()))];
      }
      if (rng_.bernoulli(kReverseFraction)) {
        f.toward_as = origin_;
      } else {
        f.toward_as =
            clients_[rng_.uniform_u32(
                         static_cast<std::uint32_t>(clients_.size()))]
                .info.as;
      }
      const auto id = world_->failures().inject(f);
      active_.push_back(ActiveFailure{id, at + ev.duration_seconds});
      ++outages_injected_;
    }
  }

  bool ping_client(const ClientState& cl, Ipv4 reply_to) {
    // The paper sends ping pairs; one success counts.
    auto once = [&] {
      return world_->prober().ping(origin_, cl.info.addr, reply_to).replied;
    };
    return once() || once();
  }

  void ping_clients() {
    const Ipv4 reply = topo::AddressPlan::production_host(origin_);
    for (ClientState& cl : clients_) {
      if (ping_client(cl, reply)) {
        cl.fails = 0;
        cl.down = false;
        cl.isolated = false;
        cl.blamed = topo::kInvalidAs;
      } else {
        if (cl.fails < 0xffff) ++cl.fails;
        cl.down = cl.fails >= core::kFailThreshold;
      }
    }
  }

  // One shared isolation per client incident: traceroute toward the client
  // and blame the first baseline AS missing from the current responsive
  // path — a unidirectional failure truncates the responsive path at the
  // culprit's predecessor in either direction.
  bool try_isolate(ClientState& cl, double now) {
    if (!admission_->try_admit(now)) return false;
    auto& budget = world_->prober().budget();
    const std::uint64_t before = budget.total();
    const auto tr = world_->prober().traceroute(
        origin_, cl.info.addr, topo::AddressPlan::production_host(origin_));
    admission_->settle(now,
                       static_cast<double>(budget.total() - before));
    const auto cur = tr.responsive_as_path();
    cl.blamed = topo::kInvalidAs;
    for (const AsId as : cl.baseline) {
      if (as == origin_ || as == cl.info.as) continue;
      if (std::find(cur.begin(), cur.end(), as) == cur.end()) {
        cl.blamed = as;
        break;
      }
    }
    cl.isolated = true;
    return true;
  }

  // Selective announcement of a leased slot /28 (§3.1.2 / Fig. 3). The
  // production /24 stays on the baseline and covers the slot — the
  // per-prefix sentinel. When the blamed AS is one of the origin's own
  // providers, the slot is simply withheld from it; otherwise the blamed AS
  // is poisoned into the slot's path for every provider.
  void announce_slot(std::uint8_t slot, AsId blamed) {
    bgp::OriginPolicy pol;
    if (std::binary_search(providers_.begin(), providers_.end(), blamed)) {
      pol.default_path =
          bgp::PathRef(bgp::baseline_path(origin_, kSlotPathLength));
      pol.per_neighbor[blamed] = std::nullopt;
    } else {
      pol.default_path =
          bgp::PathRef(bgp::poisoned_path(origin_, {blamed}, kSlotPathLength));
    }
    world_->engine().originate(origin_, slot_prefix(slot), std::move(pol));
  }

  std::uint8_t find_free_slot() const {
    for (std::size_t s = 0; s < slot_owner_.size(); ++s) {
      if (slot_owner_[s] == kFreeSlot) return static_cast<std::uint8_t>(s);
    }
    return kNoSlot;
  }

  void open(std::size_t i, double now) {
    machine_.open(i, now, now);
    machine_.move(i, EpisodeState::kIsolate, now);
    states_[i].verify_fails = 0;
  }

  void close(std::size_t i, double now, EpisodeOutcome outcome) {
    PrefixState& st = states_[i];
    const ClientState& cl = clients_[universe_[i].client];
    if (st.slot != kNoSlot) {
      // Reverting is free by convention: the budget bounds poison churn,
      // never the restoration of the baseline.
      world_->engine().withdraw(origin_, slot_prefix(st.slot));
      slot_owner_[st.slot] = kFreeSlot;
    }
    machine_.close(i, now, outcome, /*holddown=*/true);
    const core::EpisodeRecord& ep = machine_.record(i);
    ServiceEpisodeRecord rec;
    rec.key = universe_[i].key;
    rec.client = cl.info.addr;
    rec.client_as = cl.info.as;
    rec.blamed = outcome == EpisodeOutcome::kNoBlame ? topo::kInvalidAs
                                                     : cl.blamed;
    rec.opened_at = ep.opened_at;
    rec.remediated_at = ep.remediated_at;
    rec.closed_at = now;
    rec.outcome = outcome;
    rec.slot = st.slot == kNoSlot ? -1 : static_cast<std::int16_t>(st.slot);
    rec.flap_generation = static_cast<std::uint16_t>(ep.flap_generation);
    rec.probe_deferrals =
        static_cast<std::uint16_t>(std::min(ep.probe_deferrals, 0xffff));
    rec.budget_deferrals =
        static_cast<std::uint16_t>(std::min(ep.budget_deferrals, 0xffff));
    push_record(rec);
    if (outcome == EpisodeOutcome::kRemediated && ep.remediated_at >= 0.0) {
      push_ring(latencies_, total_latencies_, kLatencyRing,
                ep.remediated_at - ep.opened_at);
    }
    // The ring above is the plane's history; the machine keeps only what
    // is in flight.
    machine_.release(i);
    st.slot = kNoSlot;
  }

  void step(std::size_t i, double now) {
    PrefixState& st = states_[i];
    ClientState& cl = clients_[universe_[i].client];
    switch (machine_.state(i)) {
      case EpisodeState::kMonitor:
        if (cl.down) open(i, now);
        break;
      case EpisodeState::kHolddown:
        if (!machine_.holding_down(i, now)) {
          machine_.move(i, EpisodeState::kMonitor, now);
          if (cl.down) open(i, now);
        }
        break;
      case EpisodeState::kSuspect:  // unused by the plane; fall through
      case EpisodeState::kIsolate:
        if (!cl.down) {
          close(i, now, EpisodeOutcome::kResolvedSelf);
          break;
        }
        if (!cl.isolated && !try_isolate(cl, now)) {
          machine_.defer_probe(i, now);
          break;
        }
        if (cl.blamed == topo::kInvalidAs) {
          close(i, now, EpisodeOutcome::kNoBlame);
        } else {
          machine_.record(i).blamed = cl.blamed;
          machine_.move(i, EpisodeState::kRemediate, now);
        }
        break;
      case EpisodeState::kRemediate: {
        if (!cl.down) {
          close(i, now, EpisodeOutcome::kResolvedSelf);
          break;
        }
        const std::uint8_t slot = find_free_slot();
        if (slot == kNoSlot) {
          machine_.defer_budget(i, now);
          ++slot_waits_;
          break;
        }
        if (!announce_->try_announce(now)) {
          machine_.defer_budget(i, now);
          break;
        }
        slot_owner_[slot] = static_cast<std::uint32_t>(i);
        st.slot = slot;
        announce_slot(slot, cl.blamed);
        ++slot_leases_;
        trace_->record(now, obs::TraceKind::kSelectivePoisonApplied,
                       cl.info.addr, cl.blamed);
        st.verify_fails = 0;
        machine_.remediated(i, now);
        break;
      }
      case EpisodeState::kVerify:
        if (!cl.down) {
          // The original path healed — the §4.2 sentinel observation. The
          // episode was remediated and the repair is confirmed: revert.
          machine_.repaired(i, now);
          close(i, now, EpisodeOutcome::kRemediated);
          break;
        }
        if (now - machine_.record(i).remediated_at > kMaxVerifySeconds) {
          close(i, now, EpisodeOutcome::kVerifyTimeout);
          break;
        }
        if (ping_client(cl, slot_probe_addr(st.slot))) {
          st.verify_fails = 0;
        } else if (++st.verify_fails >= kVerifyFailThreshold) {
          // The remediated path never carried traffic: the blame was wrong
          // or the slot announcement cannot steer around it.
          close(i, now, EpisodeOutcome::kVerifyTimeout);
        }
        break;
    }
  }

  // A bounded ring's held entries, oldest first.
  template <class T>
  static std::vector<T> held(const std::vector<T>& ring, std::uint64_t total,
                             std::size_t cap) {
    std::vector<T> out;
    if (cap == 0 || total == 0) return out;
    const std::size_t n = std::min<std::size_t>(total, cap);
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(ring[(total - n + i) % cap]);
    }
    return out;
  }

  // Append to a bounded ring of capacity `cap` holding `total` entries so
  // far; the ring is sized on first use.
  template <class T>
  static void push_ring(std::vector<T>& ring, std::uint64_t& total,
                        std::size_t cap, const T& v) {
    if (cap > 0) {
      if (ring.size() < cap) ring.resize(cap);
      ring[total % cap] = v;
    }
    ++total;
  }

  void push_record(const ServiceEpisodeRecord& rec) {
    fnv_.u64(rec.key);
    fnv_.u64(rec.client);
    fnv_.u64(rec.blamed);
    fnv_.u64(static_cast<std::uint64_t>(rec.outcome));
    fnv_.u64(rec.flap_generation);
    fnv_.f64(rec.opened_at);
    fnv_.f64(rec.remediated_at);
    fnv_.f64(rec.closed_at);
    push_ring(records_, total_records_, kRecordRing, rec);
  }

  workload::SimWorld* world_;
  const ServiceConfig* cfg_;
  std::size_t shard_;
  AsId origin_;
  AnnouncementBudget* announce_;
  ProbeAdmission* admission_;
  util::Rng rng_;
  workload::OutageStream stream_;
  topo::Prefix production_;
  std::size_t slots_;
  std::vector<std::uint32_t> slot_owner_;  // prefix index or kFreeSlot
  std::vector<AsId> providers_;
  std::vector<AsId> culprits_;
  std::vector<ClientState> clients_;
  std::vector<ServicedPrefix> universe_;
  std::vector<PrefixState> states_;
  core::EpisodeMachine machine_;
  std::vector<ActiveFailure> active_;

  std::uint64_t ticks_ = 0;
  std::uint64_t outages_injected_ = 0;
  util::Fnv1a fnv_;
  std::uint64_t slot_leases_ = 0;
  std::uint64_t slot_waits_ = 0;
  std::vector<ServiceEpisodeRecord> records_;
  std::uint64_t total_records_ = 0;
  std::vector<double> latencies_;
  std::uint64_t total_latencies_ = 0;

  obs::TraceRing* trace_;
};

// One shard's full state. Sections are applied in save order, with the
// observability registries LAST so nothing the restore path itself does
// leaks into the restored metric values.
template <class Ar>
void shard_layout(Ar& ar, std::size_t shard, std::uint64_t seed,
                  workload::SimWorld& world, ServicePlane& plane,
                  AnnouncementBudget& announce, ProbeAdmission& admission) {
  ar.magic(kShardTag, kVersion);
  std::uint64_t blob_shard = shard;
  std::uint64_t blob_seed = seed;
  ar.var(blob_shard);
  ar.var(blob_seed);
  if (blob_shard != shard || blob_seed != seed) {
    throw std::runtime_error(
        "service checkpoint: shard/seed mismatch (wrong blob for this "
        "shard?)");
  }
  util::Scheduler::layout(ar, world.scheduler());
  world.engine().serialize(ar);
  ServicePlane::layout(ar, plane);
  dp::FailureInjector::layout(ar, world.failures());
  TokenBucket::layout(ar, announce.bucket());
  ProbeAdmission::layout(ar, admission);
  measure::ProbeBudget& pb = world.prober().budget();
  ar.var(pb.pings);
  ar.var(pb.traceroute_probes);
  ar.var(pb.spoofed_pings);
  ar.var(pb.spoofed_traceroute_probes);
  ar.var(pb.option_probes);
  ar.magic(kRngTag, kRngVersion);
  measure::Responsiveness::layout(ar, world.responsiveness());
  // Registries last: whatever building the world registered or counted is
  // overwritten by the checkpointed truth, which already accounts for the
  // original setup.
  obs::MetricsRegistry::layout(ar, obs::MetricsRegistry::current());
  obs::SpanRegistry::layout(ar, obs::SpanRegistry::current());
  obs::TraceRing::layout(ar, obs::TraceRing::current());
  if constexpr (Ar::kLoading) world.sync_scheduler_baseline();
}

// The checkpoint container file: a magic/version header, then one
// length-prefixed blob per shard; `blob(shard)` projects a shard entry to
// its blob.
template <class Ar, class Shards, class Blob>
void container_layout(Ar& ar, Shards& shards, std::size_t expect_shards,
                      Blob&& blob) {
  ar.magic(kFileTag, kVersion);
  std::size_t n = shards.size();
  ar.count(n, 1);
  if (n != expect_shards) {
    throw std::runtime_error(
        "service checkpoint: file holds " + std::to_string(n) +
        " shards, config expects " + std::to_string(expect_shards));
  }
  if constexpr (Ar::kLoading) shards.resize(n);
  for (auto& s : shards) ar.record(1, [&] { ar.str(blob(s)); });
}

}  // namespace

ServiceConfig ServiceConfig::from_env(ServiceConfig base) {
  base.prefixes = util::env_size_knob("LG_SERVICE_PREFIXES", base.prefixes);
  base.clients = util::env_size_knob("LG_SERVICE_CLIENTS", base.clients);
  base.horizon_seconds =
      util::env_double_knob("LG_SERVICE_HORIZON", base.horizon_seconds, 1.0);
  base.outages_per_hour = util::env_double_knob(
      "LG_SERVICE_OUTAGE_RATE", base.outages_per_hour, 0.0);
  base.announce_per_hour = util::env_double_knob(
      "LG_SERVICE_ANNOUNCE_BUDGET", base.announce_per_hour, 0.0);
  return base;
}

ServiceShardReport run_service_shard(const ServiceConfig& cfg,
                                     std::size_t shard, std::uint64_t seed,
                                     const ServiceRun& run) {
  if (cfg.slots > kMaxSlots) {
    throw std::invalid_argument(
        "ServiceConfig::slots: at most 15 /28 slots fit beside the "
        "production host's, got " + std::to_string(cfg.slots));
  }
  ServiceShardReport report;
  report.shard = shard;
  report.seed = seed;

  workload::SimWorldConfig wc;
  wc.topology = cfg.shard_topology;
  wc.topology.seed = seed;
  wc.engine.seed = seed + 1;
  // Remediation pacing is the announcement budget's job; a 30 s MRAI would
  // advance the clock past several service ticks on every converge.
  wc.engine.default_mrai = 0.0;
  wc.responsiveness.seed = seed + 2;
  // A restored shard loads its RIBs from the blob, so its world converges
  // nothing first.
  wc.announce_infrastructure = run.restore_blob == nullptr;
  workload::SimWorld world(wc);

  AsId origin = world.topology().first_multihomed_stub();
  if (origin == topo::kInvalidAs) {
    report.origin = origin;
    return report;  // degenerate topology; empty shard
  }
  report.origin = origin;

  const double shards_d = static_cast<double>(cfg.shards);
  AnnouncementBudget announce(cfg.announce_per_hour / 3600.0 / shards_d,
                              std::max(1.0, kAnnounceBurst / shards_d));
  ProbeAdmission admission(kProbeRatePerSecond, kProbeBurst);

  ServicePlane plane(world, cfg, shard, seed, origin, announce, admission);
  if (run.restore_blob != nullptr) {
    // Reinstate the checkpointed state wholesale, infrastructure RIBs
    // included.
    util::BinReader r(*run.restore_blob);
    shard_layout(r, shard, seed, world, plane, announce, admission);
  } else {
    plane.setup();
  }

  bool checkpointed = false;
  while (true) {
    const double t =
        kServiceTickSeconds * static_cast<double>(plane.ticks() + 1);
    if (t > cfg.horizon_seconds + 1e-9) break;
    if (world.scheduler().now() < t) world.scheduler().run(t);
    plane.tick(std::max(t, world.scheduler().now()));
    world.converge();
    if (run.checkpoint_at > 0.0 && t >= run.checkpoint_at) {
      util::BinWriter w;
      shard_layout(w, shard, seed, world, plane, announce, admission);
      report.checkpoint = w.take();
      checkpointed = true;
      break;
    }
  }
  if (!checkpointed) {
    // Drain: no new injections (the stream is horizon-gated), active
    // failures expire, in-flight episodes settle, slots revert.
    const double drain_end = cfg.horizon_seconds + cfg.drain_cap_seconds;
    while (!plane.drained()) {
      const double t =
          kServiceTickSeconds * static_cast<double>(plane.ticks() + 1);
      if (t > drain_end + 1e-9) break;
      if (world.scheduler().now() < t) world.scheduler().run(t);
      plane.tick(std::max(t, world.scheduler().now()));
      world.converge();
    }
  }
  plane.fill_report(report, world.scheduler().now());
  return report;
}

ServiceScheduler::ServiceScheduler(ServiceConfig cfg) : cfg_(std::move(cfg)) {}

ServiceResult ServiceScheduler::run_impl(
    const ServiceRun& base, const std::vector<std::string>* blobs) {
  if (blobs != nullptr && blobs->size() != cfg_.shards) {
    throw std::runtime_error(
        "service checkpoint: blob count " + std::to_string(blobs->size()) +
        " does not match shard count " + std::to_string(cfg_.shards));
  }
  run::TrialRunnerConfig rc;
  rc.threads = cfg_.threads;
  rc.base_seed = cfg_.base_seed;
  run::TrialRunner runner(rc);
  auto reports = runner.run(cfg_.shards, [&](run::TrialContext& ctx) {
    ServiceRun r = base;
    if (blobs != nullptr) r.restore_blob = &(*blobs)[ctx.index];
    return run_service_shard(cfg_, ctx.index, ctx.seed, r);
  });
  ServiceResult result;
  result.config = cfg_;
  result.shards = std::move(reports);
  return result;
}

ServiceResult ServiceScheduler::run() { return run_impl(ServiceRun{}, nullptr); }

ServiceResult ServiceScheduler::run_until(double checkpoint_at) {
  ServiceRun r;
  r.checkpoint_at = checkpoint_at;
  return run_impl(r, nullptr);
}

ServiceResult ServiceScheduler::resume(const std::vector<std::string>& blobs) {
  return run_impl(ServiceRun{}, &blobs);
}

void ServiceScheduler::write_checkpoint(const ServiceResult& result,
                                        const std::string& path) {
  util::BinWriter w;
  container_layout(w, result.shards, result.shards.size(),
                   [](const ServiceShardReport& s) -> const std::string& {
                     if (s.checkpoint.empty()) {
                       throw std::runtime_error(
                           "service checkpoint: shard " +
                           std::to_string(s.shard) +
                           " has no checkpoint blob (was the run made with "
                           "run_until?)");
                     }
                     return s.checkpoint;
                   });
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  const std::string& blob = w.blob();
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!out) {
    throw std::runtime_error("write failed: " + path);
  }
}

std::vector<std::string> ServiceScheduler::read_checkpoint(
    const std::string& path, std::size_t expect_shards) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string contents = buf.str();
  util::BinReader r(contents);
  std::vector<std::string> blobs;
  container_layout(r, blobs, expect_shards,
                   [](std::string& b) -> std::string& { return b; });
  return blobs;
}

std::uint64_t ServiceResult::episodes_opened() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.episodes_opened;
  return n;
}

std::uint64_t ServiceResult::episodes_closed() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.episodes_closed;
  return n;
}

std::uint64_t ServiceResult::outcome_count(EpisodeOutcome o) const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.outcomes[static_cast<std::size_t>(o)];
  return n;
}

std::uint64_t ServiceResult::outages_injected() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.outages_injected;
  return n;
}

double ServiceResult::episodes_per_sim_hour() const {
  const double hours = config.horizon_seconds / 3600.0;
  return hours > 0.0 ? static_cast<double>(episodes_closed()) / hours : 0.0;
}

std::vector<double> ServiceResult::remediate_latencies() const {
  std::vector<double> out;
  for (const auto& s : shards) {
    out.insert(out.end(), s.remediate_latencies.begin(),
               s.remediate_latencies.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool ServiceResult::budget_respected() const {
  for (const auto& s : shards) {
    if (s.announce_spent > s.announce_capacity + 1e-6) return false;
    if (s.announce_utilization < 0.0 || s.announce_utilization > 1.0) {
      return false;
    }
  }
  return true;
}

std::string ServiceResult::fingerprint() const {
  std::ostringstream os;
  for (const auto& s : shards) {
    char fnv[32];
    std::snprintf(fnv, sizeof(fnv), "%016llx",
                  static_cast<unsigned long long>(s.fingerprint));
    os << "shard " << s.shard << " origin " << s.origin << " clients "
       << s.clients << " prefixes " << s.prefixes << " ticks " << s.ticks
       << " outages " << s.outages_injected << " opened " << s.episodes_opened
       << " closed " << s.episodes_closed << " outcomes [";
    // The captive slot prints only when hit, so cooperative-run digests are
    // unchanged from before the outcome array grew it.
    const std::size_t n_outcomes =
        s.outcomes.back() == 0 ? s.outcomes.size() - 1 : s.outcomes.size();
    for (std::size_t i = 0; i < n_outcomes; ++i) {
      if (i != 0) os << ",";
      os << s.outcomes[i];
    }
    os << "] leases " << s.slot_leases << " spent ";
    append_num(os, s.announce_spent);
    os << " util ";
    append_num(os, s.announce_utilization);
    os << " fnv " << fnv << "\n";
    for (const auto& rec : s.records) {
      os << "  key " << rec.key << " " << topo::format_ipv4(rec.client)
         << " as" << rec.client_as << " "
         << core::episode_outcome_name(rec.outcome) << " blamed"
         << (rec.blamed == topo::kInvalidAs ? 0 : rec.blamed) << " slot"
         << rec.slot << " flap" << rec.flap_generation << " defers "
         << rec.probe_deferrals << "/" << rec.budget_deferrals << " t=[";
      append_num(os, rec.opened_at);
      os << ",";
      append_num(os, rec.remediated_at);
      os << ",";
      append_num(os, rec.closed_at);
      os << "]\n";
    }
  }
  return os.str();
}

}  // namespace lg::fleet
