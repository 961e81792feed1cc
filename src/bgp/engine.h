// Event-driven BGP propagation engine.
//
// Drives UPDATE exchange between all speakers over the simulation scheduler:
// per-(session, prefix) MRAI rate limiting (this is what creates the paper's
// multi-minute convergence and path exploration), link propagation delays,
// and bookkeeping for the convergence/update-count measurements of §5.2 and
// the load model of Table 2.
//
// Per-AS state is indexed by the graph's dense AS index (AsGraph::index_of,
// ascending AS id). The engine builds one *session layout* at construction:
// each AS's neighbors sorted by id, with their relationships. A neighbor's
// rank there is its *slot*, which indexes the MRAI table and the speaker's
// RIBs; speakers read their row of the layout rather than keeping a copy.
// An export fan-out (one sender, one prefix) resolves the sender's prefix
// state and the prefix's MRAI table once, then offers the prefix to each
// session by slot. Sessions are visited in AsGraph::neighbors() order through
// a permutation built with the layout, because every send draws link delay
// and MRAI jitter from the engine RNG; that order is part of the canon.
//
// Each update's delivery time is fixed once, when it is sent: the link
// delay plus the fault plane's extra delay, moved past any session-down
// window at the arrival instant, then raised to the previous delivery on
// the same (session, prefix). The last step is the ordering BGP gets from
// TCP: an update never overtakes the one sent before it on its session for
// its prefix, at any MRAI, with or without faults.
//
// Deliveries run through a *frontier pump*: every in-flight update is
// assigned to the first quantum boundary at or after its arrival time
// (EngineConfig::pump_quantum), and all updates landing in the same quantum
// form one frontier. The pump visits a frontier's receivers in AS-index
// order and applies each receiver's messages in arrival order, with every
// side effect in place (counters, traces, damping recheck); it never
// consults the fault plane. It then notifies and exports once per prefix
// whose best route changed *net* across the frontier, so a best route that
// flip-flops inside one quantum causes no route event and no export churn.
// Every export lands in a later bucket, so a frontier never feeds itself.
// See DESIGN.md "Frontier pump".
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/speaker.h"
#include "bgp/types.h"
#include "mem/pool.h"
#include "obs/span.h"
#include "topology/as_graph.h"
#include "util/rng.h"
#include "util/scheduler.h"

namespace lg::obs {
class Counter;
class TraceRing;
}  // namespace lg::obs

namespace lg::faults {
class FaultPlane;
}  // namespace lg::faults

namespace lg::adversary {
class AdversaryPlane;
}  // namespace lg::adversary

namespace lg::util {
class BinWriter;
class BinReader;
}  // namespace lg::util

namespace lg::bgp {

// The BgpEngine constructor throws std::invalid_argument naming the field
// for a config it cannot model: a non-positive or non-finite pump_quantum or
// link_delay_min, link_delay_max below link_delay_min, mrai_jitter_frac
// outside [0, 1], or a negative or non-finite default_mrai.
struct EngineConfig {
  double link_delay_min = 0.01;   // seconds, one-way per BGP session
  double link_delay_max = 0.05;
  double default_mrai = 30.0;     // per-session, per-prefix advertisement gap
  double mrai_jitter_frac = 0.25; // effective MRAI in [mrai*(1-f), mrai]
  std::uint64_t seed = 7;
  // Frontier quantum: an update arriving at t is delivered at the first
  // multiple of pump_quantum >= t, batching same-quantum arrivals into one
  // frontier. Part of the simulation semantics; keep it below
  // link_delay_min so cross-session ordering stays delay-driven.
  double pump_quantum = 0.005;
  // Retired: the pump is single-threaded, and the constructor throws
  // std::invalid_argument for any value above 1. The field remains only
  // because the benchmark (perfbench/) sets it to 1; it is removed with the
  // next change to the benchmark.
  std::size_t world_threads = 0;
};

// Fired whenever a speaker's best route for a prefix changes (equivalently:
// whenever the AS would send an UPDATE to a route-collector customer).
struct RouteEvent {
  double time = 0.0;
  AsId as = topo::kInvalidAs;
  Prefix prefix;
  std::optional<Route> best;  // nullopt = route lost
};

class RouteObserver {
 public:
  virtual ~RouteObserver() = default;
  virtual void on_route_change(const RouteEvent& event) = 0;
};

class BgpEngine {
 public:
  BgpEngine(const topo::AsGraph& graph, util::Scheduler& sched,
            EngineConfig cfg = {});
  ~BgpEngine();
  BgpEngine(const BgpEngine&) = delete;
  BgpEngine& operator=(const BgpEngine&) = delete;

  const topo::AsGraph& graph() const noexcept { return *graph_; }
  util::Scheduler& scheduler() noexcept { return *sched_; }

  BgpSpeaker& speaker(AsId id);
  const BgpSpeaker& speaker(AsId id) const;

  // The Peerlock locked set (sorted provider-free clique) this engine
  // computed and installed into every speaker; the invariant checker
  // replicates the filter from it.
  const std::vector<AsId>& locked_ases() const noexcept {
    return locked_ases_;
  }
  // Adversarial-import rejection totals across all speakers (diagnostics
  // for bench/sec8_adversarial and the adversary tests).
  std::uint64_t pathlen_rejections() const;
  std::uint64_t peerlock_rejections() const;

  // ---- Origination control (what BGP-Mux gave the paper's authors) ----
  // (Re)announce `prefix` from `as` under `policy`; triggers propagation.
  void originate(AsId as, const Prefix& prefix, OriginPolicy policy);
  // Stop announcing entirely.
  void withdraw(AsId as, const Prefix& prefix);

  // ---- Observation ----
  void add_observer(RouteObserver* observer) { observers_.push_back(observer); }
  void remove_observer(RouteObserver* observer);

  // ---- Queries ----
  const Route* best_route(AsId as, const Prefix& prefix) const {
    return speaker(as).best_route(prefix);
  }
  FibResult fib_lookup(AsId as, topo::Ipv4 dst) const {
    return speaker(as).fib_lookup(dst);
  }

  // Run the scheduler until BGP quiesces (no pending events) or `until`.
  void run_to_quiescence(double until = util::Scheduler::kForever) {
    sched_->run(until);
  }

  // Re-run the export path for every (speaker, prefix) pair. At a true
  // quiesced fixpoint every export diff against Adj-RIB-Out is empty, so
  // this sends zero messages — lg::check uses that as an idempotence
  // invariant (total_messages() unchanged across the call + drain).
  void reexport_all();

  // ---- Counters (resettable; used for U in Table 2 and §5.2) ----
  // Also zeroes this engine's lg.bgp.* counters in the metrics registry it
  // was constructed against, so per-phase run reports do not double-count
  // earlier phases of the same process.
  void reset_counters();
  std::uint64_t total_messages() const noexcept { return total_messages_; }
  std::uint64_t messages_sent_by(AsId as) const;
  std::uint64_t best_changes_of(AsId as) const;
  // Time of the last delivered message since reset (global convergence end).
  double last_activity_time() const noexcept { return last_activity_; }

  // Deterministic structural memory accounting across every speaker plus
  // the engine's own per-session state (MRAI tables, frontier pool). Shared
  // path/community buffers are excluded (they cost one allocation per
  // distinct buffer, not per holder); see docs/TOPOLOGIES.md for the model.
  struct RibMemoryTotals {
    std::size_t bytes = 0;          // container footprint in bytes
    std::size_t routes = 0;         // resident Adj-RIB-In entries
    std::size_t adj_out_slots = 0;  // advertised Adj-RIB-Out entries
    std::size_t prefix_states = 0;  // per-speaker prefix states
  };
  RibMemoryTotals rib_memory() const;

  // ---- Checkpoint/restore (implemented in bgp/snapshot.cc) ----
  // Save (BinWriter) or reinstate (BinReader) the full control-plane state:
  // every speaker's RIBs (with engine-wide interning of shared
  // path/community buffers), the per-(session, prefix) MRAI tables, the
  // engine RNG mid-stream (link-delay / MRAI jitter consumption), and the
  // resettable counters. A snapshot loads only into an engine built over
  // the same topology with the same configuration; existing speaker state
  // is replaced wholesale. Precondition for both: the engine is quiesced —
  // no frontier bucket pending and no update in flight (throws
  // std::runtime_error otherwise; in-flight closures cannot be serialized).
  void serialize(util::BinWriter& w) const;
  void serialize(util::BinReader& r);

 private:
  struct MraiState {
    double ready_at = 0.0;
    bool flush_scheduled = false;
    // Delivery time of the last update sent on this (session, prefix); the
    // next one is never due earlier. Not checkpointed: a snapshot needs a
    // quiesced engine, where every last_due is past and cannot bind again.
    double last_due = 0.0;
  };

  // Prefix-level before/after snapshot so a frontier that flip-flops a best
  // route inside one quantum produces no spurious route event or export.
  // `state` is the receiver's state for the prefix, resolved on first touch
  // and handed to the export fan-out.
  struct PrefixTouch {
    Prefix prefix;
    BgpSpeaker::PrefixState* state = nullptr;
    std::optional<Route> before;
    bool changed = false;  // some message changed the best route
  };

  // The checkpoint layout behind both serialize() overloads: Self is const
  // BgpEngine when Ar is util::BinWriter (bgp/snapshot.cc).
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self);

  // Export fan-out of the speaker at index `fi` for `prefix`; `st` is that
  // speaker's state for the prefix (nullptr: none). The prefix's MRAI table
  // is resolved once, then every session is offered the prefix by neighbor
  // slot, visited in AsGraph::neighbors() order because each send draws
  // link delay and MRAI jitter from rng_.
  void schedule_exports(std::uint32_t fi, const Prefix& prefix,
                        BgpSpeaker::PrefixState* st);
  // One session of a fan-out: `slot` is the neighbor's slot at the sender
  // (its rank in the sorted adjacency), `mrai` the session's MRAI entry.
  void try_send(std::uint32_t fi, std::uint32_t slot, const Prefix& prefix,
                BgpSpeaker::PrefixState* st, MraiState& mrai);
  // The same with `st` and `mrai` re-resolved: the form the fault plane's
  // retry closures call.
  void try_send(std::uint32_t fi, std::uint32_t slot, const Prefix& prefix);
  void send_now(std::uint32_t fi, std::uint32_t slot, const Prefix& prefix,
                BgpSpeaker::PrefixState* st, MraiState& mrai);
  // The per-(session, prefix) entry that deferred and retried sends
  // re-resolve when their closures fire.
  MraiState& mrai_entry(std::uint32_t fi, std::uint32_t slot,
                        const Prefix& prefix);
  // The prefix's MRAI table, created on first use.
  std::vector<MraiState>& mrai_table(const Prefix& prefix);
  // The frontier bucket an arrival at `due` lands in: the first quantum
  // boundary at or after it, delivered at bucket * pump_quantum.
  std::int64_t bucket_of(double due) const;
  // Route the message into its quantum bucket (scheduling the bucket's pump
  // tick if this is the bucket's first message).
  void enqueue_delivery(double due, UpdateMessage msg);
  // Process one frontier: receivers in AS-index order, each through
  // deliver_to.
  void pump_frontier(std::int64_t bucket);
  // Apply the frontier messages msgs[pump_order_[lo..hi)], all addressed to
  // the speaker at dense index `r`, then notify and export its net best-route
  // changes.
  void deliver_to(std::uint32_t r, std::size_t lo, std::size_t hi,
                  std::vector<UpdateMessage>& msgs, double now);
  void notify(AsId as, const Prefix& prefix);
  // Convergence-pump spans: a bgp.pump span covers each maximal period with
  // at least one update in flight (the 0 -> 1 transition opens it, the
  // drain back to 0 closes it with an updates_delivered delta). With spans
  // disabled this is an integer inc/dec plus one branch per message.
  void delivery_scheduled();
  void delivery_done();
  double mrai_for(std::uint32_t fi);
  double link_delay() { return rng_.uniform(cfg_.link_delay_min, cfg_.link_delay_max); }

  const topo::AsGraph* graph_;
  util::Scheduler* sched_;
  EngineConfig cfg_;
  util::Rng rng_;
  // Fault plane resolved at construction (faults::FaultPlane::current()) and
  // consulted only on send. Disabled plane => every hook is one predictable
  // branch; enabled plane injects session downtime, update loss (with
  // retransmit), and delays.
  faults::FaultPlane* faults_;
  // Adversary plane resolved at construction (AdversaryPlane::current()).
  // Disabled plane => no profiles applied, locked set still computed (the
  // filter is inert without a profile switching it on).
  adversary::AdversaryPlane* adversary_;
  std::vector<AsId> locked_ases_;

  // The session layout: directed sessions laid out per sending AS via
  // sess_base_ (prefix sums of degrees) over sess_nbr_ / sess_rel_ (each
  // AS's neighbor ids ascending and their relationships, concatenated), so
  // session sess_base_[i] + s is AS i's neighbor slot s. Speaker i holds
  // spans over its row. export_slot_ lists each AS's slots in
  // AsGraph::neighbors() order: the order a fan-out walks them.
  std::vector<std::uint32_t> sess_base_;    // size n+1
  std::vector<AsId> sess_nbr_;              // size sess_base_.back()
  std::vector<topo::Rel> sess_rel_;         // size sess_base_.back()
  std::vector<std::uint32_t> export_slot_;  // size sess_base_.back()
  // Speakers and counters are vectors indexed by the graph's AS index, which
  // keeps hashing off the hot pump and frontier partitioning cache friendly.
  std::vector<BgpSpeaker> speakers_;

  // Per-(session, prefix) MRAI state, stored as one flat vector per prefix
  // indexed by the directed-session index. At Internet scale this replaces
  // millions of hash-map nodes with a handful of contiguous tables: O(1)
  // access after one prefix lookup, no rehash, 24 bytes/session.
  std::unordered_map<Prefix, std::vector<MraiState>, topo::PrefixHash> mrai_;
  std::vector<RouteObserver*> observers_;

  // Frontier buckets keyed by quantum index (bucket time = key * quantum).
  // Exactly one pump tick is scheduled per live bucket.
  std::unordered_map<std::int64_t, std::vector<UpdateMessage>> frontier_;
  // Retired bucket vectors, recycled by enqueue_delivery so steady-state
  // pumping allocates no per-bucket storage.
  mem::VectorPool<UpdateMessage> msg_pool_;
  // Reusable pump scratch: the frontier's (receiver index << 32 | arrival
  // index) keys, sorted, and the current receiver's touched prefixes in
  // first-touch order.
  std::vector<std::uint64_t> pump_order_;
  std::vector<PrefixTouch> touches_;

  std::uint64_t total_messages_ = 0;
  double last_activity_ = 0.0;
  std::vector<std::uint64_t> sent_by_;
  std::vector<std::uint64_t> best_changes_;
  // Pump-span bookkeeping (see delivery_scheduled/delivery_done).
  std::uint64_t in_flight_ = 0;
  std::uint64_t delivered_total_ = 0;
  std::uint64_t pump_delivered_start_ = 0;
  obs::SpanId pump_span_ = 0;

  // Observability handles, resolved once against the global registry so the
  // per-message cost is a branch plus an add (see obs/metrics.h).
  obs::Counter* c_updates_sent_;
  obs::Counter* c_announces_sent_;
  obs::Counter* c_withdrawals_sent_;
  obs::Counter* c_updates_delivered_;
  obs::Counter* c_mrai_deferrals_;
  obs::Counter* c_best_path_changes_;
  // Fault-plane consequence counters; registered only when the plane is
  // enabled (like lg.faults.*) so fault-free reports stay byte-identical.
  // With them, the identity sent == announces + withdrawals + lost holds.
  // updates_held counts sends whose delivery was raised to keep order.
  obs::Counter* c_updates_lost_ = nullptr;
  obs::Counter* c_updates_held_ = nullptr;
  obs::TraceRing* trace_;
  obs::SpanRegistry* spans_;
};

}  // namespace lg::bgp
