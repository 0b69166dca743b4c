// The network fabric: routers, NIs, links, and the local (same-tile) bypass.
//
// Controllers call send(); the fabric delivers every message to the
// destination node's deliver callback. Messages between controllers of the
// same tile bypass the network (they never reach the router), matching the
// paper's accounting, which only counts messages that traverse the NoC.
//
// Execution model: the Network is the one tick engine. configure_shards()
// splits the nodes into contiguous ranges (see common/shard.hpp) with one
// ShardSchedule each; drivers (System, SyntheticTraffic, raw-fabric
// harnesses) register their per-node Tickers with add_ticker(), and run()
// sweeps every shard's drivers, then its same-tile bypasses, NIs and
// routers. One shard is a plain serial loop; more run one worker per shard
// with a per-cycle barrier whose completion flushes the deferred
// cross-shard pipes and fires the observer's global scan. Either way an
// idle system fast-forwards its clock. Statistics are per node and merged
// on demand, so results are bit-identical for any shard count.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/pipe.hpp"
#include "common/schedule.hpp"
#include "common/shard.hpp"
#include "common/stats.hpp"
#include "noc/message_pool.hpp"
#include "noc/network_interface.hpp"
#include "noc/router.hpp"
#include "noc/topology.hpp"

namespace rc {

class Network {
 public:
  explicit Network(const NocConfig& cfg);

  /// Inject a message at its source node (or deliver locally). Safe to call
  /// from the shard that owns msg->src.
  void send(const MsgPtr& msg, Cycle now);

  /// Observe every message handed to the fabric (tracing, liveness checks).
  void set_send_observer(std::function<void(const MsgPtr&, Cycle)> cb) {
    send_observer_ = std::move(cb);
  }

  /// Attach a passive fabric observer to every router, NI and circuit table
  /// (see noc/observer.hpp). Pass nullptr to detach. The observed network
  /// additionally fires NocObserver::on_network_cycle at the end of every
  /// simulated cycle (after the barrier flush when sharded) — with a
  /// consistent global view.
  void set_observer(NocObserver* obs);
  NocObserver* observer() const { return obs_; }

  /// Delivery callback invoked at the destination node, with the node id.
  void set_deliver(std::function<void(NodeId, const MsgPtr&)> cb);
  /// §4.6 hook: reply head injected, with circuit usage flag.
  void set_reply_injected(std::function<void(NodeId, const MsgPtr&, bool)> cb);

  /// Partition the fabric into `shards` contiguous node ranges (clamped to
  /// [1, num_nodes]), one schedule each. Pipes whose producer and consumer
  /// routers land in different shards switch to deferred (mailbox) pushes.
  /// Call before any add_ticker() and before the first run().
  void configure_shards(int shards);
  int num_shards() const { return static_cast<int>(ranges_.size()); }

  /// Run `fn(range)` once for every shard's node range, on the shard
  /// workers (run_sharded over one step; the calling thread is shard 0).
  /// For setup passes outside the clock, such as System::prewarm: `fn` must
  /// touch only state owned by the nodes of its range.
  void for_each_shard(const std::function<void(ShardRange)>& fn);

  /// Register a driver component of `node` (a Ticker exposing tick(Cycle)
  /// and next_work(Cycle)) with the schedule of the shard owning that node.
  /// Register kind by kind, each kind in ascending node order: that is the
  /// serial tick order, and every shard sweeps its drivers in it before its
  /// fabric. The component must stay alive for every later run().
  template <typename C>
  void add_ticker(NodeId node, C* c, const char* what) {
    RC_ASSERT(!sealed_, "Network::add_ticker after the first run");
    std::size_t k = 0;
    while (!ranges_[k].contains(node)) ++k;
    scheds_[k]->add(c, what);
  }

  /// Simulate cycles [from, to) (from <= to) and return `to`: the only
  /// tick loop. Seals the schedules on first use. now() is the cycle being
  /// simulated while the run is in progress (drivers' callbacks read it)
  /// and `to` after; run(c, c) just sets the clock.
  /// When every frontier is in the future, the scheduler is activity-driven
  /// and no observer needs a per-cycle scan, the clock jumps to the
  /// earliest frontier.
  Cycle run(Cycle from, Cycle to);
  /// Advance one cycle: run(now, now + 1).
  void tick(Cycle now) { run(now, now + 1); }
  Cycle now() const { return now_; }

  const Topology& topo() const { return topo_; }
  const NocConfig& config() const { return cfg_; }
  /// Scheduling mode in effect (config + RC_VERIFY_TICKS/RC_TICK_ALWAYS
  /// overrides, resolved once at construction).
  TickMode tick_mode() const { return mode_; }
  Router& router(NodeId n) { return *routers_[n]; }
  NetworkInterface& ni(NodeId n) { return *nis_[n]; }
  MessagePool& pool() { return pool_; }

  /// All node statistics merged in fixed node order (bit-identical for any
  /// shard count). This walks every node's maps — cache the result, don't
  /// call it per cycle.
  StatSet merged_stats() const;
  /// One node's statistics (routers, NI and fabric counters of that tile).
  StatSet& node_stats(NodeId n) { return node_stats_[n]; }
  void reset_stats();

  /// Flits still queued anywhere (for drain checks in tests).
  bool idle() const;

  /// Snapshot save/load of the whole fabric: message pool pins, every pipe
  /// (construction order is config-deterministic, so the deque index is the
  /// identity), per-node stats, NIs and routers. Load restores pipes first —
  /// their enqueues fire wakers and pending masks as an over-approximation —
  /// then the components overwrite the masks with saved values. Wake stamps
  /// are not saved: a fresh fabric starts with every component awake, and
  /// the first sweep re-arms them exactly. Call only at a cycle boundary
  /// (deferred mailboxes empty).
  void save(StateWriter& w) const;
  bool load(StateReader& r);

 private:
  void drain_local(NodeId n, Cycle now);
  /// Append every shard's fabric (bypass drains, NIs, routers — the serial
  /// in-node order) after its drivers and seal the schedules. First run only.
  void seal_schedules();
  /// Barrier completion of a sharded cycle: flush the deferred cross-shard
  /// pipes that actually received pushes this cycle (each producer shard
  /// keeps a dirty list, so quiet boundaries cost nothing), waking the
  /// consuming Tickers, then fire the observer's global scan.
  /// Single-threaded by contract — all workers are parked.
  void finish_cycle(Cycle now);

  /// Schedulable wrapper for one node's same-tile bypass pipe: the pipe
  /// wakes it on push, so a schedule sweep visits it only when a local
  /// message is (or is about to be) deliverable.
  struct LocalDrain : Ticker {
    Network* net = nullptr;
    NodeId node = 0;
    void tick(Cycle now) { net->drain_local(node, now); }
    Cycle next_work(Cycle) const {
      return net->local_pipes_[node].next_ready();
    }
  };

  NocConfig cfg_;
  Topology topo_;
  std::vector<StatSet> node_stats_;  ///< sized before components; stable
  std::vector<LazyCounter> msg_local_;  ///< per-node "msg_local" cache
  LatencyModel lat_;
  TickMode mode_;
  MessagePool pool_;
  Cycle now_ = 0;

  /// One activity-frontier schedule per shard. Declared before every
  /// component container, so the stamp arrays outlive each Ticker bound
  /// into them; the driver components that owners register are destroyed
  /// before their owner's Network. Neither teardown touches the other:
  /// nothing dereferences a registered component after the last run.
  std::vector<std::unique_ptr<ShardSchedule>> scheds_;
  bool sealed_ = false;

  // Stable-address pipe storage.
  std::deque<Pipe<Flit>> flit_pipes_;
  std::deque<Pipe<Credit>> credit_pipes_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  std::deque<Pipe<MsgPtr>> local_pipes_;  ///< same-tile bypass, one per node
  std::vector<LocalDrain> drains_;        ///< sized once in the constructor

  /// Inter-router link endpoints, recorded at wiring time so
  /// configure_shards can tell which pipes cross a shard boundary.
  /// (NI<->router pipes never cross: both ends are the same tile.)
  struct FlitLink {
    NodeId producer, consumer;
    Pipe<Flit>* pipe;
  };
  struct CreditLink {
    NodeId producer, consumer;
    Pipe<Credit>* pipe;
  };
  std::vector<FlitLink> flit_links_;
  std::vector<CreditLink> credit_links_;

  std::vector<ShardRange> ranges_;
  /// Per-producer-shard lists of deferred pipes with pending mailbox items;
  /// finish_cycle flushes and clears them (see PipeDirtyList).
  std::vector<PipeDirtyList> dirty_;

  std::function<void(NodeId, const MsgPtr&)> deliver_;
  std::function<void(const MsgPtr&, Cycle)> send_observer_;
  NocObserver* obs_ = nullptr;
};

}  // namespace rc
