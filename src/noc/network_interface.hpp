// Network interface: packetisation, VC selection, circuit origin tracking.
//
// The NI owns the paper's per-node circuit bookkeeping (§4.1: "Information
// of the circuit is also stored in the network interface where the circuit
// starts"):
//  * when a circuit-building request is delivered here, an origin record is
//    created (or a tombstone, when the reservation failed en route);
//  * the reply consults that record at injection: ride the circuit within
//    its departure window, or undo it (§4.4/§4.7) and go packet-switched;
//  * circuit-less replies may scrounge another message's circuit (§4.5);
//  * the L2 is told when its data reply departs on a complete circuit so it
//    can elide the L1_DATA_ACK (§4.6).
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/pipe.hpp"
#include "common/ring.hpp"
#include "common/schedule.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/message.hpp"
#include "noc/routing.hpp"

namespace rc {

class MessagePool;
class NocObserver;
class Topology;

class NetworkInterface : public Ticker {
 public:
  /// `pool` pins message ownership while flits (which carry raw pointers)
  /// are in the fabric: pinned at head-flit injection here, released at
  /// tail-flit ejection at the destination NI.
  NetworkInterface(NodeId id, const NocConfig& cfg, const Topology* topo,
                   StatSet* stats, MessagePool* pool);

  /// Wire the four local pipes: flits we inject, credits coming back for the
  /// router's local input buffers, flits ejected to us, and the credit wire
  /// we use to send circuit undo records into the router.
  void wire(Pipe<Flit>* inject, Pipe<Credit>* inject_credits,
            Pipe<Flit>* eject, Pipe<Credit>* undo_out);

  void set_deliver(std::function<void(const MsgPtr&)> cb) {
    deliver_ = std::move(cb);
  }
  /// Called when a reply's head flit is injected; `on_circuit` tells the
  /// local L2 whether the §4.6 ACK elision applies.
  void set_reply_injected(std::function<void(const MsgPtr&, bool)> cb) {
    reply_injected_ = std::move(cb);
  }

  /// Enqueue a message for injection (called by the local controllers).
  void send(const MsgPtr& msg, Cycle now);

  /// Tear down the circuit reserved for (dest, addr) before use (§4.4):
  /// clears the origin record and launches the credit-carried undo.
  /// `expect_reply` keeps a tombstone so the late reply is counted as
  /// "undone" (the L2-miss knob); the forward-to-owner case passes false
  /// because no reply will ever leave this node. Returns true when a built
  /// circuit existed.
  bool undo_circuit(NodeId dest, Addr addr, Cycle now, bool expect_reply);

  void tick(Cycle now);
  /// Earliest cycle with pending work: queued/streaming packets need every
  /// cycle (including replies holding for a timed departure window);
  /// otherwise the next ejected flit or returning credit.
  Cycle next_work(Cycle now) const {
    if (pending() > 0) return now;
    Cycle w = kNeverCycle;
    if (eject_) w = std::min(w, eject_->next_ready());
    if (inject_credits_) w = std::min(w, inject_credits_->next_ready());
    return w;
  }

  /// Attach a fabric observer (message injection/delivery, undo launches).
  void set_observer(NocObserver* obs) { obs_ = obs; }

  NodeId node() const { return id_; }
  /// Messages queued or mid-injection at this NI.
  std::size_t pending() const {
    return q_[0].size() + q_[1].size() + (stream_[0].active() ? 1 : 0) +
           (stream_[1].active() ? 1 : 0);
  }
  StatSet& stats() { return *stats_; }

  /// Snapshot save/load: injection queues, streams, outstanding-flit
  /// counters and the full origin table (tombstones included — purge timing
  /// depends on the tombstone population, so the table must round-trip
  /// exactly). Queue-scan memos and the whole-scan summary are NOT saved:
  /// restore invalidates them, which is always safe (they are pure skip
  /// hints; the next scan re-probes and reproduces the same outcome).
  void save(StateWriter& w) const;
  bool load(StateReader& r);

 private:
  enum class OriginStatus : std::uint8_t { Built, Failed, Undone };
  struct Origin {
    /// Tombstone flag: erased origins keep their map node (so queue-scan
    /// memos can hold stable pointers) with present=false; every reader
    /// treats !present exactly like a missing key. Unpinned tombstones are
    /// purged once they dominate the table.
    bool present = true;
    /// Bumped (from origin_ver_) on every semantic mutation of this key,
    /// including tombstoning and resurrection. A queue-scan memo recording
    /// (pointer, ver) stays valid while the version matches, so mutations
    /// of *other* keys no longer force a rescan of the whole reply backlog.
    std::uint64_t ver = 0;
    OriginStatus status = OriginStatus::Built;
    bool partial = false;  ///< fragmented: not every router reserved
    Cycle depart_min = 0;
    Cycle depart_max = kNeverCycle;
    /// Scroungers selected but whose tail flit is not yet injected. A
    /// tear-down launched while riders are mid-injection could overtake
    /// them (it travels just as fast), so it is deferred instead.
    int riders = 0;
    std::uint64_t req_id = 0;  ///< id of the request that built this circuit
    /// Tear-downs waiting for riders to drain (undo records must trail any
    /// in-flight rider). A same-identity request that re-builds a circuit
    /// while one is already recorded also queues the duplicate instance
    /// here.
    std::vector<std::uint64_t> deferred_undo_owners;
    bool undo_expect_reply = false;
    bool undo_deferred() const { return !deferred_undo_owners.empty(); }
  };
  struct Stream {  // one packet being injected, per VN
    MsgPtr msg;
    int next_seq = 0;
    int vc = 0;
    bool on_circuit = false;
    bool active() const { return msg != nullptr; }
  };

  /// One queued message plus an inline memo of its last failed injection
  /// probe. The skip test in try_start_packet reads only this slot (plus
  /// the memoed origin's version word), so walking a deep reply backlog
  /// stays cache-linear instead of dereferencing every queued message and
  /// re-probing it whenever any origin changed.
  ///
  /// kind kMemoHeld: the reply is held for its departure slot until `hold`.
  /// kind kMemoVcBlocked: blocked until a non-circuit reply VC frees (or a
  /// scrounge candidate appears). Either memo additionally depends on the
  /// probed origin key's state: valid only while okey (nullptr when the
  /// probe consulted no origin) still carries version `over`. Memoed
  /// pointers stay valid across tombstone purges because the purge skips
  /// pinned nodes (see try_start_packet).
  struct QEntry {  // aggregate: no NSDMIs, so the ring can instantiate it
    MsgPtr msg;    // while NetworkInterface is still incomplete; push sites
    const Origin* okey;  // always supply every field.
    std::uint64_t over;
    Cycle hold;
    std::uint8_t kind;
  };
  static constexpr std::uint8_t kMemoNone = 0;
  static constexpr std::uint8_t kMemoHeld = 1;
  static constexpr std::uint8_t kMemoVcBlocked = 2;

  void handle_request_delivered(const MsgPtr& msg, Cycle now);
  void finish_delivery(const MsgPtr& msg, Cycle now);
  bool try_start_packet(VNet vn, Cycle now);
  /// Whether (and how) the queued message could start injecting now.
  /// May mutate origin state (window-miss undo happens here). A failed
  /// reply probe leaves its memo in `e`: kMemoHeld or kMemoVcBlocked when
  /// one of the two memoizing fail sites ran (with the origin key it read),
  /// kMemoNone otherwise.
  bool prepare_injection(QEntry& e, Cycle now, int* vc, bool* on_circuit);
  bool pick_free_vc(VNet vn, bool circuit_class, int* vc) const;
  void inject_flit(Stream& s, Cycle now);
  void launch_undo(NodeId dest, Addr addr, std::uint64_t owner, Cycle now);
  void classify_delivered(const MsgPtr& msg);

  NodeId id_;
  NocConfig cfg_;
  const Topology* topo_;
  StatSet* stats_;
  MessagePool* pool_;
  LatencyModel lat_;

  Pipe<Flit>* inject_ = nullptr;
  Pipe<Credit>* inject_credits_ = nullptr;
  Pipe<Flit>* eject_ = nullptr;
  Pipe<Credit>* undo_out_ = nullptr;

  std::function<void(const MsgPtr&)> deliver_;
  std::function<void(const MsgPtr&, bool)> reply_injected_;
  NocObserver* obs_ = nullptr;

  /// Injection queues: inline rings so the steady-state enqueue/dequeue of
  /// messages performs no heap allocation (deep backlogs grow once and keep
  /// the capacity).
  InlineRing<QEntry, 8> q_[kNumVNets];
  Stream stream_[kNumVNets];
  int rr_vn_ = 0;  ///< round-robin over VN streams for the 1 flit/cycle link

  /// Outstanding flits per (vn, vc) in the router's local input buffer;
  /// a VC accepts a new packet only when it has fully drained.
  std::array<int, kNumVNets * 8> outstanding_{};
  int out_idx(int vn, int vc) const { return vn * 8 + vc; }
  std::uint64_t* inject_flits_ = nullptr;

  // Lazily cached pointers into the string-keyed StatSet for the
  // per-message hot paths (injection latency accumulators, delivery
  // classification). Each cache slot is filled on a stat's first use, so
  // the set of keys ever created — and with it the reported stats — is
  // byte-identical to the uncached lookups it replaces.
  struct DeliveredStats {
    Accumulator* lat_net = nullptr;
    Accumulator* lat_q = nullptr;
    Histogram* hist = nullptr;
  };
  Accumulator* q_lat_[2] = {nullptr, nullptr};  ///< [is_reply]
  std::uint64_t* msg_counter_[kNumMsgTypes] = {};
  DeliveredStats del_req_;        ///< requests
  DeliveredStats del_rep_[2];     ///< replies, [circuit-eligible]
  std::uint64_t* reply_counter_[kNumReplyCategories] = {};
  // Origin-table lifecycle counters fire once per circuit origin event.
  LazyCounter origin_used_;
  LazyCounter origin_undone_;
  LazyCounter origin_duplicate_;
  LazyCounter scrounge_rides_;

  std::map<std::pair<NodeId, Addr>, Origin> origins_;
  std::uint64_t origin_ver_ = 0;   ///< source for Origin::ver stamps
  int live_origins_ = 0;           ///< present (non-tombstone) entries

  void origin_mut(Origin& o) { o.ver = ++origin_ver_; }

  /// Whole-scan summary for the reply queue: recorded when a scan ends
  /// with nothing injectable, so the next tick can reproduce "nothing
  /// injectable" from a handful of compares instead of walking the
  /// backlog. Valid only while no origin of this NI mutated (origin_ver_
  /// unchanged — every memoed okey's version is then provably unchanged
  /// too) and the queue composition is unchanged (pushes clear it; pops
  /// only happen on a successful scan, which also clears it).
  bool rsum_valid_ = false;
  std::uint64_t rsum_ver_ = 0;
  Cycle rsum_hold_ = kNeverCycle;  ///< min hold among held entries
  bool rsum_has_none_ = false;     ///< some entry must be probed every scan
  bool rsum_has_vcb_ = false;      ///< some entry waits on a reply VC
  /// Tombstone a present entry: clears the payload (riders, deferred undos)
  /// so every present-guarded reader behaves exactly as after an erase.
  void origin_tomb(Origin& o) {
    const std::uint64_t v = o.ver;
    o = Origin{};
    o.present = false;
    o.ver = v;
    origin_mut(o);
    --live_origins_;
  }
};

}  // namespace rc
