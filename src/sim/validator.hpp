// Runtime invariant checker for the Reactive Circuits fabric (RC_CHECK=1).
//
// The Validator is a NocObserver that attaches to a Network and machine-
// checks, every cycle, the properties the model's correctness rests on:
//
//  * credit conservation — for every inter-router link and every buffered
//    VC, downstream buffer depth equals credits held at the sender plus
//    everything in flight (flits in the link pipe and switch-traversal
//    register, flits buffered or awaiting circuit retry downstream, credits
//    travelling back);
//  * flit conservation end-to-end — every injected message is eventually
//    delivered; a hang watchdog (RC_HANG_CYCLES, default 20000) dumps the
//    offending message's flight trace and all live circuit entries;
//  * circuit-table structure (§4.2) — at most `circuits_per_input` live
//    entries per port; untimed complete circuits share a source per input
//    port and never share an output port across input ports; timed slots
//    never overlap on a link (§4.7); fragmented reservations and the output
//    circuit-VC busy flags they claim stay in lockstep;
//  * table lifecycle — only expired entries are reclaimed, bound entries
//    never expire or get stolen by a tear-down (§4.4);
//  * complete-circuit non-blocking — a reply on a complete circuit advances
//    at least every other cycle (§4.3's crossbar priority guarantees it for
//    untimed circuits; timed ones get a generous bound).
//
// A violation prints a full report to stderr and calls rc::fatal (which
// throws FatalError, so drivers like rc-fuzz can attribute it to a config).
//
// Attachment is environment-gated: Validator::maybe_attach returns nullptr
// unless RC_CHECK is set to something other than "0"/"". An unattached
// network pays only null-pointer tests at the observer call sites.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/types.hpp"
#include "noc/observer.hpp"

namespace rc {

class Network;
class StateReader;
class StateWriter;

class Validator final : public NocObserver {
 public:
  /// Construct and attach iff the RC_CHECK environment variable enables
  /// checking (set, non-empty, not "0"); returns nullptr otherwise.
  /// RC_HANG_CYCLES (positive integer) overrides the watchdog timeout and
  /// is validated on attach — an invalid value exits with status 2.
  static std::unique_ptr<Validator> maybe_attach(Network* net);
  static bool enabled_by_env();

  explicit Validator(Network* net);
  ~Validator() override;

  Cycle hang_cycles() const { return hang_cycles_; }
  std::uint64_t cycles_checked() const { return cycles_checked_; }
  /// Messages injected but not yet delivered.
  std::size_t in_flight() const { return flights_.size(); }

  /// End-of-run assertion for drained fabrics: nothing in flight, no live
  /// circuit entry (bound or not) and, in Fragmented mode, no output
  /// circuit VC still claimed.
  void check_idle(Cycle now) const;

  /// Snapshot save/load: the in-flight table (with flight logs), stall
  /// trackers and the recent-undo ring. A resumed checked run delivers
  /// messages injected before the snapshot, so restoring flights_ is
  /// required — an unknown delivery is a fatal violation.
  void save(StateWriter& w) const;
  bool load(StateReader& r);

  // ---- NocObserver ----
  void on_message_injected(NodeId node, const Message& m, Cycle now) override;
  void on_message_delivered(NodeId node, const Message& m, Cycle now) override;
  void on_flit_buffered(NodeId node, Port in_port, const Flit& f,
                        Cycle now) override;
  void on_circuit_forwarded(NodeId node, Port in_port, const Flit& f,
                            Cycle now) override;
  void on_circuit_blocked(NodeId node, Port in_port, const Flit& f,
                          Cycle now) override;
  void on_undo_launched(NodeId node, NodeId circuit_dest, Addr addr,
                        std::uint64_t owner_req, Cycle now) override;
  void on_network_cycle(Cycle now) override;

  // ---- CircuitTableObserver ----
  void on_circuit_reclaimed(NodeId node, Port port, const CircuitEntry& e,
                            Cycle now) override;
  void on_circuit_released(NodeId node, Port port, const CircuitEntry& e,
                           std::uint64_t msg_id, Cycle now) override;
  void on_circuit_undone(NodeId node, Port port, const CircuitEntry& e,
                         std::uint64_t owner_req, Cycle now) override;

 private:
  struct FlightEvent {
    Cycle cycle = 0;
    const char* what = "";
    NodeId node = kInvalidNode;
    int port = -1;
  };
  struct Flight {
    MsgType type{};
    NodeId src = kInvalidNode;
    NodeId dest = kInvalidNode;
    bool on_circuit = false;
    bool scrounging = false;
    Cycle injected = 0;
    std::deque<FlightEvent> log;  ///< newest-kept ring (kFlightLogCap)
  };
  /// Per-(router, input port) progress tracker for the non-blocking check.
  struct StallState {
    Cycle last_fwd = kNeverCycle;
    Cycle last_block = kNeverCycle;
    int run = 0;  ///< consecutive progress-free blocked cycles
  };
  struct UndoEvent {
    Cycle cycle = 0;
    NodeId node = kInvalidNode;
    NodeId circuit_dest = kInvalidNode;
    Addr addr = 0;
    std::uint64_t owner_req = 0;
  };

  static constexpr std::size_t kFlightLogCap = 48;
  static constexpr std::size_t kUndoLogCap = 32;

  void record(std::uint64_t msg_id, const char* what, NodeId node, int port,
              Cycle now);
  void scan_tables(Cycle now);
  void scan_credits(Cycle now);
  void scan_watchdog(Cycle now);
  /// Print a report (optionally a specific flight's trace) plus every live
  /// circuit entry, then rc::fatal(what).
  [[noreturn]] void fail(const std::string& what, Cycle now,
                         const Flight* flight = nullptr) const;
  void dump_flight(const Flight& f) const;
  void dump_circuits(Cycle now) const;

  /// Event hooks fire from shard worker threads when the network runs
  /// sharded (common/shard.hpp); one lock serialises all bookkeeping. The
  /// global scans run from the barrier completion (single-threaded, workers
  /// parked), so the state they read is always a consistent end-of-cycle
  /// view. Uncontended in the serial (1-shard) configuration.
  mutable std::mutex mu_;
  Network* net_;
  Cycle hang_cycles_;
  std::uint64_t cycles_checked_ = 0;
  std::map<std::uint64_t, Flight> flights_;
  std::map<std::uint32_t, StallState> stalls_;
  std::deque<UndoEvent> recent_undos_;  ///< newest-kept ring (kUndoLogCap)
};

}  // namespace rc
