// Messages, flits and credits: the NoC payload vocabulary.
//
// The message types are exactly the coherence-protocol vocabulary of the
// paper's Table 3. A message is one packet; control messages are one 16-byte
// flit, data messages (64B line + header) are five flits.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/types.hpp"

namespace rc {

enum class MsgType : std::uint8_t {
  // ---- requests (VN0) ----
  GetS,      ///< L1 read miss -> home L2 bank
  GetX,      ///< L1 write miss / upgrade -> home L2 bank
  WbData,    ///< L1 replacement data -> home L2 bank (5 flits)
  Inv,       ///< invalidation, L2 -> sharer L1s
  FwdGetS,   ///< L2 forwards a GetS to the exclusive owner L1
  FwdGetX,   ///< L2 forwards a GetX to the exclusive owner L1
  MemRead,   ///< L2 miss -> memory controller
  MemWb,     ///< L2 replacement data -> memory controller (5 flits)
  // ---- replies (VN1) ----
  L2Reply,     ///< data, L2 -> L1 (5 flits)               [circuit-eligible]
  L1DataAck,   ///< L1 acknowledges data reception -> L2
  L2WbAck,     ///< L2 acknowledges write-back -> L1        [circuit-eligible]
  L1InvAck,    ///< invalidation acknowledgement, L1 -> L2
  MemData,     ///< data, memory controller -> L2 (5 flits) [circuit-eligible]
  MemAck,      ///< write-back ack, memory controller -> L2 [circuit-eligible]
  L1ToL1,      ///< direct data transfer between L1s (5 flits)
};

inline constexpr int kNumMsgTypes = static_cast<int>(MsgType::L1ToL1) + 1;

const char* to_string(MsgType t);

/// Virtual network a message class travels on.
VNet vnet_of(MsgType t);

/// True for request types that reserve a reactive circuit for their reply
/// while they travel (§4.1): GetS/GetX (for the L2Reply), WbData (for the
/// L2WbAck), MemRead/MemWb (for the MEMORY replies).
bool request_builds_circuit(MsgType t);

/// True for the reply types a circuit can be built for (53.2% of replies in
/// the paper's Table 1 terms).
bool reply_circuit_eligible(MsgType t);

/// True for data-carrying messages (5 flits); the rest are 1-flit control.
bool is_data(MsgType t);

/// Per-message circuit bookkeeping for the statistics of Fig. 6.
enum class CircuitOutcome : std::uint8_t {
  NotEligible,  ///< reply type that can never have a circuit
  Used,         ///< travelled on its own (complete or fully-fragmented) circuit
  Partial,      ///< fragmented: used some reserved hops (counted as "failed")
  Failed,       ///< reservation could not be completed while building
  Undone,       ///< completely built, then torn down before use
  Scrounged,    ///< rode a circuit built for another message (§4.5)
  None,         ///< eligible but mechanism disabled (baseline)
};

const char* to_string(CircuitOutcome o);

struct CircuitConfig;  // common/config.hpp
struct Message;
using MsgPtr = std::shared_ptr<Message>;

/// Fig. 6 category of a *delivered* message. One shared classifier feeds
/// both the NI's aggregate counters and the telemetry event trace, so the
/// two can never drift apart. `NotReply` covers requests; `ScroungeHop` is
/// a scrounger ejected at its intermediate hop (not a final delivery — the
/// onward leg is re-injected with the same message id, §4.5).
enum class ReplyCategory : std::uint8_t {
  NotReply = 0,
  Used,
  Partial,
  Failed,
  Undone,
  Scrounged,
  NotEligible,
  EligibleNoCirc,
  ScroungeHop,
};

inline constexpr int kNumReplyCategories = 9;

const char* to_string(ReplyCategory c);

/// Aggregate counter the NI bumps for this category ("reply_used", ...), or
/// nullptr for the categories that have none (NotReply, ScroungeHop).
const char* reply_counter_name(ReplyCategory c);

/// Classify a delivered message into its Fig. 6 category. Mirrors the
/// decision order the paper's accounting implies: scrounged beats the undone
/// marker, eligibility beats mechanism-off, a ridden circuit beats the
/// recorded outcome.
ReplyCategory classify_reply_category(const Message& m,
                                      const CircuitConfig& cfg);

/// One coherence message == one NoC packet.
struct Message {
  std::uint64_t id = 0;
  MsgType type{};
  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;
  Addr addr = 0;       ///< cache line this transaction concerns
  int size_flits = 1;

  // -- protocol payload --
  bool exclusive = false;          ///< L2Reply grants E (no other sharers)
  NodeId fwd_requestor = kInvalidNode;  ///< FwdGetS/X: the original requestor
  /// Inv with downgrade: the L2-intermediary protocol variant recalls an
  /// owner's copy for a read — the owner keeps the line in S.
  bool downgrade = false;

  // -- circuit-building state, valid while this is an in-flight request --
  bool build_circuit = false;  ///< this request reserves a circuit
  bool circuit_ok = true;      ///< all reservations so far succeeded
  bool circuit_partial = false;///< fragmented: some reservation failed
  int used_delay = 0;          ///< SlackDelay: cycles of slot shift committed
  int path_hops = 0;           ///< manhattan(src, dest), fixed at injection
  int reply_size_flits = 1;    ///< flit count of the reply being reserved for

  // -- reply-side circuit state --
  bool on_circuit = false;       ///< travelling on a reserved circuit
  NodeId circuit_dest = kInvalidNode;  ///< identity of the circuit being ridden
  Addr circuit_addr = 0;
  bool scrounging = false;       ///< riding someone else's circuit (§4.5)
  NodeId final_dest = kInvalidNode;    ///< scrounger's ultimate destination
  bool ack_elided = false;       ///< receiver must not send L1DataAck (§4.6)
  /// The forward-to-owner case undoes the requestor's circuit; the L1ToL1
  /// reply that replaces its use carries this marker so Fig-6 accounting can
  /// attribute the undone circuit to a reply message.
  bool undone_marker = false;

  CircuitOutcome outcome = CircuitOutcome::None;

  // -- statistics timestamps --
  Cycle created = 0;    ///< enqueued at the source NI
  Cycle injected = 0;   ///< head flit entered the network
  Cycle delivered = 0;  ///< tail flit ejected at the destination NI

  bool is_reply() const { return vnet_of(type) == VNet::Reply; }
};

/// Flow-control unit. Flits of a packet share the Message; `seq` orders them.
///
/// Flits carry a raw pointer, not a shared_ptr: copying a refcount per flit
/// per hop is pure atomic churn on the hottest path (and cache-line
/// ping-pong under the sharded engine). Ownership is pinned exactly once at
/// head-flit injection in a MessagePool and released at tail-flit ejection
/// (see noc/message_pool.hpp), so the Message outlives every flit that
/// references it.
struct Flit {
  Message* msg = nullptr;
  int seq = 0;
  VNet vnet = VNet::Request;
  int vc = 0;          ///< VC within the VN, updated hop by hop
  bool on_circuit = false;

  bool is_head() const { return seq == 0; }
  bool is_tail() const { return msg && seq == msg->size_flits - 1; }
};

/// Tear-down record carried by credits (§4.4): identifies the circuit by
/// its destination node, cache-line address and building request (so two
/// in-flight circuits with the same identity can never be confused).
struct UndoRecord {
  NodeId circuit_dest = kInvalidNode;
  Addr addr = 0;
  std::uint64_t owner_req = 0;
};

/// Credit travelling upstream on a link's credit wires. `vc < 0` means a
/// "specific credit" synthesized only to carry an undo record.
struct Credit {
  VNet vnet = VNet::Request;
  int vc = -1;
  std::optional<UndoRecord> undo;
};

class StateWriter;
class StateReader;

// ---- snapshot codecs (DESIGN.md §16) ----
//
// A message's globally unique id is its swizzle key. Owners of a MsgPtr
// serialize the reference with save_msg_ref, which registers the object in
// the writer's shared-object table; flits (raw pointers) write only the id,
// relying on the MessagePool's pin to have registered the object. On load
// the reader's registry resolves ids back to one shared Message per id, so
// aliasing is reconstructed exactly.
void save_message(StateWriter& w, const Message& m);
bool load_message(StateReader& r, Message* m);
void save_msg_ref(StateWriter& w, const MsgPtr& m);
bool load_msg_ref(StateReader& r, MsgPtr* m);
void save_flit(StateWriter& w, const Flit& f);
bool load_flit(StateReader& r, Flit* f);
void save_undo(StateWriter& w, const UndoRecord& u);
bool load_undo(StateReader& r, UndoRecord* u);
void save_credit(StateWriter& w, const Credit& c);
bool load_credit(StateReader& r, Credit* c);

}  // namespace rc
