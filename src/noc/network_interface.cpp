#include "noc/network_interface.hpp"

#include <string>

#include "common/state.hpp"
#include "noc/message_pool.hpp"
#include "noc/observer.hpp"
#include "noc/router.hpp"
#include "noc/topology.hpp"

namespace rc {

NetworkInterface::NetworkInterface(NodeId id, const NocConfig& cfg,
                                   const Topology* topo, StatSet* stats,
                                   MessagePool* pool)
    : id_(id), cfg_(cfg), topo_(topo), stats_(stats), pool_(pool), lat_(cfg_) {
  RC_ASSERT(pool_ != nullptr, "NI needs a message pool");
  inject_flits_ = &stats_->counter("ni_inject_flit");
  origin_used_ = LazyCounter(stats_, "circ_origin_used");
  origin_undone_ = LazyCounter(stats_, "circ_origin_undone");
  origin_duplicate_ = LazyCounter(stats_, "circ_origin_duplicate");
  scrounge_rides_ = LazyCounter(stats_, "scrounge_rides");
}

void NetworkInterface::wire(Pipe<Flit>* inject, Pipe<Credit>* inject_credits,
                            Pipe<Flit>* eject, Pipe<Credit>* undo_out) {
  inject_ = inject;
  inject_credits_ = inject_credits;
  eject_ = eject;
  undo_out_ = undo_out;
}

void NetworkInterface::send(const MsgPtr& msg, Cycle now) {
  msg->created = now;
  VNet vn = vnet_of(msg->type);
  if (vn == VNet::Request) {
    msg->path_hops = topo_->hops(id_, msg->dest);
    msg->build_circuit = cfg_.circuit.uses_circuits() &&
                         request_builds_circuit(msg->type);
    msg->reply_size_flits = reply_flits_for_request(msg->type, MessageSizes{});
  }
  if (vn == VNet::Reply) rsum_valid_ = false;
  q_[static_cast<int>(vn)].push_back({msg, nullptr, 0, 0, kMemoNone});
  wake(now);  // controllers send before the network phase of this cycle
}

void NetworkInterface::launch_undo(NodeId dest, Addr addr,
                                   std::uint64_t owner, Cycle now) {
  ++origin_undone_;
  if (!undo_out_) return;
  Credit cr;
  cr.vnet = VNet::Reply;
  cr.vc = -1;
  cr.undo = UndoRecord{dest, addr, owner};
  undo_out_->push(cr, now);
  if (obs_) obs_->on_undo_launched(id_, dest, addr, owner, now);
}

bool NetworkInterface::undo_circuit(NodeId dest, Addr addr, Cycle now,
                                    bool expect_reply) {
  auto it = origins_.find({dest, addr});
  if (it == origins_.end() || !it->second.present) return false;
  Origin& o = it->second;
  bool was_built = o.status == OriginStatus::Built && !o.undo_deferred();
  if (!was_built) return false;
  if (o.riders > 0) {
    // A scrounger is still injecting: defer the tear-down until its tail
    // flit is in the network (it then stays ahead of the undo for good).
    o.deferred_undo_owners.push_back(o.req_id);
    o.undo_expect_reply = expect_reply;
    origin_mut(o);
    return true;
  }
  launch_undo(dest, addr, o.req_id, now);
  if (expect_reply) {
    o.status = OriginStatus::Undone;
    origin_mut(o);
  } else {
    origin_tomb(o);
  }
  return true;
}

void NetworkInterface::tick(Cycle now) {
  // 1. Credits from the router's local input buffers.
  if (inject_credits_) {
    while (auto c = inject_credits_->pop_ready(now)) {
      if (c->vc < 0) continue;
      int& out = outstanding_[out_idx(static_cast<int>(c->vnet), c->vc)];
      if (out > 0) --out;
    }
  }
  // 2. Ejection. The tail flit releases the pool pin taken at injection;
  //    the returned owner keeps the message alive through delivery.
  if (eject_) {
    while (auto f = eject_->pop_ready(now)) {
      if (f->is_tail()) finish_delivery(pool_->release(f->msg), now);
    }
  }
  // 3. Injection: refill idle streams, then push at most one flit onto the
  //    local link, alternating between the two VN streams.
  for (int vn = 0; vn < kNumVNets; ++vn)
    if (!stream_[vn].active()) try_start_packet(static_cast<VNet>(vn), now);
  // A circuit reply owns the local link from its head (its departure cycle
  // is what the timed reservation was computed against) until its tail is
  // out (its flits must stream back-to-back or they would overrun the slots
  // reserved downstream, §4.7). Everything else round-robins.
  Stream& rep = stream_[static_cast<int>(VNet::Reply)];
  if (rep.active() && rep.on_circuit) {
    // Complete mode's circuit VC is bufferless and never stalls; Fragmented
    // circuit VCs are buffered and still obey the credit window.
    if (cfg_.circuit.bufferless_circuit_vc()) {
      inject_flit(rep, now);
    } else {
      int& out = outstanding_[out_idx(1, rep.vc)];
      if (out < cfg_.buffer_depth_flits) {
        ++out;
        inject_flit(rep, now);
      }
    }
    return;
  }
  for (int attempt = 0; attempt < kNumVNets; ++attempt) {
    Stream& s = stream_[rr_vn_];
    rr_vn_ = (rr_vn_ + 1) % kNumVNets;
    if (!s.active()) continue;
    // Buffered VCs need a free slot downstream; the bufferless circuit VC
    // of Complete mode never blocks.
    bool buffered = !(s.on_circuit && cfg_.circuit.bufferless_circuit_vc());
    if (buffered) {
      int& out = outstanding_[out_idx(s.msg->is_reply() ? 1 : 0, s.vc)];
      if (out >= cfg_.buffer_depth_flits) continue;
      ++out;
    }
    inject_flit(s, now);
    break;
  }
}

bool NetworkInterface::try_start_packet(VNet vn, Cycle now) {
  auto& q = q_[static_cast<int>(vn)];
  // Requests: prepare_injection is message-independent (a free-VC probe
  // with no side effects), so the whole queue succeeds or fails together —
  // probing the front element is exactly equivalent to the full scan.
  if (vn == VNet::Request) {
    if (q.empty()) return false;
    int vc = 0;
    bool on_circuit = false;
    if (!prepare_injection(q.front(), now, &vc, &on_circuit))
      return false;
    Stream& s = stream_[static_cast<int>(vn)];
    s.msg = q.front().msg;
    s.next_seq = 0;
    s.vc = vc;
    s.on_circuit = on_circuit;
    q.pop_front();
    return true;
  }
  // Replies: per-message state (origin windows) forces a scan, but failed
  // attempts carry memos so a queued reply is re-examined only when the
  // origin key it depends on changed, its departure slot opened, or the
  // resource it blocked on could now be free. The skip conditions reproduce
  // the memoized attempt's outcome exactly, so the injection order — and
  // with it every stat — is unchanged.
  //
  // Memo validity is per-key: each memo pins the consulted origin map node
  // (stable across mutations thanks to tombstoning) and its version, so
  // churn on *other* keys never forces a rescan of the backlog. Scrounging
  // is the one probe step that reads the whole table; its table-wide
  // dependence is covered by the scrounge_maybe snapshot below (when a
  // scrounge could possibly succeed, no VC-blocked reply is skipped).
  //
  const bool scrounge_on = cfg_.circuit.reuse &&
                           cfg_.circuit.mode == CircuitMode::Complete &&
                           !cfg_.circuit.is_timed();
  // Whole-scan fast path: the last scan skipped or failed every entry, no
  // origin of this NI mutated since, no entry needs an unconditional
  // re-probe, no held entry's slot has opened, and (when some entry is
  // VC-blocked) no reply VC it could use has freed. Each conjunct
  // reproduces the corresponding per-entry skip below, so the outcome —
  // nothing injectable — is exact.
  if (rsum_valid_ && origin_ver_ == rsum_ver_ && !rsum_has_none_ &&
      now < rsum_hold_) {
    if (!rsum_has_vcb_) return false;
    int v = 0;
    if (!pick_free_vc(VNet::Reply, false, &v) &&
        !(scrounge_on && live_origins_ != 0 &&
          pick_free_vc(VNet::Reply, true, &v)))
      return false;
  }
  // Purge tombstones once they dominate the table. Queued memos pin map
  // nodes by pointer, so collect the pinned set and erase only unpinned
  // tombstones — every surviving memo stays valid and a purge can never
  // trigger a re-probe storm. The trigger includes the queue length
  // (pinned nodes survive, and the backlog can legitimately pin one node
  // each), so the steady-state population never sits at the threshold.
  if (origins_.size() >
      2 * static_cast<std::size_t>(live_origins_) + q.size() + 64) {
    std::vector<const Origin*> pinned;
    pinned.reserve(q.size());
    for (std::size_t k = 0; k < q.size(); ++k)
      if (q[k].kind != kMemoNone && q[k].okey != nullptr)
        pinned.push_back(q[k].okey);
    std::sort(pinned.begin(), pinned.end());
    for (auto pit = origins_.begin(); pit != origins_.end();) {
      if (!pit->second.present &&
          !std::binary_search(pinned.begin(), pinned.end(), &pit->second))
        pit = origins_.erase(pit);
      else
        ++pit;
    }
  }
  // Per-scan constants: nothing a failing prepare_injection touches can
  // change outstanding_ (credits drain earlier in the tick) and live
  // origins only disappear mid-scan, so these snapshots stay conservative.
  int plain_vc = 0;
  const bool plain_free = pick_free_vc(VNet::Reply, false, &plain_vc);
  int circ_vc = 0;
  const bool scrounge_maybe = scrounge_on && live_origins_ != 0 &&
                              pick_free_vc(VNet::Reply, true, &circ_vc);
  Cycle sum_hold = kNeverCycle;
  bool sum_none = false;
  bool sum_vcb = false;
  for (std::size_t k = 0; k < q.size(); ++k) {
    QEntry& e = q[k];
    if (e.kind != kMemoNone &&
        (e.okey == nullptr || e.okey->ver == e.over)) {
      if (e.kind == kMemoHeld) {
        if (now < e.hold) {  // still held for its slot
          sum_hold = std::min(sum_hold, e.hold);
          continue;
        }
      } else if (!plain_free && !scrounge_maybe) {
        sum_vcb = true;
        continue;  // still blocked on a free non-circuit reply VC
      }
    }
    int vc = 0;
    bool on_circuit = false;
    if (!prepare_injection(e, now, &vc, &on_circuit)) {
      if (e.kind == kMemoHeld)
        sum_hold = std::min(sum_hold, e.hold);
      else if (e.kind == kMemoVcBlocked)
        sum_vcb = true;
      else
        sum_none = true;
      continue;
    }
    Stream& s = stream_[static_cast<int>(vn)];
    s.msg = e.msg;
    s.next_seq = 0;
    s.vc = vc;
    s.on_circuit = on_circuit;
    q.erase_at(k);
    rsum_valid_ = false;  // queue composition changed
    return true;
  }
  rsum_valid_ = true;
  rsum_ver_ = origin_ver_;
  rsum_hold_ = sum_hold;
  rsum_has_none_ = sum_none;
  rsum_has_vcb_ = sum_vcb;
  return false;
}

bool NetworkInterface::prepare_injection(QEntry& e, Cycle now, int* vc,
                                         bool* on_circuit) {
  const MsgPtr& msg = e.msg;
  *on_circuit = false;
  if (!msg->is_reply()) return pick_free_vc(VNet::Request, false, vc);

  // Reply path: consult the circuit origin table.
  bool wants_circuit = false;
  e.kind = kMemoNone;
  e.okey = nullptr;
  if (cfg_.circuit.uses_circuits() && reply_circuit_eligible(msg->type)) {
    auto it = origins_.find({msg->dest, msg->addr});
    if (it == origins_.end()) {
      // Versioned absence: record a tombstone so a failure memo can depend
      // on "no origin for this key" and stay valid until the key changes.
      it = origins_.try_emplace(std::make_pair(msg->dest, msg->addr)).first;
      it->second.present = false;
      origin_mut(it->second);
    }
    e.okey = &it->second;
    if (it->second.present) {
      Origin& o = it->second;
      switch (o.status) {
        case OriginStatus::Built:
          if (o.undo_deferred()) {
            // Tear-down pending behind a rider: do not use the circuit.
            msg->outcome = CircuitOutcome::Undone;
            break;
          }
          if (now < o.depart_min) {
            // Hold for the slot (§4.7). Until this key changes, retrying
            // before depart_min reproduces this exact outcome — memoize so
            // the queue scan can skip the held reply.
            e.kind = kMemoHeld;
            e.hold = o.depart_min;
            e.over = o.ver;
            return false;
          }
          if (now > o.depart_max) {
            // Missed the reserved window: tear the circuit down and fall
            // back to the packet-switched pipeline.
            msg->outcome = CircuitOutcome::Undone;
            undo_circuit(msg->dest, msg->addr, now, /*expect_reply=*/false);
            break;
          }
          wants_circuit = true;
          msg->circuit_partial = o.partial;
          break;
        case OriginStatus::Failed:
          msg->outcome = CircuitOutcome::Failed;
          origin_tomb(o);
          break;
        case OriginStatus::Undone:
          msg->outcome = CircuitOutcome::Undone;
          origin_tomb(o);
          break;
      }
    }
  }

  if (wants_circuit) {
    if (!pick_free_vc(VNet::Reply, /*circuit_class=*/true, vc)) return false;
    *on_circuit = true;
    msg->on_circuit = true;
    msg->circuit_dest = msg->dest;
    msg->circuit_addr = msg->addr;
    return true;
  }

  // §4.5: a circuit-less reply may scrounge a complete, untimed circuit
  // that gets it strictly closer to its destination.
  if (cfg_.circuit.reuse && cfg_.circuit.mode == CircuitMode::Complete &&
      !cfg_.circuit.is_timed() && msg->dest != id_) {
    int best = topo_->hops(id_, msg->dest);
    const std::pair<NodeId, Addr>* best_key = nullptr;
    for (const auto& [key, o] : origins_) {
      if (!o.present) continue;
      if (o.status != OriginStatus::Built || o.partial || o.undo_deferred())
        continue;
      int h = topo_->hops(key.first, msg->dest);
      if (h < best) {
        best = h;
        best_key = &key;
      }
    }
    if (best_key && pick_free_vc(VNet::Reply, true, vc)) {
      Origin& ride = origins_.find(*best_key)->second;
      ++ride.riders;
      origin_mut(ride);
      msg->scrounging = true;
      msg->final_dest = msg->dest;
      msg->dest = best_key->first;
      msg->on_circuit = true;
      msg->circuit_dest = best_key->first;
      msg->circuit_addr = best_key->second;
      msg->outcome = CircuitOutcome::Scrounged;
      *on_circuit = true;
      ++scrounge_rides_;
      return true;
    }
  }

  if (!pick_free_vc(VNet::Reply, false, vc)) {
    // Blocked on a free non-circuit reply VC. The path to this point is
    // free of (non-idempotent) side effects, so while the probed key is
    // unchanged and no such VC frees up (and no scrounge could succeed),
    // retrying reproduces this failure — memoize.
    e.kind = kMemoVcBlocked;
    e.over = e.okey != nullptr ? e.okey->ver : 0;
    return false;
  }
  return true;
}

bool NetworkInterface::pick_free_vc(VNet vn, bool circuit_class,
                                    int* vc) const {
  const int n = cfg_.vcs_in_vn(vn);
  const int ncirc = vn == VNet::Reply ? cfg_.circuit.num_circuit_vcs() : 0;
  for (int v = 0; v < n; ++v) {
    bool is_circ = v < ncirc;
    if (is_circ != circuit_class) continue;
    if (circuit_class && cfg_.circuit.bufferless_circuit_vc()) {
      *vc = v;
      return true;  // bufferless: always available
    }
    if (outstanding_[out_idx(static_cast<int>(vn), v)] == 0) {
      *vc = v;
      return true;
    }
  }
  return false;
}

void NetworkInterface::inject_flit(Stream& s, Cycle now) {
  const MsgPtr& msg = s.msg;
  Flit f;
  f.msg = msg.get();
  f.seq = s.next_seq++;
  f.vnet = msg->is_reply() ? VNet::Reply : VNet::Request;
  f.vc = s.vc;
  f.on_circuit = s.on_circuit;
  if (f.is_head()) {
    pool_->pin(msg);  // flits carry raw pointers; the pool owns until tail eject
    msg->injected = now;
    if (obs_) obs_->on_message_injected(id_, *msg, now);
    const int rep = msg->is_reply() ? 1 : 0;
    if (!q_lat_[rep])
      q_lat_[rep] = &stats_->acc(rep ? "q_lat_reply" : "q_lat_req");
    q_lat_[rep]->add(static_cast<double>(now - msg->created));
    if (msg->is_reply()) {
      if (s.on_circuit && !msg->scrounging) {
        auto uit = origins_.find({msg->dest, msg->addr});
        if (uit != origins_.end() && uit->second.present)
          origin_tomb(uit->second);
        ++origin_used_;
      }
      if (reply_injected_) reply_injected_(msg, s.on_circuit);
    }
  }
  RC_ASSERT(inject_ != nullptr, "NI not wired");
  inject_->push(f, now);
  ++*inject_flits_;
  if (f.is_tail()) {
    if (msg->scrounging) {
      auto it = origins_.find({msg->circuit_dest, msg->circuit_addr});
      if (it != origins_.end() && it->second.present &&
          it->second.riders > 0) {
        Origin& o = it->second;
        origin_mut(o);
        if (--o.riders == 0 && o.undo_deferred()) {
          for (std::uint64_t owner : o.deferred_undo_owners)
            launch_undo(msg->circuit_dest, msg->circuit_addr, owner, now);
          o.deferred_undo_owners.clear();
          if (o.undo_expect_reply) {
            o.status = OriginStatus::Undone;
          } else {
            origin_tomb(o);
          }
        }
      }
    }
    s.msg.reset();
  }
}

void NetworkInterface::handle_request_delivered(const MsgPtr& msg, Cycle now) {
  Origin o;
  o.status = msg->circuit_ok ? OriginStatus::Built : OriginStatus::Failed;
  o.partial = msg->circuit_partial;
  if (msg->circuit_ok && cfg_.circuit.is_timed()) {
    const Cycle tau = msg->injected + lat_.request_total(msg->path_hops) +
                      estimated_service_cycles(msg->type, cfg_) +
                      lat_.ni_turnaround();
    const int B = cfg_.circuit.slack_per_hop * msg->path_hops;
    switch (cfg_.circuit.timed) {
      case TimedMode::Exact:
        o.depart_min = o.depart_max = tau;
        break;
      case TimedMode::Slack:
      case TimedMode::SlackDelay:
        o.depart_min = tau + msg->used_delay;
        o.depart_max = tau + B;
        break;
      case TimedMode::Postponed:
        o.depart_min = o.depart_max = tau + B;
        break;
      case TimedMode::None:
        break;
    }
  }
  auto key = std::make_pair(msg->src, msg->addr);
  auto it = origins_.find(key);
  if (it != origins_.end() && it->second.present &&
      it->second.status == OriginStatus::Built) {
    // A circuit for this (requestor, line) identity already exists (e.g. a
    // write-back and a re-fetch in flight together). The first reply will
    // consume the existing circuit; tear the duplicate instance down.
    if (!msg->circuit_ok) return;  // nothing was built for the new request
    if (it->second.riders > 0) {
      it->second.deferred_undo_owners.push_back(msg->id);
      origin_mut(it->second);
    } else {
      launch_undo(msg->src, msg->addr, msg->id, now);
    }
    ++origin_duplicate_;
    return;
  }
  o.req_id = msg->id;
  // Insert in place, preserving the node's version chain (the slot may be
  // a tombstone some queued memo still pins).
  auto ins = origins_.try_emplace(key);
  Origin& slot = ins.first->second;
  const bool was_live = !ins.second && slot.present;
  const std::uint64_t v = slot.ver;
  slot = o;
  slot.ver = v;
  origin_mut(slot);
  if (!was_live) ++live_origins_;
  if (msg->circuit_ok) {
    stats_->acc("lat_circuit_setup")
        .add(static_cast<double>(now - msg->injected));
  }
}

void NetworkInterface::finish_delivery(const MsgPtr& msg, Cycle now) {
  msg->delivered = now;
  if (obs_) obs_->on_message_delivered(id_, *msg, now);
  if (msg->scrounging) {
    // Intermediate hop of a scrounger: re-inject toward the real target.
    msg->dest = msg->final_dest;
    msg->final_dest = kInvalidNode;
    msg->scrounging = false;
    msg->on_circuit = false;
    msg->circuit_dest = kInvalidNode;
    rsum_valid_ = false;
    q_[static_cast<int>(VNet::Reply)].push_back({msg, nullptr, 0, 0, kMemoNone});
    return;
  }
  classify_delivered(msg);
  if (msg->build_circuit && cfg_.circuit.uses_circuits())
    handle_request_delivered(msg, now);
  if (deliver_) deliver_(msg);
}

void NetworkInterface::classify_delivered(const MsgPtr& msg) {
  // Per-delivery stat lookups go through lazily filled pointer caches: a
  // key is still created in the StatSet on its first occurrence (so the
  // reported key set is unchanged), but the steady-state path is a pointer
  // chase instead of a string-keyed map walk per message.
  const int ti = static_cast<int>(msg->type);
  if (!msg_counter_[ti])
    msg_counter_[ti] =
        &stats_->counter(std::string("msg_") + to_string(msg->type));
  ++*msg_counter_[ti];
  const double net_lat = static_cast<double>(msg->delivered - msg->injected);
  const double q_lat = static_cast<double>(msg->injected - msg->created);
  if (!msg->is_reply()) {
    if (!del_req_.lat_net) {
      del_req_.lat_net = &stats_->acc("lat_net_req");
      del_req_.lat_q = &stats_->acc("lat_q_req");
      del_req_.hist = &stats_->hist("hist_req");
    }
    del_req_.lat_net->add(net_lat);
    del_req_.lat_q->add(q_lat);
    del_req_.hist->add(net_lat);
    return;
  }
  const bool eligible = reply_circuit_eligible(msg->type);
  DeliveredStats& d = del_rep_[eligible ? 1 : 0];
  if (!d.lat_net) {
    d.lat_net = &stats_->acc(eligible ? "lat_net_rep_circ" : "lat_net_rep_nocirc");
    d.lat_q = &stats_->acc(eligible ? "lat_q_rep_circ" : "lat_q_rep_nocirc");
    d.hist = &stats_->hist(eligible ? "hist_rep_circ" : "hist_rep_nocirc");
  }
  d.lat_net->add(net_lat);
  d.lat_q->add(q_lat);
  d.hist->add(net_lat);

  // Fig. 6 categories (classifier shared with the telemetry trace).
  const ReplyCategory cat = classify_reply_category(*msg, cfg_.circuit);
  if (const char* c = reply_counter_name(cat)) {
    const int ci = static_cast<int>(cat);
    if (!reply_counter_[ci]) reply_counter_[ci] = &stats_->counter(c);
    ++*reply_counter_[ci];
  }
}

void NetworkInterface::save(StateWriter& w) const {
  for (int vn = 0; vn < kNumVNets; ++vn) {
    w.u64(q_[vn].size());
    for (const QEntry& e : q_[vn]) save_msg_ref(w, e.msg);
    const Stream& s = stream_[vn];
    save_msg_ref(w, s.msg);
    w.i64(s.next_seq);
    w.i64(s.vc);
    w.b(s.on_circuit);
  }
  w.i64(rr_vn_);
  for (int c : outstanding_) w.i64(c);
  w.u64(origins_.size());
  for (const auto& [key, o] : origins_) {
    w.i64(key.first);
    w.u64(key.second);
    w.b(o.present);
    w.u64(o.ver);
    w.u8(static_cast<std::uint8_t>(o.status));
    w.b(o.partial);
    w.u64(o.depart_min);
    w.u64(o.depart_max);
    w.i64(o.riders);
    w.u64(o.req_id);
    w.u64(o.deferred_undo_owners.size());
    for (std::uint64_t id : o.deferred_undo_owners) w.u64(id);
    w.b(o.undo_expect_reply);
  }
  w.u64(origin_ver_);
  w.i64(live_origins_);
}

bool NetworkInterface::load(StateReader& r) {
  for (int vn = 0; vn < kNumVNets; ++vn) {
    std::uint64_t n;
    if (!r.u64(&n)) return false;
    q_[vn].clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      QEntry e{nullptr, nullptr, 0, 0, kMemoNone};
      if (!load_msg_ref(r, &e.msg)) return false;
      if (!e.msg) return r.fail("null message in NI injection queue");
      q_[vn].push_back(std::move(e));
    }
    Stream& s = stream_[vn];
    std::int64_t seq, vc;
    if (!(load_msg_ref(r, &s.msg) && r.i64(&seq) && r.i64(&vc) &&
          r.b(&s.on_circuit)))
      return false;
    s.next_seq = static_cast<int>(seq);
    s.vc = static_cast<int>(vc);
  }
  std::int64_t rr;
  if (!r.i64(&rr)) return false;
  rr_vn_ = static_cast<int>(rr);
  for (int& c : outstanding_) {
    std::int64_t v;
    if (!r.i64(&v)) return false;
    c = static_cast<int>(v);
  }
  std::uint64_t n;
  if (!r.u64(&n)) return false;
  origins_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::int64_t node, riders;
    Addr addr;
    std::uint8_t status;
    if (!(r.i64(&node) && r.u64(&addr))) return false;
    Origin& o = origins_[{static_cast<NodeId>(node), addr}];
    std::uint64_t nd;
    if (!(r.b(&o.present) && r.u64(&o.ver) && r.u8(&status) &&
          r.b(&o.partial) && r.u64(&o.depart_min) && r.u64(&o.depart_max) &&
          r.i64(&riders) && r.u64(&o.req_id) && r.u64(&nd)))
      return false;
    if (status > static_cast<std::uint8_t>(OriginStatus::Undone))
      return r.fail("origin status out of range");
    o.status = static_cast<OriginStatus>(status);
    o.riders = static_cast<int>(riders);
    o.deferred_undo_owners.resize(nd);
    for (std::uint64_t& id : o.deferred_undo_owners)
      if (!r.u64(&id)) return false;
    if (!r.b(&o.undo_expect_reply)) return false;
  }
  std::int64_t live;
  if (!(r.u64(&origin_ver_) && r.i64(&live))) return false;
  live_origins_ = static_cast<int>(live);
  // Memos and the scan summary are skip hints only: drop them.
  rsum_valid_ = false;
  return true;
}

}  // namespace rc
