#include "sim/validator.hpp"

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "common/state.hpp"
#include "noc/network.hpp"

namespace rc {

namespace {
constexpr Cycle kDefaultHangCycles = 20'000;
/// Progress-free block cycles tolerated on a bufferless circuit. Untimed
/// complete circuits get the paper's bound: crossbar priority plus the §4.2
/// exclusivity rules mean at most one skid cycle between forwards. Timed
/// circuits admit overlapping traffic from different sources when service
/// estimates drift, so late replies can legitimately queue behind whole
/// streams; the generous bound still catches real livelock (the watchdog
/// backs it up either way).
constexpr int kUntimedStallLimit = 1;
constexpr int kTimedStallLimit = 1024;
}  // namespace

bool Validator::enabled_by_env() {
  const char* v = std::getenv("RC_CHECK");
  return v != nullptr && v[0] != '\0' && std::string(v) != "0";
}

std::unique_ptr<Validator> Validator::maybe_attach(Network* net) {
  if (!enabled_by_env()) return nullptr;
  return std::make_unique<Validator>(net);
}

Validator::Validator(Network* net)
    : net_(net),
      hang_cycles_(static_cast<Cycle>(
          env_positive_ll("RC_HANG_CYCLES",
                          static_cast<long long>(kDefaultHangCycles)))) {
  RC_ASSERT(net_ != nullptr, "validator needs a network");
  net_->set_observer(this);
}

Validator::~Validator() {
  if (net_ && net_->observer() == this) net_->set_observer(nullptr);
}

// ---------------------------------------------------------------------------
// Flight tracking (flit conservation end-to-end).

void Validator::record(std::uint64_t msg_id, const char* what, NodeId node,
                       int port, Cycle now) {
  auto it = flights_.find(msg_id);
  if (it == flights_.end()) return;
  auto& log = it->second.log;
  if (log.size() >= kFlightLogCap) log.pop_front();
  log.push_back(FlightEvent{now, what, node, port});
}

void Validator::on_message_injected(NodeId node, const Message& m, Cycle now) {
  std::lock_guard<std::mutex> lock(mu_);
  Flight f;
  f.type = m.type;
  f.src = node;
  f.dest = m.dest;
  f.on_circuit = m.on_circuit;
  f.scrounging = m.scrounging;
  f.injected = now;
  f.log.push_back(FlightEvent{now, "injected", node, -1});
  // A scrounger's onward leg re-injects the same message id; the previous
  // flight ended at the intermediate delivery, so overwriting is correct.
  flights_[m.id] = std::move(f);
}

void Validator::on_message_delivered(NodeId node, const Message& m,
                                     Cycle now) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = flights_.find(m.id);
  if (it == flights_.end())
    fail("message " + std::to_string(m.id) +
             " delivered without a recorded injection",
         now);
  flights_.erase(it);
  (void)node;
}

void Validator::on_flit_buffered(NodeId node, Port in_port, const Flit& f,
                                 Cycle now) {
  std::lock_guard<std::mutex> lock(mu_);
  record(f.msg->id, "buffered", node, in_port, now);
}

void Validator::on_circuit_forwarded(NodeId node, Port in_port, const Flit& f,
                                     Cycle now) {
  std::lock_guard<std::mutex> lock(mu_);
  record(f.msg->id, "circuit-forwarded", node, in_port, now);
  stalls_[static_cast<std::uint32_t>(node) * kNumDirs + in_port] =
      StallState{now, kNeverCycle, 0};
}

void Validator::on_circuit_blocked(NodeId node, Port in_port, const Flit& f,
                                   Cycle now) {
  std::lock_guard<std::mutex> lock(mu_);
  record(f.msg->id, "circuit-blocked", node, in_port, now);
  StallState& s =
      stalls_[static_cast<std::uint32_t>(node) * kNumDirs + in_port];
  // A forward through this port earlier in the same tick means the port is
  // making progress (the retry head goes first; a new arrival queueing
  // behind it the same cycle is the normal skid, not a stall).
  if (s.last_fwd == now) return;
  s.run = s.last_block == now - 1 ? s.run + 1 : 1;
  s.last_block = now;
  const CircuitConfig& cc = net_->config().circuit;
  if (!cc.bufferless_circuit_vc()) return;  // buffered: watchdog covers it
  const int limit = cc.is_timed() ? kTimedStallLimit : kUntimedStallLimit;
  if (s.run > limit) {
    auto it = flights_.find(f.msg->id);
    fail("complete-circuit flit of msg " + std::to_string(f.msg->id) +
             " stalled " + std::to_string(s.run) +
             " consecutive cycles at router " + std::to_string(node) +
             " port " + to_string(dir_of(in_port)) +
             " (complete circuits must advance every other cycle)",
         now, it != flights_.end() ? &it->second : nullptr);
  }
}

void Validator::on_undo_launched(NodeId node, NodeId circuit_dest, Addr addr,
                                 std::uint64_t owner_req, Cycle now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (recent_undos_.size() >= kUndoLogCap) recent_undos_.pop_front();
  recent_undos_.push_back(UndoEvent{now, node, circuit_dest, addr, owner_req});
}

// ---------------------------------------------------------------------------
// Table lifecycle hooks.

void Validator::on_circuit_reclaimed(NodeId node, Port port,
                                     const CircuitEntry& e, Cycle now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!e.expired(now))
    fail("router " + std::to_string(node) + " port " +
             to_string(dir_of(port)) + ": reclaimed a non-expired entry " +
             "(owner_req " + std::to_string(e.owner_req) + ", bound_msg " +
             std::to_string(e.bound_msg) + ") — bound entries never expire",
         now);
}

void Validator::on_circuit_released(NodeId node, Port port,
                                    const CircuitEntry& e,
                                    std::uint64_t msg_id, Cycle now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (msg_id == 0 && e.bound_msg != 0)
    fail("router " + std::to_string(node) + " port " +
             to_string(dir_of(port)) +
             ": identity tear-down stole the entry bound to msg " +
             std::to_string(e.bound_msg),
         now);
}

void Validator::on_circuit_undone(NodeId node, Port port,
                                  const CircuitEntry& e,
                                  std::uint64_t owner_req, Cycle now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (e.bound_msg != 0)
    fail("router " + std::to_string(node) + " port " +
             to_string(dir_of(port)) + ": undo of owner_req " +
             std::to_string(owner_req) + " removed the entry bound to msg " +
             std::to_string(e.bound_msg),
         now);
}

// ---------------------------------------------------------------------------
// End-of-cycle scans.

void Validator::on_network_cycle(Cycle now) {
  // Runs single-threaded (serial tick, or the sharded barrier completion
  // with all workers parked); the lock only orders it against stragglers.
  std::lock_guard<std::mutex> lock(mu_);
  ++cycles_checked_;
  scan_tables(now);
  scan_credits(now);
  scan_watchdog(now);
}

void Validator::scan_tables(Cycle now) {
  const CircuitConfig& cc = net_->config().circuit;
  if (!cc.uses_circuits()) return;
  const Topology& topo = net_->topo();
  const bool fragmented = cc.mode == CircuitMode::Fragmented;
  const bool complete = cc.mode == CircuitMode::Complete;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    Router& r = net_->router(n);
    // out_port -> (in_port, entry) of one live circuit, for the cross-port
    // exclusivity / slot-overlap rules.
    struct Claim {
      int in_port;
      const CircuitEntry* e;
    };
    std::vector<Claim> by_out[kNumDirs];
    for (int p = 0; p < kNumDirs; ++p) {
      const CircuitTable& t = r.circuits().table(static_cast<Port>(p));
      if (!t.unbounded()) {
        if (static_cast<int>(t.entries().size()) > t.capacity())
          fail("router " + std::to_string(n) + " port " +
                   to_string(dir_of(static_cast<Port>(p))) + ": table holds " +
                   std::to_string(t.entries().size()) + " slots, capacity " +
                   std::to_string(t.capacity()),
               now);
        if (t.live_count(now) > t.capacity())
          fail("router " + std::to_string(n) + " port " +
                   to_string(dir_of(static_cast<Port>(p))) + ": " +
                   std::to_string(t.live_count(now)) +
                   " live circuits exceed capacity " +
                   std::to_string(t.capacity()),
               now);
      }
      NodeId port_src = kInvalidNode;
      std::vector<const CircuitEntry*> port_live;
      for (const CircuitEntry& e : t.entries()) {
        if (!e.live(now)) continue;
        by_out[e.out_port].push_back(Claim{p, &e});
        if (complete && !cc.is_timed()) {
          // §4.2: every live circuit at one input port shares a source.
          if (port_src == kInvalidNode) port_src = e.src;
          if (e.src != port_src)
            fail("router " + std::to_string(n) + " port " +
                     to_string(dir_of(static_cast<Port>(p))) +
                     ": live circuits from two sources (" +
                     std::to_string(port_src) + " and " +
                     std::to_string(e.src) + ") — same-source rule (§4.2)",
                 now);
        }
        if (complete && cc.is_timed()) port_live.push_back(&e);
      }
      // §4.7: the reserved slots of one input link never overlap.
      for (std::size_t i = 0; i < port_live.size(); ++i)
        for (std::size_t j = i + 1; j < port_live.size(); ++j)
          if (port_live[i]->overlaps(port_live[j]->slot_start,
                                     port_live[j]->slot_end))
            fail("router " + std::to_string(n) + " port " +
                     to_string(dir_of(static_cast<Port>(p))) +
                     ": overlapping reserved slots on one input link "
                     "(owners " +
                     std::to_string(port_live[i]->owner_req) + ", " +
                     std::to_string(port_live[j]->owner_req) + ") — §4.7",
                 now);
    }
    for (int o = 0; o < kNumDirs; ++o) {
      const auto& claims = by_out[o];
      if (complete) {
        for (std::size_t i = 0; i < claims.size(); ++i) {
          for (std::size_t j = i + 1; j < claims.size(); ++j) {
            if (claims[i].in_port == claims[j].in_port) continue;
            if (!cc.is_timed())
              fail("router " + std::to_string(n) + ": circuits from input "
                       "ports " +
                       to_string(dir_of(static_cast<Port>(claims[i].in_port))) +
                       " and " +
                       to_string(dir_of(static_cast<Port>(claims[j].in_port))) +
                       " both claim output " +
                       to_string(dir_of(static_cast<Port>(o))) +
                       " — exclusive-output rule (§4.2)",
                   now);
            if (claims[i].e->overlaps(claims[j].e->slot_start,
                                      claims[j].e->slot_end))
              fail("router " + std::to_string(n) + ": overlapping slots on "
                       "output " +
                       to_string(dir_of(static_cast<Port>(o))) + " (owners " +
                       std::to_string(claims[i].e->owner_req) + ", " +
                       std::to_string(claims[j].e->owner_req) + ") — §4.7",
                   now);
          }
        }
      }
      if (fragmented) {
        // A fragmented reservation claims an output circuit VC; the busy
        // flag and the claiming entry must stay in lockstep.
        for (int k = 0; k < cc.num_circuit_vcs(); ++k) {
          int claimed = 0;
          for (const Claim& c : claims)
            if (c.e->vc == k) ++claimed;
          const bool busy =
              r.output_vc(dir_of(static_cast<Port>(o)), VNet::Reply, k).busy;
          if (claimed > 1)
            fail("router " + std::to_string(n) + ": " +
                     std::to_string(claimed) +
                     " fragmented circuits claim output " +
                     to_string(dir_of(static_cast<Port>(o))) +
                     " circuit VC " + std::to_string(k),
                 now);
          if (busy != (claimed == 1))
            fail("router " + std::to_string(n) + " output " +
                     to_string(dir_of(static_cast<Port>(o))) +
                     " circuit VC " + std::to_string(k) + ": busy flag " +
                     (busy ? "set" : "clear") + " but " +
                     std::to_string(claimed) + " live claim(s)",
                 now);
        }
      }
    }
  }
}

void Validator::scan_credits(Cycle now) {
  const NocConfig& cfg = net_->config();
  const Topology& topo = net_->topo();
  for (NodeId a = 0; a < topo.num_nodes(); ++a) {
    Router& up = net_->router(a);
    for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West}) {
      NodeId bn = topo.neighbour(a, d);
      if (bn == kInvalidNode) continue;
      const Router::PortWiring& w = up.wiring(d);
      if (!w.connected || !w.out_data || !w.out_credits) continue;
      Router& down = net_->router(bn);
      // The downstream input port is the topology's reverse port (equal to
      // opposite(d) on all current fabrics, but the table is authoritative).
      const Dir rd = topo.reverse_dir(a, d);
      for (int vn = 0; vn < kNumVNets; ++vn) {
        const VNet v = static_cast<VNet>(vn);
        for (int vc = 0; vc < cfg.vcs_in_vn(v); ++vc) {
          const int vci = up.vc_index(v, vc);
          const int held = up.output_credits(d, v, vc);
          if (!up.vc_has_buffer(v, vc)) {
            // Bufferless circuit VC: no credits exist on this class.
            if (held != 0)
              fail("router " + std::to_string(a) + " output " +
                       to_string(d) + ": bufferless circuit VC holds " +
                       std::to_string(held) + " credits",
                   now);
            continue;
          }
          int in_flight = held;
          w.out_data->for_each([&](const Flit& f, Cycle) {
            if (up.vc_index(f.vnet, f.vc) == vci) ++in_flight;
          });
          const Flit* latched = up.st_latch_flit(d);
          if (latched && up.vc_index(latched->vnet, latched->vc) == vci)
            ++in_flight;
          in_flight +=
              static_cast<int>(down.input_vc(rd, v, vc).buf.size());
          for (const Flit& f : down.circuit_retry(rd))
            if (up.vc_index(f.vnet, f.vc) == vci) ++in_flight;
          w.out_credits->for_each([&](const Credit& c, Cycle) {
            if (c.vc >= 0 && up.vc_index(c.vnet, c.vc) == vci) ++in_flight;
          });
          if (in_flight != cfg.buffer_depth_flits)
            fail("credit conservation broken on link " + std::to_string(a) +
                     "->" + std::to_string(bn) + " (" + to_string(d) +
                     ") " + to_string(v) + " vc " + std::to_string(vc) +
                     ": credits " + std::to_string(held) +
                     " + in-flight accounts for " +
                     std::to_string(in_flight) + " of depth " +
                     std::to_string(cfg.buffer_depth_flits),
                 now);
        }
      }
    }
  }
}

void Validator::scan_watchdog(Cycle now) {
  for (const auto& [id, f] : flights_) {
    if (now - f.injected <= hang_cycles_) continue;
    fail("message " + std::to_string(id) + " (" + to_string(f.type) +
             " " + std::to_string(f.src) + "->" + std::to_string(f.dest) +
             (f.on_circuit ? ", on circuit" : "") +
             (f.scrounging ? ", scrounging" : "") + ") in flight for " +
             std::to_string(now - f.injected) + " cycles (> RC_HANG_CYCLES=" +
             std::to_string(hang_cycles_) + ")",
         now, &f);
  }
}

void Validator::check_idle(Cycle now) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!flights_.empty()) {
    const auto& [id, f] = *flights_.begin();
    fail(std::to_string(flights_.size()) +
             " message(s) still in flight on an idle fabric (first: msg " +
             std::to_string(id) + ")",
         now, &f);
  }
  // Every circuit ends with its reply (use) or its undo, so a drained
  // fabric holds no live entry and, in Fragmented mode, no claimed circuit
  // VC: anything left is a leaked reservation.
  const NocConfig& cfg = net_->config();
  const int circuit_vcs = cfg.circuit.mode == CircuitMode::Fragmented
                              ? cfg.circuit.num_circuit_vcs()
                              : 0;
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    Router& r = net_->router(n);
    for (int p = 0; p < kNumDirs; ++p) {
      const Dir d = dir_of(static_cast<Port>(p));
      const std::string where = "idle fabric but router " + std::to_string(n) +
                                " port " + to_string(d);
      for (const CircuitEntry& e : r.circuits().table(port_of(d)).entries())
        if (e.live(now))
          fail(where + " holds a live circuit entry (dest " +
                   std::to_string(e.dest) + ", owner req " +
                   std::to_string(e.owner_req) + ", bound msg " +
                   std::to_string(e.bound_msg) + ")",
               now);
      for (int vc = 0; vc < circuit_vcs; ++vc)
        if (r.output_vc(d, VNet::Reply, vc).busy)
          fail(where + " still claims output circuit VC " +
                   std::to_string(vc),
               now);
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot save/load.

namespace {
/// FlightEvent::what normally points at a string literal; loaded traces
/// intern their strings here so the borrowed pointers stay valid for the
/// validator's lifetime. The pool only ever sees the dozen-odd distinct
/// event labels, so it stays tiny.
const char* intern_what(const std::string& s) {
  static std::set<std::string> pool;
  return pool.insert(s).first->c_str();
}
}  // namespace

void Validator::save(StateWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.u64(cycles_checked_);
  w.u64(flights_.size());
  for (const auto& [id, f] : flights_) {
    w.u64(id);
    w.u8(static_cast<std::uint8_t>(f.type));
    w.i64(f.src);
    w.i64(f.dest);
    w.b(f.on_circuit);
    w.b(f.scrounging);
    w.u64(f.injected);
    w.u64(f.log.size());
    for (const FlightEvent& ev : f.log) {
      w.u64(ev.cycle);
      w.str(ev.what);
      w.i64(ev.node);
      w.i64(ev.port);
    }
  }
  w.u64(stalls_.size());
  for (const auto& [key, s] : stalls_) {
    w.u32(key);
    w.u64(s.last_fwd);
    w.u64(s.last_block);
    w.i64(s.run);
  }
  w.u64(recent_undos_.size());
  for (const UndoEvent& u : recent_undos_) {
    w.u64(u.cycle);
    w.i64(u.node);
    w.i64(u.circuit_dest);
    w.u64(u.addr);
    w.u64(u.owner_req);
  }
}

bool Validator::load(StateReader& r) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n;
  if (!(r.u64(&cycles_checked_) && r.u64(&n))) return false;
  flights_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t id, nlog;
    std::uint8_t type;
    std::int64_t src, dest;
    Flight f;
    if (!(r.u64(&id) && r.u8(&type) && r.i64(&src) && r.i64(&dest) &&
          r.b(&f.on_circuit) && r.b(&f.scrounging) && r.u64(&f.injected) &&
          r.u64(&nlog)))
      return false;
    if (type >= kNumMsgTypes) return r.fail("flight message type out of range");
    f.type = static_cast<MsgType>(type);
    f.src = static_cast<NodeId>(src);
    f.dest = static_cast<NodeId>(dest);
    for (std::uint64_t j = 0; j < nlog; ++j) {
      FlightEvent ev;
      std::string what;
      std::int64_t node, port;
      if (!(r.u64(&ev.cycle) && r.str(&what) && r.i64(&node) && r.i64(&port)))
        return false;
      ev.what = intern_what(what);
      ev.node = static_cast<NodeId>(node);
      ev.port = static_cast<int>(port);
      f.log.push_back(ev);
    }
    flights_.emplace(id, std::move(f));
  }
  if (!r.u64(&n)) return false;
  stalls_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint32_t key;
    StallState s;
    std::int64_t run;
    if (!(r.u32(&key) && r.u64(&s.last_fwd) && r.u64(&s.last_block) &&
          r.i64(&run)))
      return false;
    s.run = static_cast<int>(run);
    stalls_.emplace(key, s);
  }
  if (!r.u64(&n)) return false;
  recent_undos_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    UndoEvent u;
    std::int64_t node, cdest;
    if (!(r.u64(&u.cycle) && r.i64(&node) && r.i64(&cdest) && r.u64(&u.addr) &&
          r.u64(&u.owner_req)))
      return false;
    u.node = static_cast<NodeId>(node);
    u.circuit_dest = static_cast<NodeId>(cdest);
    recent_undos_.push_back(u);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Violation reporting.

void Validator::dump_flight(const Flight& f) const {
  std::fprintf(stderr,
               "  flight: %s %d->%d injected @%llu%s%s\n",
               to_string(f.type), f.src, f.dest,
               static_cast<unsigned long long>(f.injected),
               f.on_circuit ? " [circuit]" : "",
               f.scrounging ? " [scrounging]" : "");
  for (const FlightEvent& ev : f.log)
    std::fprintf(stderr, "    @%llu %s r=%d port=%s\n",
                 static_cast<unsigned long long>(ev.cycle), ev.what, ev.node,
                 ev.port >= 0 ? to_string(dir_of(static_cast<Port>(ev.port)))
                              : "-");
}

void Validator::dump_circuits(Cycle now) const {
  const Topology& topo = net_->topo();
  int shown = 0;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (int p = 0; p < kNumDirs; ++p) {
      const CircuitTable& t =
          net_->router(n).circuits().table(static_cast<Port>(p));
      for (const CircuitEntry& e : t.entries()) {
        if (!e.valid) continue;
        std::fprintf(stderr,
                     "  circuit r=%d in=%s out=%s src=%d dest=%d "
                     "addr=%llx owner=%llu bound=%llu slot=%llu..%llu%s\n",
                     n, to_string(dir_of(static_cast<Port>(p))),
                     to_string(dir_of(e.out_port)), e.src, e.dest,
                     static_cast<unsigned long long>(e.addr),
                     static_cast<unsigned long long>(e.owner_req),
                     static_cast<unsigned long long>(e.bound_msg),
                     static_cast<unsigned long long>(e.slot_start),
                     static_cast<unsigned long long>(e.slot_end),
                     e.expired(now) ? " [expired]" : "");
        ++shown;
      }
    }
  }
  if (shown == 0) std::fprintf(stderr, "  (no circuit entries)\n");
  for (const UndoEvent& u : recent_undos_)
    std::fprintf(stderr,
                 "  undo @%llu from NI %d: circuit_dest=%d addr=%llx "
                 "owner=%llu\n",
                 static_cast<unsigned long long>(u.cycle), u.node,
                 u.circuit_dest, static_cast<unsigned long long>(u.addr),
                 static_cast<unsigned long long>(u.owner_req));
}

void Validator::fail(const std::string& what, Cycle now,
                     const Flight* flight) const {
  std::fprintf(stderr, "RC_CHECK violation @%llu: %s\n",
               static_cast<unsigned long long>(now), what.c_str());
  if (flight) dump_flight(*flight);
  dump_circuits(now);
  fatal("RC_CHECK: " + what);
}

}  // namespace rc
