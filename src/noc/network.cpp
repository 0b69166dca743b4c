#include "noc/network.hpp"

#include <array>
#include <map>
#include <string>
#include <utility>

#include "common/state.hpp"
#include "noc/observer.hpp"

namespace rc {

Network::Network(const NocConfig& cfg)
    : cfg_(cfg), topo_(cfg_), lat_(cfg_),
      mode_(effective_tick_mode(cfg.tick)), pool_(topo_.num_nodes()) {
  const int n = topo_.num_nodes();
  // Sized once, before any component captures a pointer; never resized.
  node_stats_.resize(static_cast<std::size_t>(n));
  msg_local_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i)
    msg_local_.emplace_back(&node_stats_[i], "msg_local");
  routers_.reserve(n);
  nis_.reserve(n);
  drains_.resize(static_cast<std::size_t>(n));  // before wakers capture them
  for (NodeId i = 0; i < n; ++i) {
    routers_.push_back(
        std::make_unique<Router>(i, cfg_, &topo_, &node_stats_[i]));
    nis_.push_back(std::make_unique<NetworkInterface>(i, cfg_, &topo_,
                                                      &node_stats_[i], &pool_));
    local_pipes_.emplace_back(cfg_.local_latency);
    drains_[i].net = this;
    drains_[i].node = i;
    local_pipes_.back().set_waker(&drains_[i]);
  }

  // Directed inter-router links: data (ST -> next BW) and credit wires.
  // Keyed by the *outgoing* (node, port) pair, not (node, node): a 2-wide
  // torus dimension or a 2-node ring has two parallel links between the
  // same node pair, distinct only by port.
  struct LinkPipes {
    Pipe<Flit>* data;
    Pipe<Credit>* credit;
  };
  std::map<std::pair<NodeId, Port>, LinkPipes> links;
  const Cycle data_lat = static_cast<Cycle>(lat_.st_to_arrival());
  for (NodeId a = 0; a < n; ++a) {
    for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West}) {
      NodeId b = topo_.neighbour(a, d);
      if (b == kInvalidNode) continue;
      // Consumer-side wakers (with the per-port pending bits) are registered
      // by Router::wire below.
      flit_pipes_.emplace_back(data_lat);
      credit_pipes_.emplace_back(1);
      links[{a, port_of(d)}] = {&flit_pipes_.back(), &credit_pipes_.back()};
      // Link records for configure_shards. The data pipe of link a->b is
      // pushed only by router a; its credit pipe only by router b (credits
      // travel upstream). These are the only pipes that can span shards —
      // NI<->router pipes have both ends on one tile.
      flit_links_.push_back({a, b, &flit_pipes_.back()});
      credit_links_.push_back({b, a, &credit_pipes_.back()});
    }
  }
  for (NodeId a = 0; a < n; ++a) {
    for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West}) {
      NodeId b = topo_.neighbour(a, d);
      if (b == kInvalidNode) continue;
      // The inbound pipes of port d are the outbound pipes of the
      // neighbour's reverse port (the port whose link leads back here).
      const Dir rd = topo_.reverse_dir(a, d);
      Router::PortWiring w;
      w.out_data = links[{a, port_of(d)}].data;
      w.out_credits = links[{a, port_of(d)}].credit;
      w.in_data = links[{b, port_of(rd)}].data;
      w.in_credits = links[{b, port_of(rd)}].credit;
      routers_[a]->wire(d, w);
    }
    // Local port: NI <-> router. The router registers itself (with port
    // pending bits) on inject/undo via wire(); the NI-consumed pipes get
    // their wakers here.
    flit_pipes_.emplace_back(data_lat);   // inject: NI -> router
    Pipe<Flit>* inject = &flit_pipes_.back();
    flit_pipes_.emplace_back(data_lat);   // eject: router -> NI
    Pipe<Flit>* eject = &flit_pipes_.back();
    eject->set_waker(nis_[a].get());
    credit_pipes_.emplace_back(1);        // router -> NI (input buffer credits)
    Pipe<Credit>* inj_credits = &credit_pipes_.back();
    inj_credits->set_waker(nis_[a].get());
    // NI -> router undo records: 3 cycles, so a tear-down launched in the
    // same cycle a rider's tail was injected still reaches every router
    // strictly after the tail (both then advance at 2 cycles/hop).
    credit_pipes_.emplace_back(3);
    Pipe<Credit>* undo = &credit_pipes_.back();
    Router::PortWiring w;
    w.in_data = inject;
    w.in_credits = inj_credits;
    w.out_data = eject;
    w.out_credits = undo;
    routers_[a]->wire(Dir::Local, w);
    nis_[a]->wire(inject, inj_credits, eject, undo);
  }
  configure_shards(1);
}

void Network::send(const MsgPtr& msg, Cycle now) {
  RC_ASSERT(msg->src >= 0 && msg->src < topo_.num_nodes(), "bad src");
  RC_ASSERT(msg->dest >= 0 && msg->dest < topo_.num_nodes(), "bad dest");
  if (msg->src == msg->dest) {
    msg->created = msg->injected = now;
    ++msg_local_[msg->src];
    local_pipes_[msg->src].push(msg, now);
    return;
  }
  nis_[msg->src]->send(msg, now);
}

void Network::set_deliver(std::function<void(NodeId, const MsgPtr&)> cb) {
  deliver_ = std::move(cb);
  for (auto& ni : nis_) {
    NodeId node = ni->node();
    ni->set_deliver([this, node](const MsgPtr& m) {
      if (deliver_) deliver_(node, m);
    });
  }
}

void Network::set_reply_injected(
    std::function<void(NodeId, const MsgPtr&, bool)> cb) {
  for (auto& ni : nis_) {
    NodeId node = ni->node();
    ni->set_reply_injected([cb, node](const MsgPtr& m, bool circ) {
      cb(node, m, circ);
    });
  }
}

void Network::set_observer(NocObserver* obs) {
  obs_ = obs;
  for (auto& r : routers_) r->set_observer(obs);
  for (auto& ni : nis_) ni->set_observer(obs);
}

void Network::drain_local(NodeId n, Cycle now) {
  // Woken by the pipe on push (LocalDrain); in Always/Verify mode every
  // drain runs each cycle, and the empty() guard keeps that one branch.
  auto& p = local_pipes_[n];
  if (p.empty()) return;
  while (auto m = p.pop_ready(now)) {
    (*m)->delivered = now;
    if (deliver_) deliver_(n, *m);
  }
}

void Network::configure_shards(int shards) {
  RC_ASSERT(!sealed_, "configure_shards after the first run");
  for (const auto& s : scheds_)
    RC_ASSERT(s->size() == 0, "configure_shards after add_ticker");
  const int n = topo_.num_nodes();
  ranges_ = shard_ranges(n, shards);
  std::vector<int> shard_of(static_cast<std::size_t>(n), 0);
  for (std::size_t k = 0; k < ranges_.size(); ++k)
    for (NodeId i = ranges_[k].begin; i < ranges_[k].end; ++i)
      shard_of[static_cast<std::size_t>(i)] = static_cast<int>(k);

  // Pipes that no longer cross a boundary drop back to immediate pushes
  // (set_deferred asserts the mailbox is empty; nothing has run yet). Cross
  // pipes register in their *producer* shard's dirty list on the first push
  // of a cycle; finish_cycle flushes exactly the dirty ones.
  dirty_.assign(ranges_.size(), PipeDirtyList{});
  for (const auto& l : flit_links_) {
    const int ps = shard_of[static_cast<std::size_t>(l.producer)];
    const bool cross = ps != shard_of[static_cast<std::size_t>(l.consumer)];
    l.pipe->set_deferred(cross, cross ? &dirty_[ps] : nullptr);
  }
  for (const auto& l : credit_links_) {
    const int ps = shard_of[static_cast<std::size_t>(l.producer)];
    const bool cross = ps != shard_of[static_cast<std::size_t>(l.consumer)];
    l.pipe->set_deferred(cross, cross ? &dirty_[ps] : nullptr);
  }
  scheds_.clear();
  for (std::size_t k = 0; k < ranges_.size(); ++k)
    scheds_.push_back(std::make_unique<ShardSchedule>());
}

void Network::for_each_shard(const std::function<void(ShardRange)>& fn) {
  run_sharded(
      num_shards(), 0, 1, [&](int k, Cycle) { fn(ranges_[k]); },
      [](Cycle c) { return c + 1; });
}

void Network::seal_schedules() {
  for (std::size_t k = 0; k < scheds_.size(); ++k) {
    ShardSchedule& s = *scheds_[k];
    const ShardRange r = ranges_[k];
    for (NodeId i = r.begin; i < r.end; ++i) s.add(&drains_[i], "local bypass");
    for (NodeId i = r.begin; i < r.end; ++i)
      s.add(nis_[i].get(), "network interface");
    for (NodeId i = r.begin; i < r.end; ++i) s.add(routers_[i].get(), "router");
    s.seal();
  }
  sealed_ = true;
}

Cycle Network::run(Cycle from, Cycle to) {
  RC_ASSERT(from <= to, "Network::run: clock would run backwards");
  if (!sealed_) seal_schedules();
  now_ = from;
  // Fast-forward is legal only when the scheduler is activity-driven
  // (Always/Verify tick everything each cycle) and no observer is attached
  // — the validator's watchdog and the telemetry sampler both require their
  // per-cycle global scan.
  const bool ffwd = mode_ == TickMode::Activity && obs_ == nullptr;
  if (scheds_.size() == 1) {
    NocObserver* obs = obs_;
    ShardSchedule& sched = *scheds_[0];
    while (now_ < to) {
      const Cycle f = sched.sweep(now_, mode_);
      if (obs) obs->on_network_cycle(now_);
      Cycle next = now_ + 1;
      if (ffwd && f > next) next = f;
      now_ = next < to ? next : to;
    }
    return now_;
  }
  // Each worker sweeps its shard's schedule; cross-shard traffic parks in
  // the deferred link pipes until the barrier completion flushes it. now_
  // is only written there, with all workers parked, so components reading
  // it mid-cycle always see the current cycle.
  run_sharded(
      num_shards(), from, to,
      [this](int shard, Cycle c) { scheds_[shard]->sweep(c, mode_); },
      [this, ffwd, to](Cycle c) -> Cycle {
        finish_cycle(c);
        Cycle next = c + 1;
        if (ffwd) {
          // The flush above may have lowered frontiers — read them only
          // now, with every worker parked.
          Cycle f = kNeverCycle;
          for (const auto& s : scheds_)
            if (s->frontier() < f) f = s->frontier();
          if (f > next) next = f;
        }
        now_ = next < to ? next : to;
        return now_;
      });
  return now_;
}

void Network::finish_cycle(Cycle now) {
  // Single-threaded (barrier completion): move every cross-shard push into
  // its ring, waking the consuming Tickers for next cycle. Everything an
  // observer scans afterwards is the same global state a serial tick leaves.
  // Only pipes that actually received pushes are visited — an idle boundary
  // (or an entirely idle cycle) makes this loop free, which is what lets
  // shards with nothing to exchange skip the phase.
  for (PipeDirtyList& dl : dirty_) dl.flush_all();
  if (obs_) obs_->on_network_cycle(now);
}

StatSet Network::merged_stats() const {
  StatSet out;
  for (const auto& s : node_stats_) out.merge(s);
  return out;
}

void Network::reset_stats() {
  // In-place zeroing keeps the routers' cached hot-counter pointers valid.
  for (auto& s : node_stats_) s.reset();
}

namespace {
// Pipe codecs: item count, then (absolute ready cycle, item) pairs in FIFO
// order. restore_push keeps the ready times monotonic because saving
// preserved the order.
template <typename T, typename SaveItem>
void save_pipe(StateWriter& w, const Pipe<T>& p, SaveItem item) {
  // At a cycle boundary the cross-shard mailboxes are flushed, so size()
  // counts ring items only and FIFO order is the ring order.
  RC_ASSERT(!p.deferred() || p.size() == 0 || !p.ring_empty(),
            "pipe saved with unflushed deferred items");
  w.u64(p.size());
  p.for_each([&](const T& it, Cycle ready) {
    w.u64(ready);
    item(w, it);
  });
}
template <typename T, typename LoadItem>
bool load_pipe(StateReader& r, Pipe<T>* p, LoadItem item) {
  std::uint64_t n;
  if (!r.u64(&n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    Cycle ready;
    T it{};
    if (!r.u64(&ready) || !item(r, &it)) return false;
    p->restore_push(std::move(it), ready);
  }
  return true;
}
}  // namespace

void Network::save(StateWriter& w) const {
  pool_.save(w);
  w.u64(flit_pipes_.size());
  for (const auto& p : flit_pipes_)
    save_pipe(w, p, [](StateWriter& sw, const Flit& f) { save_flit(sw, f); });
  w.u64(credit_pipes_.size());
  for (const auto& p : credit_pipes_)
    save_pipe(w, p,
              [](StateWriter& sw, const Credit& c) { save_credit(sw, c); });
  w.u64(local_pipes_.size());
  for (const auto& p : local_pipes_)
    save_pipe(w, p,
              [](StateWriter& sw, const MsgPtr& m) { save_msg_ref(sw, m); });
  for (const StatSet& s : node_stats_) s.save(w);
  for (const auto& ni : nis_) ni->save(w);
  for (const auto& rt : routers_) rt->save(w);
}

bool Network::load(StateReader& r) {
  if (!pool_.load(r)) return false;
  const auto check_count = [&](std::size_t have, const char* what) {
    std::uint64_t n;
    if (!r.u64(&n)) return false;
    if (n != have)
      return r.fail(std::string(what) + ": fabric has " +
                    std::to_string(have) + ", snapshot has " +
                    std::to_string(n));
    return true;
  };
  if (!check_count(flit_pipes_.size(), "flit pipes")) return false;
  for (auto& p : flit_pipes_)
    if (!load_pipe(r, &p, [](StateReader& sr, Flit* f) {
          return load_flit(sr, f);
        }))
      return false;
  if (!check_count(credit_pipes_.size(), "credit pipes")) return false;
  for (auto& p : credit_pipes_)
    if (!load_pipe(r, &p, [](StateReader& sr, Credit* c) {
          return load_credit(sr, c);
        }))
      return false;
  if (!check_count(local_pipes_.size(), "local pipes")) return false;
  for (auto& p : local_pipes_)
    if (!load_pipe(r, &p, [](StateReader& sr, MsgPtr* m) {
          return load_msg_ref(sr, m);
        }))
      return false;
  for (StatSet& s : node_stats_)
    if (!s.load(r)) return false;
  for (auto& ni : nis_)
    if (!ni->load(r)) return false;
  for (auto& rt : routers_)
    if (!rt->load(r)) return false;
  return true;
}

bool Network::idle() const {
  for (const auto& p : flit_pipes_)
    if (!p.empty()) return false;
  for (const auto& p : local_pipes_)
    if (!p.empty()) return false;
  for (const auto& ni : nis_)
    if (ni->pending() > 0) return false;
  for (const auto& r : routers_)
    if (r->busy()) return false;
  return true;
}

}  // namespace rc
