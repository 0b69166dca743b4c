// Open-loop traffic for raw-fabric runs (no cores, no caches): per-node
// injectors replay one pre-generated plan of 1-flit requests between
// uniformly random node pairs. The plan is drawn from one RNG up front, so
// the offered traffic is identical for any shard count and tick mode, and
// each injector sends only the messages its own node sources — safe from
// that node's shard worker.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"

namespace rc {

/// One node's driver (a Ticker registered with Network::add_ticker): armed
/// at its next planned send, so the engine's frontier skips quiet cycles.
struct PlanInjector : Ticker {
  Network* net = nullptr;
  std::vector<std::pair<Cycle, MsgPtr>> plan;  ///< ascending cycles
  std::size_t next = 0;

  void tick(Cycle now) {
    while (next < plan.size() && plan[next].first == now)
      net->send(plan[next++].second, now);
  }
  Cycle next_work(Cycle) const {
    return next < plan.size() ? plan[next].first : kNeverCycle;
  }
};

/// Plan one 1-flit GetS every `every` cycles in [0, cycles) from Rng(seed)
/// (self-sends are dropped), one injector per node, and register them with
/// `net`. `inj` must not be resized or destroyed while `net` still runs.
inline void plan_uniform_requests(Network& net, std::vector<PlanInjector>* inj,
                                  Cycle cycles, Cycle every,
                                  std::uint64_t seed) {
  const int n = net.topo().num_nodes();
  inj->assign(static_cast<std::size_t>(n), PlanInjector{});
  Rng rng(seed);
  std::uint64_t id = 0;
  for (Cycle c = 0; c < cycles; c += every) {
    auto m = std::make_shared<Message>();
    m->id = ++id;
    m->type = MsgType::GetS;
    m->src = static_cast<NodeId>(rng.next_below(n));
    m->dest = static_cast<NodeId>(rng.next_below(n));
    m->addr = 64 * id;
    m->size_flits = 1;
    if (m->src != m->dest) (*inj)[m->src].plan.emplace_back(c, std::move(m));
  }
  for (NodeId i = 0; i < n; ++i) {
    (*inj)[i].net = &net;
    net.add_ticker(i, &(*inj)[i], "plan injector");
  }
}

}  // namespace rc
