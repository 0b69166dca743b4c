#include "coherence/address_map.hpp"

#include "cpu/workload.hpp"

namespace rc {

AddressMap::AddressMap(const Topology* topo, int partition_side)
    : topo_(topo), pside_(partition_side) {
  part_nodes_.resize(static_cast<std::size_t>(num_partitions()));
  member_idx_.assign(static_cast<std::size_t>(topo_->num_nodes()), 0);
  if (!partitioned()) {
    for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
      member_idx_[static_cast<std::size_t>(n)] = n;
      part_nodes_[0].push_back(n);
    }
    return;
  }
  const int ppr = partitions_per_row();
  for (int p = 0; p < num_partitions(); ++p) {
    auto& v = part_nodes_[static_cast<std::size_t>(p)];
    const int px = (p % ppr) * pside_;
    const int py = (p / ppr) * pside_;
    for (int y = py; y < py + pside_; ++y)
      for (int x = px; x < px + pside_; ++x) {
        const NodeId n = topo_->node_at({x, y});
        member_idx_[static_cast<std::size_t>(n)] = static_cast<int>(v.size());
        v.push_back(n);
      }
  }
}

int AddressMap::partition_of_addr(Addr addr) const {
  if (!partitioned()) return 0;
  if (addr >= kMigratoryBase)
    return static_cast<int>((addr - kMigratoryBase) / kPartitionSharedSpan) %
           num_partitions();
  if (addr >= kSharedBase)
    return static_cast<int>((addr - kSharedBase) / kPartitionSharedSpan) %
           num_partitions();
  if (addr >= kPrivateBase) {
    auto core = static_cast<NodeId>((addr - kPrivateBase) / kPrivateStride);
    if (core < topo_->num_nodes()) return partition_of(core);
  }
  return 0;
}

Addr AddressMap::partition_run_end(Addr a) const {
  if (!partitioned()) return ~Addr{0};
  // The boundaries partition_of_addr() tests, in its order of precedence.
  auto next = [a](Addr base, Addr step) {
    return base + ((a - base) / step + 1) * step;
  };
  if (a >= kMigratoryBase) return next(kMigratoryBase, kPartitionSharedSpan);
  if (a >= kSharedBase)
    return std::min(next(kSharedBase, kPartitionSharedSpan), kMigratoryBase);
  if (a >= kPrivateBase) {
    // Regions of core ids past the last node all fall back to partition 0.
    if ((a - kPrivateBase) / kPrivateStride >=
        static_cast<Addr>(topo_->num_nodes()))
      return kSharedBase;
    return std::min(next(kPrivateBase, kPrivateStride), kSharedBase);
  }
  return kPrivateBase;
}

NodeId AddressMap::home_l2(Addr addr) const {
  if (!partitioned())
    return static_cast<NodeId>((addr / kLineBytes) % topo_->num_nodes());
  const auto& nodes = partition_nodes(partition_of_addr(addr));
  return nodes[(addr / kLineBytes) % nodes.size()];
}

}  // namespace rc
