// Address interleaving: which L2 bank (and memory controller) owns a line.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "noc/topology.hpp"

namespace rc {

/// The shared L2 is distributed one bank per tile (Table 2); lines are
/// interleaved across all banks at cache-line granularity.
///
/// With partitioning enabled (§5.5: the paper argues future many-core
/// chips will be used as isolated partitions, Tilera-Hardwall style, with
/// Reactive Circuits operating independently inside each), the chip is
/// split into `side x side` tiles and every address is homed at a bank
/// INSIDE its community's partition, so no coherence traffic crosses a
/// partition boundary. Memory controllers stay global (memory is
/// off-chip).
class AddressMap {
 public:
  /// Builds the per-partition node tables once; `topo` must outlive the map.
  explicit AddressMap(const Topology* topo, int partition_side = 0);

  bool partitioned() const { return pside_ > 0; }
  int partition_side() const { return pside_; }
  int partitions_per_row() const { return topo_->width() / pside_; }
  int num_partitions() const {
    return partitioned()
               ? partitions_per_row() * (topo_->height() / pside_)
               : 1;
  }

  int partition_of(NodeId n) const {
    if (!partitioned()) return 0;
    Coord c = topo_->coord_of(n);
    return (c.y / pside_) * partitions_per_row() + c.x / pside_;
  }

  /// Nodes of partition `p`, row-major (every node when monolithic).
  const std::vector<NodeId>& partition_nodes(int p) const {
    return part_nodes_[static_cast<std::size_t>(p)];
  }
  /// Index of node `n` within partition_nodes(partition_of(n)).
  int member_index(NodeId n) const {
    return member_idx_[static_cast<std::size_t>(n)];
  }

  /// Which partition an address belongs to (derived from the workload
  /// layout: private regions belong to their owning core's partition,
  /// shared/migratory slices are laid out per partition).
  int partition_of_addr(Addr addr) const;

  NodeId home_l2(Addr addr) const;

  /// Calls `fn(a)` for every line address `a` of the region of `lines`
  /// lines starting at the line-aligned `base` with home_l2(a) == `bank`,
  /// in ascending order. Within a run of constant partition the home is
  /// partition_nodes(p)[line % members], so the lines homed at `bank` are an
  /// arithmetic stride of `members` lines starting at its member index;
  /// runs of other partitions are skipped whole.
  template <typename Fn>
  void for_each_line_homed_at(NodeId bank, Addr base, std::uint64_t lines,
                              Fn&& fn) const {
    RC_ASSERT(base % kLineBytes == 0, "region base must be line-aligned");
    const int part = partition_of(bank);
    const Addr m = partition_nodes(part).size();
    const Addr k = static_cast<Addr>(member_index(bank));
    const Addr end = base + lines * kLineBytes;
    for (Addr a = base; a < end;) {
      const Addr run_end = std::min(end, partition_run_end(a));
      if (partition_of_addr(a) == part) {
        Addr l = a / kLineBytes;
        for (l += (k + m - l % m) % m; l * kLineBytes < run_end; l += m)
          fn(l * kLineBytes);
      }
      a = run_end;
    }
  }

  NodeId mem_ctrl(Addr addr) const { return topo_->mem_ctrl_for(addr); }

 private:
  /// First address above `a` at which partition_of_addr() may differ from
  /// its value at `a` (the end of the address space when monolithic).
  Addr partition_run_end(Addr a) const;

  const Topology* topo_;
  int pside_;
  std::vector<std::vector<NodeId>> part_nodes_;  ///< per partition
  std::vector<int> member_idx_;                  ///< per node
};

/// Byte span of one partition's shared (and migratory) slice when
/// partitioning is on; WorkloadGen offsets its regions by these.
inline constexpr Addr kPartitionSharedSpan = 0x0100'0000ull;  // 256K lines

}  // namespace rc
