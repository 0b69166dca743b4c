// Functional cache warm-up (System::prewarm):
//  * AddressMap::for_each_line_homed_at — per bank, the enumerated lines
//    are ascending and homed at that bank, and the banks together cover
//    every line of the region exactly once (mesh 8x8 and 16x16, torus,
//    cmesh, 2x2 partitions);
//  * the bank-major, shard-parallel prewarm leaves byte-identical L1, L2
//    and directory state to an address-order reference walk, over protocol
//    (full-map MESI, sparse MSI with a small directory) x address map
//    (monolithic, 2x2 partitions) x app (fft, canneal, mix) x shards (1, 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "coherence/address_map.hpp"
#include "common/state.hpp"
#include "cpu/apps.hpp"
#include "cpu/workload.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"

using namespace rc;

namespace {

// --------------------------------------------------- per-bank enumeration

struct Region {
  Addr base;
  std::uint64_t lines;
};

void expect_exact_cover(const Topology& topo, int partition_side) {
  const AddressMap amap(&topo, partition_side);
  const int n = topo.num_nodes();
  const Addr span = kPartitionSharedSpan;
  const std::vector<Region> regions = {
      {kPrivateBase, 4000},                                  // core 0
      {kPrivateBase + static_cast<Addr>(n - 1) * kPrivateStride + 7 * 64,
       3001},                                                // last core
      {kPrivateBase + kPrivateStride - 300 * 64, 700},       // cores 0 -> 1
      {kPrivateBase - 100 * 64, 250},                        // below private
      {kSharedBase + 13 * 64, 5003},                         // shared slice 0
      {kSharedBase + span - 200 * 64, 600},                  // slices 0 -> 1
      {kSharedBase + 3 * span, 1000},                        // shared slice 3
      {kMigratoryBase - 50 * 64, 400},                       // shared -> mig
      {kMigratoryBase + 2 * span - 64, 129},                 // mig 1 -> 2
      {kSharedBase, 0},                                      // empty
  };
  for (const Region& g : regions) {
    SCOPED_TRACE("region base " + std::to_string(g.base) + ", " +
                 std::to_string(g.lines) + " lines");
    std::vector<int> seen(g.lines, 0);
    for (NodeId b = 0; b < n; ++b) {
      Addr prev = 0;
      bool first = true;
      amap.for_each_line_homed_at(b, g.base, g.lines, [&](Addr a) {
        ASSERT_GE(a, g.base);
        ASSERT_EQ((a - g.base) % kLineBytes, 0u);
        const Addr i = (a - g.base) / kLineBytes;
        ASSERT_LT(i, g.lines);
        EXPECT_TRUE(first || a > prev) << "bank " << b << " not ascending";
        EXPECT_EQ(amap.home_l2(a), b) << "line 0x" << std::hex << a;
        ++seen[i];
        prev = a;
        first = false;
      });
    }
    for (std::uint64_t i = 0; i < g.lines; ++i)
      ASSERT_EQ(seen[i], 1) << "line " << i << " enumerated " << seen[i]
                            << " times";
  }
}

TEST(PrewarmEnumeration, Mesh8x8) { expect_exact_cover(Topology(8, 8), 0); }

TEST(PrewarmEnumeration, Mesh16x16) {
  expect_exact_cover(Topology(16, 16), 0);
}

TEST(PrewarmEnumeration, Torus8x8) {
  expect_exact_cover(
      Topology(8, 8, TopologyKind::Torus, McPlacement::EdgeMiddle), 0);
}

TEST(PrewarmEnumeration, CMesh8x8) {
  expect_exact_cover(
      Topology(8, 8, TopologyKind::CMesh, McPlacement::EdgeMiddle), 0);
}

TEST(PrewarmEnumeration, Partitioned2x2On8x8) {
  expect_exact_cover(Topology(8, 8), 2);
}

// ------------------------------------------------ prewarm equivalence

/// The address-order warm-up this suite checks System::prewarm against:
/// per core its hot lines (L1 and L2, owner recorded), then the rest of
/// its private set; then every partition's shared and migratory slice.
/// Returns how many L2 installs (or, under SparseMSI, directory entries)
/// were refused.
int reference_prewarm(System& sys) {
  const SystemConfig& cfg = sys.config();
  const int n = cfg.noc.num_nodes();
  const AddressMap amap(&sys.network().topo(), cfg.partition_side);
  const auto profs = core_profiles(cfg.workload, n, cfg.seed);
  auto hot_count = [](std::uint32_t lines, double frac) {
    auto h = static_cast<std::uint32_t>(lines * frac);
    return h ? h : 1u;
  };
  int refused = 0;
  auto l2 = [&](Addr a, NodeId owner) {
    const bool ok = sys.l2(amap.home_l2(a)).prewarm_line(a, owner);
    if (!ok) ++refused;
    return ok;
  };
  for (NodeId c = 0; c < n; ++c) {
    const AppProfile& prof = profs[c];
    const std::uint32_t priv_hot =
        hot_count(prof.private_lines, prof.hot_fraction);
    Addr base = kPrivateBase + static_cast<Addr>(c) * kPrivateStride;
    for (std::uint32_t i = 0; i < priv_hot; ++i) {
      Addr a = base + static_cast<Addr>(i) * kLineBytes;
      if (cfg.protocol == Protocol::SparseMSI) {
        if (l2(a, c)) sys.l1(c).prewarm_line(a, L1State::M);
      } else {
        sys.l1(c).prewarm_line(a, L1State::E);
        l2(a, c);
      }
    }
    for (std::uint32_t i = priv_hot; i < prof.private_lines; ++i)
      l2(base + static_cast<Addr>(i) * kLineBytes, kInvalidNode);
  }
  std::uint32_t shared_lines = 0, mig_lines = 0;
  for (const auto& p : profs) {
    shared_lines = std::max(shared_lines, p.shared_lines);
    mig_lines = std::max(mig_lines, p.migratory_lines);
  }
  for (int p = 0; p < amap.num_partitions(); ++p) {
    const Addr soff = static_cast<Addr>(p) * kPartitionSharedSpan;
    for (std::uint32_t i = 0; i < shared_lines; ++i)
      l2(kSharedBase + soff + static_cast<Addr>(i) * kLineBytes, kInvalidNode);
    for (std::uint32_t i = 0; i < mig_lines; ++i)
      l2(kMigratoryBase + soff + static_cast<Addr>(i) * kLineBytes,
         kInvalidNode);
  }
  return refused;
}

/// Saved L1, L2 and (sparse) directory state of every node.
std::string cache_state(System& sys) {
  StateWriter w;
  const int n = sys.config().noc.num_nodes();
  for (NodeId i = 0; i < n; ++i) sys.l1(i).save(w);
  for (NodeId i = 0; i < n; ++i) sys.l2(i).save(w);
  return w.data();
}

using PrewarmCase = std::tuple<Protocol, int, std::string, int>;

class PrewarmEquivalence : public ::testing::TestWithParam<PrewarmCase> {};

TEST_P(PrewarmEquivalence, MatchesAddressOrderReference) {
  const auto& [protocol, partition_side, app, shards] = GetParam();
  SystemConfig cfg = make_system_config(16, "Baseline", app, 5);
  cfg.protocol = protocol;
  cfg.partition_side = partition_side;
  if (protocol == Protocol::SparseMSI) {
    // 32 entries per bank: far fewer than the hot lines homed there.
    cfg.cache.dir_sets = 8;
    cfg.cache.dir_ways = 4;
  }
  cfg.shards = shards;

  System warmed(cfg);
  ASSERT_EQ(warmed.shards(), shards);
  warmed.prewarm();

  cfg.shards = 1;
  System reference(cfg);
  const int refused = reference_prewarm(reference);
  // canneal and mix overflow the 16-bank L2 and the small directory
  // overflows on any app, so those cases exercise refusals.
  if (app != "fft" || protocol == Protocol::SparseMSI) {
    EXPECT_GT(refused, 0);
  }

  const std::string got = cache_state(warmed);
  const std::string want = cache_state(reference);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want) << "cache state differs at byte "
                           << (std::mismatch(got.begin(), got.end(),
                                             want.begin())
                                   .first -
                               got.begin());
}

std::string case_name(const ::testing::TestParamInfo<PrewarmCase>& info) {
  const auto& [protocol, partition_side, app, shards] = info.param;
  return std::string(protocol == Protocol::SparseMSI ? "SparseSmallDir"
                                                     : "FullMapMESI") +
         (partition_side ? "_Part2x2_" : "_Mono_") + app + "_shards" +
         std::to_string(shards);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PrewarmEquivalence,
    ::testing::Combine(
        ::testing::Values(Protocol::FullMapMESI, Protocol::SparseMSI),
        ::testing::Values(0, 2),
        ::testing::Values(std::string("fft"), std::string("canneal"),
                          std::string("mix")),
        ::testing::Values(1, 4)),
    case_name);

}  // namespace
