// Sharded tick engine tests:
//  * partitioning math — every node covered exactly once, contiguous,
//    balanced, degenerate meshes (1xN strips, more shards than nodes),
//  * RC_SHARDS / SystemConfig::shards resolution,
//  * run_sharded barrier semantics (per-cycle lockstep, error propagation),
//  * MessagePool double-pin / reuse-after-release detection,
//  * the headline guarantee: bit-identical RunResult statistics (counters,
//    accumulators, IPC, energy) for 1 vs 2 vs 4 shards on every preset (and
//    1 vs 2/4/8 on a 16x16 CMP), for the synthetic load-sweep driver, and
//    for a raw fabric driven by per-node injectors in both tick modes,
//  * a byte-identical rc-sim --trace Chrome export at 1 vs 4 shards.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/shard.hpp"
#include "cpu/apps.hpp"
#include "noc/message.hpp"
#include "noc/message_pool.hpp"
#include "noc/network.hpp"
#include "noc/plan_injector.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/synthetic.hpp"
#include "sim/system.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"
#include "sim/validator.hpp"

using namespace rc;

namespace {

// ------------------------------------------------------- partitioning math

void expect_valid_partition(int num_nodes, int shards) {
  const auto ranges = shard_ranges(num_nodes, shards);
  const int expected =
      shards < 1 ? 1 : (shards > num_nodes ? num_nodes : shards);
  ASSERT_EQ(static_cast<int>(ranges.size()), expected)
      << num_nodes << " nodes / " << shards << " shards";
  // Contiguous cover of [0, num_nodes) in ascending order.
  EXPECT_EQ(ranges.front().begin, 0);
  EXPECT_EQ(ranges.back().end, num_nodes);
  for (std::size_t k = 1; k < ranges.size(); ++k)
    EXPECT_EQ(ranges[k].begin, ranges[k - 1].end);
  // Balanced: sizes differ by at most one node, none empty.
  int lo = num_nodes, hi = 0, total = 0;
  for (const ShardRange& r : ranges) {
    EXPECT_GT(r.size(), 0);
    lo = std::min(lo, r.size());
    hi = std::max(hi, r.size());
    total += r.size();
  }
  EXPECT_EQ(total, num_nodes);
  EXPECT_LE(hi - lo, 1);
  // Every node lands in exactly one range.
  for (NodeId n = 0; n < num_nodes; ++n) {
    int owners = 0;
    for (const ShardRange& r : ranges)
      if (r.contains(n)) ++owners;
    EXPECT_EQ(owners, 1) << "node " << n;
  }
}

TEST(ShardRanges, EveryNodeCoveredExactlyOnce) {
  for (int n : {1, 2, 3, 4, 7, 8, 16, 61, 64})
    for (int s = 1; s <= n + 3; ++s) expect_valid_partition(n, s);
}

TEST(ShardRanges, DegenerateMeshes) {
  // 1xN strips and shard counts past the node count just clamp.
  expect_valid_partition(1, 1);
  expect_valid_partition(1, 8);
  expect_valid_partition(5, 5);
  expect_valid_partition(5, 64);
  expect_valid_partition(64, 0);   // <1 clamps to serial
  expect_valid_partition(64, -3);
}

TEST(ShardRanges, EvenSplitIsBalanced) {
  const auto r = shard_ranges(64, 4);
  ASSERT_EQ(r.size(), 4u);
  for (const ShardRange& s : r) EXPECT_EQ(s.size(), 16);
  EXPECT_EQ(r[2], (ShardRange{32, 48}));
}

TEST(EffectiveShards, ExplicitConfigWinsOverEnvironment) {
  setenv("RC_SHARDS", "7", 1);
  EXPECT_EQ(effective_shards(3, 64), 3);
  EXPECT_EQ(effective_shards(0, 64), 7);
  unsetenv("RC_SHARDS");
  EXPECT_EQ(effective_shards(0, 64), 1);  // unset -> serial
  EXPECT_EQ(effective_shards(100, 16), 16);  // clamped to num_nodes
  setenv("RC_SHARDS", "auto", 1);
  EXPECT_GE(effective_shards(0, 64), 1);
  unsetenv("RC_SHARDS");
}

// ----------------------------------------------------- run_sharded barrier

TEST(RunSharded, BodiesAndFinishRunPerCycleInLockstep) {
  constexpr int kShards = 3;
  constexpr Cycle kStart = 10, kEnd = 25;
  std::atomic<int> bodies{0};
  std::vector<Cycle> finished;
  run_sharded(
      kShards, kStart, kEnd,
      [&](int shard, Cycle now) {
        EXPECT_GE(shard, 0);
        EXPECT_LT(shard, kShards);
        // The finish list is only mutated at the barrier, so its size tells
        // this worker how many cycles completed: lockstep means `now` is
        // always exactly kStart + completed.
        EXPECT_EQ(now, kStart + static_cast<Cycle>(finished.size()));
        bodies.fetch_add(1, std::memory_order_relaxed);
      },
      [&](Cycle now) {
        finished.push_back(now);
        return now + 1;
      });
  EXPECT_EQ(bodies.load(), kShards * static_cast<int>(kEnd - kStart));
  ASSERT_EQ(finished.size(), static_cast<std::size_t>(kEnd - kStart));
  for (std::size_t i = 0; i < finished.size(); ++i)
    EXPECT_EQ(finished[i], kStart + static_cast<Cycle>(i));
}

TEST(RunSharded, WorkerExceptionStopsAllShardsAndRethrows) {
  std::atomic<int> max_cycle{0};
  EXPECT_THROW(
      run_sharded(
          4, 0, 1000,
          [&](int shard, Cycle now) {
            int seen = max_cycle.load(std::memory_order_relaxed);
            while (static_cast<int>(now) > seen &&
                   !max_cycle.compare_exchange_weak(
                       seen, static_cast<int>(now), std::memory_order_relaxed))
              ;
            if (shard == 2 && now == 5) fatal("shard 2 exploded");
          },
          [](Cycle now) { return now + 1; }),
      FatalError);
  // Every shard stopped at the failing generation — nobody ran ahead.
  EXPECT_EQ(max_cycle.load(), 5);
}

TEST(RunSharded, FinishExceptionPropagates) {
  EXPECT_THROW(run_sharded(
                   2, 0, 10, [](int, Cycle) {},
                   [](Cycle now) {
                     if (now == 3) fatal("finish failed");
                     return now + 1;
                   }),
               FatalError);
}

// ------------------------------------------------------------ MessagePool

MsgPtr make_msg(std::uint64_t id, NodeId src) {
  auto m = std::make_shared<Message>();
  m->id = id;
  m->type = MsgType::GetS;
  m->src = src;
  m->dest = src ^ 1;
  m->size_flits = 1;
  return m;
}

TEST(MessagePool, PinReleaseRoundTrip) {
  MessagePool pool(16);
  auto m = make_msg(42, 3);
  pool.pin(m);
  EXPECT_EQ(pool.pinned(), 1u);
  MsgPtr back = pool.release(m.get());
  EXPECT_EQ(back.get(), m.get());
  EXPECT_EQ(pool.pinned(), 0u);
}

TEST(MessagePool, DoublePinIsFatal) {
  MessagePool pool(16);
  auto m = make_msg(7, 0);
  pool.pin(m);
  EXPECT_THROW(pool.pin(m), FatalError);
}

TEST(MessagePool, ReuseAfterReleaseIsFatal) {
  MessagePool pool(16);
  auto m = make_msg(9, 5);
  pool.pin(m);
  (void)pool.release(m.get());
  // A flit still carrying this raw pointer after final delivery would hit
  // exactly this path.
  EXPECT_THROW(pool.release(m.get()), FatalError);
}

TEST(MessagePool, ReleaseWithoutPinIsFatal) {
  MessagePool pool(16);
  auto m = make_msg(11, 2);
  EXPECT_THROW(pool.release(m.get()), FatalError);
}

// --------------------------------------- bit-identical stats across shards

// Exact (bit-identical) comparison over the union of both stat sets.
void expect_stats_equal(const StatSet& a, const StatSet& b,
                        const std::string& what) {
  for (const auto& [k, v] : a.counters())
    EXPECT_EQ(v, b.counter_value(k)) << what << " counter " << k;
  for (const auto& [k, v] : b.counters())
    EXPECT_EQ(v, a.counter_value(k)) << what << " counter " << k;
  EXPECT_EQ(a.accumulators().size(), b.accumulators().size()) << what;
  for (const auto& [k, acc] : a.accumulators()) {
    const Accumulator* o = b.find_acc(k);
    ASSERT_NE(o, nullptr) << what << " accumulator " << k;
    EXPECT_TRUE(acc == *o) << what << " accumulator " << k;
  }
  for (const auto& [k, h] : a.histograms()) {
    const Histogram* o = b.find_hist(k);
    ASSERT_NE(o, nullptr) << what << " histogram " << k;
    EXPECT_TRUE(h == *o) << what << " histogram " << k;
  }
}

RunResult run_with_shards(const std::string& preset, const std::string& app,
                          int shards, int cores = 16, Cycle warmup = 500,
                          Cycle measure = 2'000) {
  SystemConfig cfg = make_system_config(cores, preset, app, /*seed=*/1);
  cfg.warmup_cycles = warmup;
  cfg.measure_cycles = measure;
  cfg.shards = shards;  // explicit — wins over any RC_SHARDS in the env
  return run_config(cfg, preset);
}

void expect_runs_equal(const RunResult& serial, const RunResult& par,
                       const std::string& what) {
  EXPECT_EQ(serial.retired, par.retired) << what;
  EXPECT_EQ(serial.ipc, par.ipc) << what;
  EXPECT_EQ(serial.energy_per_instr, par.energy_per_instr) << what;
  expect_stats_equal(serial.net, par.net, what + " [net]");
  expect_stats_equal(serial.sys, par.sys, what + " [sys]");
}

TEST(ShardDeterminism, AllPresetsAllSmallAppsBitIdentical) {
  // The acceptance bar: RunResult statistics (counters, IPC, energy) must
  // not differ by a single bit between the serial engine and 2- or 4-shard
  // parallel runs, for every preset x small-app combination.
  //
  // Under RC_CHECK=1 (the `check` preset exports it to every test) the
  // Validator's per-cycle scans multiply runtime, so the sweep shrinks to
  // the small preset list x two apps; the full matrix runs in the default
  // configuration.
  const bool checked = Validator::enabled_by_env();
  const std::vector<std::string>& presets =
      checked ? preset_names_small() : preset_names();
  const std::vector<std::string> apps =
      checked ? std::vector<std::string>{"fft", "mix"} : app_names_small();
  for (const std::string& preset : presets) {
    for (const std::string& app : apps) {
      const RunResult serial = run_with_shards(preset, app, 1);
      for (int shards : {2, 4})
        expect_runs_equal(serial, run_with_shards(preset, app, shards),
                          preset + "/" + app + " shards=" +
                              std::to_string(shards));
    }
  }
  // A 16x16 CMP, where every shard owns several mesh rows and real
  // parallelism matters: short windows keep it to a few seconds.
  const RunResult serial =
      run_with_shards("SlackDelay1_NoAck", "fft", 1, 256, 200, 600);
  ASSERT_GT(serial.retired, 0u);
  for (int shards : {2, 4, 8})
    expect_runs_equal(
        serial,
        run_with_shards("SlackDelay1_NoAck", "fft", shards, 256, 200, 600),
        "16x16 shards=" + std::to_string(shards));
}

TEST(ShardDeterminism, SyntheticDriverBitIdentical) {
  const NocConfig noc =
      make_system_config(16, "SlackDelay1_NoAck", "fft", 1).noc;
  auto run = [&](int shards) {
    SyntheticTraffic t(noc, /*rate=*/0.05, /*service=*/7, /*seed=*/1, shards);
    return t.run(/*warmup=*/500, /*measure=*/3'000);
  };
  const SyntheticResult serial = run(1);
  for (int shards : {2, 4}) {
    const SyntheticResult par = run(shards);
    const std::string what = "synthetic shards=" + std::to_string(shards);
    EXPECT_EQ(serial.requests_done, par.requests_done) << what;
    EXPECT_EQ(serial.request_latency, par.request_latency) << what;
    EXPECT_EQ(serial.reply_latency, par.reply_latency) << what;
    EXPECT_EQ(serial.circuit_use, par.circuit_use) << what;
    expect_stats_equal(serial.net, par.net, what);
  }
}

// A raw fabric (no cores, no caches) fed by per-node plan injectors — the
// shape of bench_micro_router's BM_LoadedNetworkTick, and the only sharded
// path without a System or SyntheticTraffic around it.
StatSet run_raw_fabric(int shards, TickMode mode, std::uint64_t* delivered) {
  NocConfig cfg;
  cfg.mesh_w = cfg.mesh_h = 8;
  cfg.tick = mode;
  Network net(cfg);
  net.configure_shards(shards);
  // Written only by the shard owning the destination node.
  std::vector<std::uint64_t> got(static_cast<std::size_t>(cfg.num_nodes()));
  net.set_deliver([&got](NodeId node, const MsgPtr&) { ++got[node]; });
  std::vector<PlanInjector> inj;
  plan_uniform_requests(net, &inj, 2'000, /*every=*/2, /*seed=*/7);
  EXPECT_EQ(net.run(0, 2'500), 2'500u);
  EXPECT_TRUE(net.idle());
  *delivered = 0;
  for (std::uint64_t g : got) *delivered += g;
  return net.merged_stats();
}

TEST(ShardDeterminism, RawFabricBitIdentical) {
  std::uint64_t serial_delivered = 0;
  const StatSet serial =
      run_raw_fabric(1, TickMode::Activity, &serial_delivered);
  ASSERT_GT(serial_delivered, 900u);
  for (TickMode mode : {TickMode::Activity, TickMode::Always}) {
    for (int shards : {1, 2, 4}) {
      std::uint64_t delivered = 0;
      const StatSet par = run_raw_fabric(shards, mode, &delivered);
      const std::string what = std::string("raw fabric ") + to_string(mode) +
                               " shards=" + std::to_string(shards);
      EXPECT_EQ(serial_delivered, delivered) << what;
      expect_stats_equal(serial, par, what);
    }
  }
}

// rc-sim --trace under real parallelism: the Chrome export reads a
// Telemetry stream, whose hooks stage events per node and drain them in
// node order, so the file is byte-identical at any shard count and in
// either tick mode (a hook that wrote shared state from the shard workers
// would race here, and the tsan preset runs this test).
std::string chrome_trace(int shards, TickMode mode) {
  SystemConfig cfg = make_system_config(64, "SlackDelay1_NoAck", "fft", 1);
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 2'000;
  cfg.shards = shards;
  cfg.noc.tick = mode;
  System sys(cfg);
  Telemetry trace(&sys.network(), "", 0);
  trace.enable_msg_types();
  sys.run();
  return FlightRecorder(trace.events()).to_json();
}

TEST(ShardDeterminism, ChromeTraceBitIdentical) {
  const std::string serial = chrome_trace(1, TickMode::Activity);
  ASSERT_GT(serial.size(), 10'000u);
  for (TickMode mode : {TickMode::Activity, TickMode::Always})
    for (int shards : {1, 4}) {
      if (shards == 1 && mode == TickMode::Activity) continue;
      EXPECT_TRUE(chrome_trace(shards, mode) == serial)
          << to_string(mode) << " shards=" << shards;
    }
}

TEST(ShardDeterminism, ShardedSystemIsResumable) {
  // run_cycles in several slices (as tests and benches do) must behave like
  // one long run: the sharded engine picks the clock back up between calls.
  auto run_sliced = [](int shards, std::initializer_list<Cycle> slices) {
    SystemConfig cfg = make_system_config(16, "Complete_NoAck", "fft", 1);
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 1;  // unused; we drive run_cycles directly
    cfg.shards = shards;
    System sys(cfg);
    sys.prewarm();
    for (Cycle s : slices) sys.run_cycles(s);
    return std::make_pair(sys.total_retired(),
                          sys.merged_sys_stats().counter_value("core_mem_ops"));
  };
  const auto serial = run_sliced(1, {1'500});
  EXPECT_EQ(serial, run_sliced(4, {1'500}));
  EXPECT_EQ(serial, run_sliced(4, {500, 400, 600}));
  EXPECT_EQ(serial, run_sliced(3, {1'000, 500}));
}

}  // namespace
