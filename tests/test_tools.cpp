// Tooling tests: the Chrome flight-recorder export, report tables, and the
// remaining small public APIs (message helpers, presets).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "noc/message.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"

namespace rc {
namespace {

SystemConfig small_cfg(const std::string& preset = "SlackDelay1_NoAck") {
  SystemConfig cfg = make_system_config(16, preset, "fft", 3);
  cfg.warmup_cycles = 1'000;
  cfg.measure_cycles = 4'000;
  return cfg;
}

/// Event stream of one run, as rc-sim --trace collects it: a path-less
/// Telemetry with message types, chained onto whatever is attached.
std::vector<TelemetryEvent> traced_run(const SystemConfig& cfg) {
  System sys(cfg);
  Telemetry tel(&sys.network(), "", 0);
  tel.enable_msg_types();
  sys.run();
  return tel.events();
}

TEST(Trace, RecordsAndSerializes) {
  const FlightRecorder rec(traced_run(small_cfg()));
  EXPECT_GT(rec.records().size(), 100u);
  std::string json = rec.to_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"circuit\":true"), std::string::npos);
  // Every record crossed the fabric: same-tile messages never reach it.
  for (const auto& r : rec.records()) {
    EXPECT_NE(r.src, r.dest) << "msg " << r.id;
    EXPECT_LE(r.created, r.injected) << "msg " << r.id;
    EXPECT_LT(r.injected, r.delivered) << "msg " << r.id;
  }
}

TEST(Trace, WritesFile) {
  SystemConfig cfg = small_cfg();
  cfg.measure_cycles = 1'500;
  const FlightRecorder rec(traced_run(cfg));
  const std::string path = ::testing::TempDir() + "rc_trace_test.json";
  std::string err;
  ASSERT_TRUE(rec.write(path, &err)) << err;
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), rec.to_json());
  std::remove(path.c_str());
}

TEST(Trace, WriteFailureIsReported) {
  const FlightRecorder rec(std::vector<TelemetryEvent>{});
  std::string err;
  EXPECT_FALSE(rec.write("/nonexistent-dir/rc_trace_test.json", &err));
  EXPECT_FALSE(err.empty());
}

// The recorder keeps the newest records, like a hardware flight recorder:
// a capped trace is exactly the tail of the uncapped one (the interesting
// part when debugging a crash at the end of a run); a zero cap keeps none.
TEST(Trace, CapKeepsNewestRecords) {
  const std::vector<TelemetryEvent> events = traced_run(small_cfg());
  const FlightRecorder full(events);
  ASSERT_GT(full.records().size(), 80u);
  const std::size_t cap = 64;
  const FlightRecorder capped(events, cap);
  ASSERT_EQ(capped.records().size(), cap);
  std::vector<std::uint64_t> tail, kept;
  for (auto it = full.records().end() - cap; it != full.records().end(); ++it)
    tail.push_back(it->id);
  for (const auto& r : capped.records()) kept.push_back(r.id);
  EXPECT_EQ(kept, tail);
  EXPECT_TRUE(FlightRecorder(events, 0).records().empty());
}

// rc-sim --trace feeds the stream in chunks and drops each chunk after
// consuming it: the in-flight pairings carry across chunk boundaries, so
// the records (capped or not) are exactly those of the whole stream.
TEST(Trace, PiecewiseConsumeMatchesWhole) {
  const std::vector<TelemetryEvent> events = traced_run(small_cfg());
  for (std::size_t cap : {std::size_t{200'000}, std::size_t{50}}) {
    const FlightRecorder whole(events, cap);
    FlightRecorder pieces(cap);
    for (std::size_t i = 0; i < events.size(); i += 97) {
      const std::size_t end = std::min(events.size(), i + 97);
      pieces.consume(std::vector<TelemetryEvent>(
          events.begin() + static_cast<std::ptrdiff_t>(i),
          events.begin() + static_cast<std::ptrdiff_t>(end)));
    }
    EXPECT_EQ(pieces.records().size(), whole.records().size()) << cap;
    EXPECT_EQ(pieces.to_json(), whole.to_json()) << cap;
  }
}

// Pairing rules on a hand-built stream: a scrounger keeps its first source
// and its last injection, its intermediate hop is not a record, and a
// delivery whose injection precedes the stream is skipped.
TEST(Trace, PairsDeliveriesWithInjections) {
  auto ev = [](TelemetryEvent::Kind k, Cycle c, NodeId node,
               std::uint64_t msg) {
    TelemetryEvent e;
    e.kind = k;
    e.cycle = c;
    e.node = node;
    e.msg = msg;
    e.mtype = static_cast<std::int16_t>(MsgType::L2Reply);
    return e;
  };
  using K = TelemetryEvent::Kind;
  std::vector<TelemetryEvent> s;
  s.push_back(ev(K::Inject, 10, 2, 1));
  s.push_back(ev(K::Deliver, 15, 9, 7));  // injected before the stream
  s.push_back(ev(K::Deliver, 20, 5, 1));
  s.back().cat = ReplyCategory::ScroungeHop;
  s.push_back(ev(K::Inject, 22, 5, 1));
  s.push_back(ev(K::Deliver, 30, 7, 1));
  s.back().cat = ReplyCategory::Scrounged;
  s.back().created = 8;
  s.back().ack_elided = true;
  const FlightRecorder rec(s);
  ASSERT_EQ(rec.records().size(), 1u);
  const FlightRecorder::Record& r = rec.records()[0];
  EXPECT_EQ(r.id, 1u);
  EXPECT_EQ(r.type, MsgType::L2Reply);
  EXPECT_EQ(r.src, 2);
  EXPECT_EQ(r.dest, 7);
  EXPECT_EQ(r.created, 8u);
  EXPECT_EQ(r.injected, 22u);
  EXPECT_EQ(r.delivered, 30u);
  EXPECT_FALSE(r.on_circuit);
  EXPECT_TRUE(r.scrounged);
  EXPECT_TRUE(r.ack_elided);
}

TEST(Report, TableFormatting) {
  EXPECT_EQ(Table::pct(0.1234), "12.3%");
  EXPECT_EQ(Table::pct(-0.05, 2), "-5.00%");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(MessageHelpers, VnetClassification) {
  EXPECT_EQ(vnet_of(MsgType::GetS), VNet::Request);
  EXPECT_EQ(vnet_of(MsgType::Inv), VNet::Request);
  EXPECT_EQ(vnet_of(MsgType::MemWb), VNet::Request);
  EXPECT_EQ(vnet_of(MsgType::L2Reply), VNet::Reply);
  EXPECT_EQ(vnet_of(MsgType::MemAck), VNet::Reply);
  EXPECT_EQ(vnet_of(MsgType::L1ToL1), VNet::Reply);
}

TEST(MessageHelpers, CircuitEligibilityMatchesPaper) {
  // §4.1: circuits for L2_Replies, replacement acks and MEMORY replies.
  EXPECT_TRUE(reply_circuit_eligible(MsgType::L2Reply));
  EXPECT_TRUE(reply_circuit_eligible(MsgType::L2WbAck));
  EXPECT_TRUE(reply_circuit_eligible(MsgType::MemData));
  EXPECT_TRUE(reply_circuit_eligible(MsgType::MemAck));
  EXPECT_FALSE(reply_circuit_eligible(MsgType::L1DataAck));
  EXPECT_FALSE(reply_circuit_eligible(MsgType::L1InvAck));
  EXPECT_FALSE(reply_circuit_eligible(MsgType::L1ToL1));
  // ...built by the requests that trigger them.
  EXPECT_TRUE(request_builds_circuit(MsgType::GetS));
  EXPECT_TRUE(request_builds_circuit(MsgType::GetX));
  EXPECT_TRUE(request_builds_circuit(MsgType::WbData));
  EXPECT_TRUE(request_builds_circuit(MsgType::MemRead));
  EXPECT_TRUE(request_builds_circuit(MsgType::MemWb));
  EXPECT_FALSE(request_builds_circuit(MsgType::Inv));
  EXPECT_FALSE(request_builds_circuit(MsgType::FwdGetS));
  EXPECT_FALSE(request_builds_circuit(MsgType::FwdGetX));
}

TEST(Presets, NamesResolveAndDiffer) {
  for (const auto& name : preset_names()) {
    CircuitConfig c = circuit_preset(name);
    if (name == "Baseline") {
      EXPECT_FALSE(c.uses_circuits());
    } else {
      EXPECT_TRUE(c.uses_circuits()) << name;
    }
  }
  EXPECT_EQ(circuit_preset("Slack2_NoAck").slack_per_hop, 2);
  EXPECT_EQ(circuit_preset("Postponed1_NoAck").timed, TimedMode::Postponed);
  EXPECT_TRUE(circuit_preset("Ideal").no_ack);
  EXPECT_LT(circuit_preset("Ideal").circuits_per_input, 0);
}

TEST(Presets, DeeperPipelineSlowsRequests) {
  SystemConfig cfg = make_system_config(16, "Baseline", "fft", 3);
  cfg.noc.router_stages = 6;
  EXPECT_EQ(cfg.validate(), "");
  cfg.warmup_cycles = 1'000;
  cfg.measure_cycles = 4'000;
  RunResult deep = run_config(cfg, "deep");
  RunResult normal = run_one(16, "Baseline", "fft", 3, 1'000, 4'000);
  const auto* ld = deep.net.find_acc("lat_net_req");
  const auto* ln = normal.net.find_acc("lat_net_req");
  ASSERT_NE(ld, nullptr);
  ASSERT_NE(ln, nullptr);
  EXPECT_GT(ld->mean(), ln->mean() + 3.0);  // ~2 extra cycles per hop
}

}  // namespace
}  // namespace rc
