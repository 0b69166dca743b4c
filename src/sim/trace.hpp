// Flight recorder: exports every network message's lifetime as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto). One track
// (tid) per source node, one process (pid) per virtual network, so
// request/reply flows line up visually; circuit rides are tagged.
//
// It has no hook of its own: it reads a Telemetry event stream
// (sim/telemetry.hpp), pairing each Deliver with the Inject(s) of the same
// message. Telemetry drains its per-node buffers in node order, so the
// export is byte-identical at every shard count and in every tick mode.
// Only messages that crossed the fabric appear: same-tile messages never
// reach an observer, and a scrounger's intermediate hop is folded into its
// final delivery. A delivery injected before the stream began (a resumed
// run) has no source to draw and is skipped.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "noc/message.hpp"
#include "sim/telemetry.hpp"

namespace rc {

class FlightRecorder {
 public:
  struct Record {
    std::uint64_t id;
    MsgType type;
    NodeId src, dest;
    Cycle created, injected, delivered;
    bool on_circuit, scrounged, ack_elided;
  };

  /// Collect the message records of `events`, in delivery order. The
  /// stream must tag Inject/Deliver events with their MsgType
  /// (Telemetry::enable_msg_types). Like a hardware flight recorder only
  /// the newest `max_records` are kept, so the trace always ends at the end
  /// of the run; `max_records == 0` keeps none.
  explicit FlightRecorder(const std::vector<TelemetryEvent>& events,
                          std::size_t max_records = 200'000);

  const std::vector<Record>& records() const { return records_; }

  /// Serialize as Chrome trace-event JSON.
  std::string to_json() const;
  /// Write to `path` atomically (common/atomic_file.hpp); returns false
  /// with a reason in *err on I/O failure, leaving `path` untouched.
  bool write(const std::string& path, std::string* err) const;

 private:
  std::vector<Record> records_;
};

}  // namespace rc
