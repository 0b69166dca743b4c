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
//
// The stream can be fed in pieces (consume() between run_cycles blocks),
// after which the producer may drop what was read: the recorder keeps only
// the injections still in flight and its ring of newest records, so a
// long traced run holds a bounded amount of memory.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "noc/message.hpp"
#include "sim/telemetry.hpp"

namespace rc {

class FlightRecorder {
 public:
  struct Record {
    std::uint64_t id;
    Cycle created, injected, delivered;
    NodeId src, dest;
    MsgType type;
    bool on_circuit, scrounged, ack_elided;
  };

  /// Like a hardware flight recorder only the newest `max_records` are
  /// kept, so the trace always ends at the end of the run;
  /// `max_records == 0` keeps none.
  explicit FlightRecorder(std::size_t max_records = 200'000)
      : max_records_(max_records) {}
  /// A recorder that has consumed all of `events`.
  explicit FlightRecorder(const std::vector<TelemetryEvent>& events,
                          std::size_t max_records = 200'000)
      : FlightRecorder(max_records) {
    consume(events);
  }

  /// Collect the message records of the next piece of the stream, in
  /// delivery order. The stream must tag Inject/Deliver events with their
  /// MsgType (Telemetry::enable_msg_types). Pieces must arrive in stream
  /// order; consuming the stream piecewise records exactly what consuming
  /// it whole would.
  void consume(const std::vector<TelemetryEvent>& events);

  const std::deque<Record>& records() const { return records_; }

  /// Serialize as Chrome trace-event JSON.
  std::string to_json() const;
  /// Write to `path` atomically (common/atomic_file.hpp), one record at a
  /// time; returns false with a reason in *err on I/O failure, leaving
  /// `path` untouched.
  bool write(const std::string& path, std::string* err) const;

 private:
  /// Source node (first injection) and latest injection cycle of a message
  /// still in flight; a scrounger is re-injected at its intermediate hop,
  /// so its network slice starts at the onward leg.
  struct Flight {
    NodeId src;
    Cycle injected;
  };

  std::size_t max_records_;
  std::unordered_map<std::uint64_t, Flight> flights_;
  std::deque<Record> records_;
};

}  // namespace rc
