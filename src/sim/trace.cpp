#include "sim/trace.hpp"

#include <sstream>
#include <unordered_map>

#include "common/atomic_file.hpp"

namespace rc {

FlightRecorder::FlightRecorder(const std::vector<TelemetryEvent>& events,
                               std::size_t max_records) {
  if (max_records == 0) return;
  // Source node (first injection) and latest injection cycle of every
  // message still in flight; a scrounger is re-injected at its
  // intermediate hop, so its network slice starts at the onward leg.
  struct Flight {
    NodeId src;
    Cycle injected;
  };
  std::unordered_map<std::uint64_t, Flight> flights;
  for (const TelemetryEvent& ev : events) {
    if (ev.kind == TelemetryEvent::Kind::Inject) {
      auto [it, fresh] = flights.try_emplace(ev.msg, Flight{ev.node, ev.cycle});
      if (!fresh) it->second.injected = ev.cycle;
      continue;
    }
    if (ev.kind != TelemetryEvent::Kind::Deliver ||
        ev.cat == ReplyCategory::ScroungeHop)
      continue;
    const auto it = flights.find(ev.msg);
    if (it == flights.end()) continue;
    RC_ASSERT(ev.mtype >= 0,
              "FlightRecorder needs a stream with message types "
              "(Telemetry::enable_msg_types)");
    records_.push_back({ev.msg, static_cast<MsgType>(ev.mtype),
                        it->second.src, ev.node, ev.created,
                        it->second.injected, ev.cycle, ev.on_circuit,
                        ev.cat == ReplyCategory::Scrounged, ev.ack_elided});
    flights.erase(it);
  }
  if (records_.size() > max_records)
    records_.erase(records_.begin(),
                   records_.end() - static_cast<std::ptrdiff_t>(max_records));
}

std::string FlightRecorder::to_json() const {
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  for (const Record& r : records_) {
    if (!first) os << ",\n";
    first = false;
    // Queueing slice (created -> injected) then network slice
    // (injected -> delivered), both on the source node's track.
    const int pid = vnet_of(r.type) == VNet::Request ? 0 : 1;
    if (r.injected > r.created) {
      os << R"({"name":"queue )" << to_string(r.type) << R"(","ph":"X","ts":)"
         << r.created << R"(,"dur":)" << (r.injected - r.created)
         << R"(,"pid":)" << pid << R"(,"tid":)" << r.src
         << R"(,"args":{"id":)" << r.id << "}},\n";
    }
    os << R"({"name":")" << to_string(r.type) << R"(","ph":"X","ts":)"
       << r.injected << R"(,"dur":)"
       << (r.delivered > r.injected ? r.delivered - r.injected : 1)
       << R"(,"pid":)" << pid << R"(,"tid":)" << r.src << R"(,"args":{"id":)"
       << r.id << R"(,"dest":)" << r.dest << R"(,"circuit":)"
       << (r.on_circuit ? "true" : "false") << R"(,"scrounged":)"
       << (r.scrounged ? "true" : "false") << R"(,"ack_elided":)"
       << (r.ack_elided ? "true" : "false") << "}}";
  }
  os << "\n]\n";
  return os.str();
}

bool FlightRecorder::write(const std::string& path, std::string* err) const {
  return write_file_atomic(path, to_json(), err);
}

}  // namespace rc
