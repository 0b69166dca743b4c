#include "sim/trace.hpp"

#include <cstdio>

#include "common/atomic_file.hpp"

namespace rc {

void FlightRecorder::consume(const std::vector<TelemetryEvent>& events) {
  if (max_records_ == 0) return;
  for (const TelemetryEvent& ev : events) {
    if (ev.kind == TelemetryEvent::Kind::Inject) {
      auto [it, fresh] =
          flights_.try_emplace(ev.msg, Flight{ev.node, ev.cycle});
      if (!fresh) it->second.injected = ev.cycle;
      continue;
    }
    if (ev.kind != TelemetryEvent::Kind::Deliver ||
        ev.cat == ReplyCategory::ScroungeHop)
      continue;
    const auto it = flights_.find(ev.msg);
    if (it == flights_.end()) continue;
    RC_ASSERT(ev.mtype >= 0,
              "FlightRecorder needs a stream with message types "
              "(Telemetry::enable_msg_types)");
    if (records_.size() == max_records_) records_.pop_front();
    records_.push_back({ev.msg, ev.created, it->second.injected, ev.cycle,
                        it->second.src, ev.node,
                        static_cast<MsgType>(ev.mtype), ev.on_circuit,
                        ev.cat == ReplyCategory::Scrounged, ev.ack_elided});
    flights_.erase(it);
  }
}

namespace {

/// One record's trace events, without separators: a queueing slice
/// (created -> injected) when the message waited, then the network slice
/// (injected -> delivered), both on the source node's track.
void append_record(std::string* out, const FlightRecorder::Record& r) {
  using std::to_string;
  const std::string pid = vnet_of(r.type) == VNet::Request ? "0" : "1";
  const std::string tid = to_string(r.src);
  if (r.injected > r.created) {
    *out += R"({"name":"queue )";
    *out += rc::to_string(r.type);
    *out += R"(","ph":"X","ts":)" + to_string(r.created) + R"(,"dur":)" +
            to_string(r.injected - r.created) + R"(,"pid":)" + pid +
            R"(,"tid":)" + tid + R"(,"args":{"id":)" + to_string(r.id) +
            "}},\n";
  }
  *out += R"({"name":")";
  *out += rc::to_string(r.type);
  *out += R"(","ph":"X","ts":)" + to_string(r.injected) + R"(,"dur":)" +
          to_string(r.delivered > r.injected ? r.delivered - r.injected : 1) +
          R"(,"pid":)" + pid + R"(,"tid":)" + tid + R"(,"args":{"id":)" +
          to_string(r.id) + R"(,"dest":)" + to_string(r.dest) +
          R"(,"circuit":)" + (r.on_circuit ? "true" : "false") +
          R"(,"scrounged":)" + (r.scrounged ? "true" : "false") +
          R"(,"ack_elided":)" + (r.ack_elided ? "true" : "false") + "}}";
}

}  // namespace

std::string FlightRecorder::to_json() const {
  std::string out = "[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (i > 0) out += ",\n";
    append_record(&out, records_[i]);
  }
  out += "\n]\n";
  return out;
}

bool FlightRecorder::write(const std::string& path, std::string* err) const {
  AtomicFile out(path);
  if (!out.stream()) return out.commit(err);
  std::fputs("[\n", out.stream());
  std::string buf;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    buf.clear();
    if (i > 0) buf += ",\n";
    append_record(&buf, records_[i]);
    std::fwrite(buf.data(), 1, buf.size(), out.stream());
  }
  std::fputs("\n]\n", out.stream());
  return out.commit(err);
}

}  // namespace rc
