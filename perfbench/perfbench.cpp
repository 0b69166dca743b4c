// rc-perfbench: the repository benchmark.
//
// Runs one named workload as repeated sets of simulation runs for a fixed
// host-time budget, checks that every repeat reproduces the first one bit
// for bit, and prints every metric by name and unit. The last line of
// standard output is one JSON object with the keys "correct", "attempted",
// "failed" and "metrics". With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the sets alternate untraced and traced, spans are recorded
// around each call into the simulator's public API, and the metrics are the
// per-layer ones. perfbench/README.md describes workloads and metrics.
//
// Usage: rc-perfbench --workload <name> [--seed <n>] [--seconds <s>]
//                     [--trace 0|1] [--out-dir <dir>] [--commit <id>]
//                     [--source-digest <hex>] [--reference <file>]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "common/schedule.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"

using namespace rc;

namespace {

/// Fig. 9 of the paper: SlackDelay1_NoAck over Baseline at 64 cores,
/// averaged over all of its applications.
constexpr double kPaperFig9Speedup64 = 1.060;

/// Cycles per run_cycles call in the measured window of a traced set.
constexpr Cycle kChunk = 500;

const std::vector<std::string> kPresets = {"Baseline", "SlackDelay1_NoAck"};
const std::string kCircuitPreset = "SlackDelay1_NoAck";

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "rc-perfbench: %s (see --help)\n", msg.c_str());
  std::exit(2);
}

// ---- workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  int cores = 0;
  std::vector<std::string> apps;
  bool sharded = false;  ///< shards = min(4, host CPUs) instead of 1
  Cycle warmup = 0;
  Cycle measure = 0;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"cmp64_fig9", 64, {"fft", "canneal"}, false, 10'000, 60'000},
      {"cmp256_sharded", 256, {"fft"}, true, 10'000, 60'000},
  };
  return w;
}

int host_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

// ---- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int run = -1;  ///< simulation run the span belongs to (-1: a whole set)
};

/// In-memory span recorder; written out once when the benchmark ends. When
/// off, open() and close() do nothing.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  int open(const std::string& name, int run) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now_s() - t0_, 0,
                          stack_.empty() ? -1 : stack_.back(), run});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s() - t0_;
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  double t0_ = now_s();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const std::string& name, int run)
      : t_(t), id_(t.open(name, run)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Host seconds taken by f(), recorded as a span when tracing is on.
template <class F>
double timed(Tracer& tr, const char* name, int run, F&& f) {
  Scope s(tr, name, run);
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

// ---- one simulation run ----------------------------------------------------

struct RunOut {
  std::string label;  ///< "<app>/<preset>"
  std::string preset;
  int nodes = 0;
  Cycle measure = 0;
  int shards = 1;
  std::string tick_mode;
  double construct_s = 0;  ///< constructor
  double prewarm_s = 0;    ///< constructor return to the first cycle
  double warmup_s = 0;
  double measure_s = 0;
  double wall_s = 0;       ///< constructor entry to extracted result (teardown excluded)
  std::vector<double> chunk_ms;
  std::uint64_t work = 0;  ///< retired instructions
  StatSet net, sys;
  bool failed = false;
  std::string error;
};

void run_cmp(const Workload& w, const std::string& app, std::uint64_t seed,
             Tracer& tr, int run, bool chunked, RunOut& o) {
  SystemConfig cfg = make_system_config(w.cores, o.preset, app, seed);
  cfg.warmup_cycles = w.warmup;
  cfg.measure_cycles = w.measure;
  cfg.shards = o.shards;
  std::unique_ptr<System> sys;
  const double t0 = now_s();
  o.construct_s = timed(tr, "System::System", run,
                        [&] { sys = std::make_unique<System>(cfg); });
  o.prewarm_s = timed(tr, "System::prewarm", run, [&] { sys->prewarm(); });
  o.warmup_s = timed(tr, "System::run_cycles(warmup)", run,
                     [&] { sys->run_cycles(w.warmup); });
  timed(tr, "System::reset_stats", run, [&] { sys->reset_stats(); });
  for (Cycle done = 0; done < w.measure;) {
    const Cycle n = chunked ? std::min(kChunk, w.measure - done) : w.measure;
    const double d = timed(tr, "System::run_cycles(measure)", run,
                           [&] { sys->run_cycles(n); });
    if (chunked) o.chunk_ms.push_back(d * 1e3);
    o.measure_s += d;
    done += n;
  }
  RunResult r;
  timed(tr, "extract_result", run,
        [&] { r = extract_result(*sys, o.preset); });
  o.wall_s = now_s() - t0;
  o.shards = sys->shards();
  o.tick_mode = to_string(sys->tick_mode());
  timed(tr, "System::~System", run, [&] { sys.reset(); });
  o.work = r.retired;
  o.net = std::move(r.net);
  o.sys = std::move(r.sys);
}

struct RunKey {
  std::string app;
  std::string preset;
};

std::vector<RunKey> run_keys(const Workload& w) {
  std::vector<RunKey> keys;
  for (const std::string& app : w.apps)
    for (const std::string& p : kPresets) keys.push_back({app, p});
  return keys;
}

RunOut run_one(const Workload& w, const RunKey& k, std::uint64_t seed,
               int shards, Tracer& tr, int run, bool chunked) {
  RunOut o;
  o.label = k.app + "/" + k.preset;
  o.preset = k.preset;
  o.nodes = w.cores;
  o.measure = w.measure;
  o.shards = shards;
  Scope s(tr, "run " + o.label, run);
  try {
    run_cmp(w, k.app, seed, tr, run, chunked, o);
    if (o.work == 0) {
      o.failed = true;
      o.error = "retired no instructions";
    }
  } catch (const std::exception& e) {
    o.failed = true;
    o.error = e.what();
  }
  return o;
}

// ---- output check ----------------------------------------------------------

/// Every simulated counter, accumulator and histogram of a run, flattened to
/// (key, exact value) pairs in a fixed order.
using Fingerprint = std::vector<std::pair<std::string, std::string>>;

std::string hex_bits(double v) {
  char b[20];
  std::snprintf(b, sizeof b, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return b;
}

void add_stats(Fingerprint& fp, const std::string& prefix, const StatSet& s) {
  for (const auto& [k, v] : s.counters())
    fp.emplace_back(prefix + ".counter." + k, std::to_string(v));
  for (const auto& [k, a] : s.accumulators()) {
    const std::string p = prefix + ".acc." + k;
    fp.emplace_back(p + ".count", std::to_string(a.count()));
    fp.emplace_back(p + ".min", hex_bits(a.min()));
    fp.emplace_back(p + ".max", hex_bits(a.max()));
    fp.emplace_back(p + ".sum", hex_bits(a.sum()));
    fp.emplace_back(p + ".variance", hex_bits(a.variance()));
  }
  for (const auto& [k, h] : s.histograms()) {
    std::string b;
    for (int i = 0; i < Histogram::kBuckets; ++i)
      b += std::to_string(h.buckets()[i]) + ",";
    fp.emplace_back(prefix + ".hist." + k, b);
  }
}

Fingerprint fingerprint(const RunOut& o) {
  Fingerprint fp;
  fp.emplace_back("work", std::to_string(o.work));
  add_stats(fp, "net", o.net);
  add_stats(fp, "sys", o.sys);
  return fp;
}

/// Empty when equal, else the first differing key with both values.
std::string first_difference(const Fingerprint& ref, const Fingerprint& got) {
  const std::size_t n = std::min(ref.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (ref[i].first != got[i].first)
      return "key set differs at '" + ref[i].first + "' vs '" +
             got[i].first + "'";
    if (ref[i].second != got[i].second)
      return ref[i].first + ": " + ref[i].second + " vs " + got[i].second;
  }
  if (ref.size() != got.size())
    return "key '" +
           (ref.size() > n ? ref[n].first : got[n].first) +
           "' present in only one run";
  return "";
}

std::string digest(const Fingerprint& fp) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (const auto& [k, v] : fp)
    for (const std::string* s : {&k, &v})
      for (char c : *s + '\0') {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
  char b[20];
  std::snprintf(b, sizeof b, "%016llx", static_cast<unsigned long long>(h));
  return b;
}

/// Committed digests of known-good outputs: lines "<seed> <workload>
/// <label> <digest>"; blank lines and lines starting with '#' are skipped.
/// Maps "<seed> <workload> <label>" to the digest.
std::map<std::string, std::string> load_reference(const std::string& path) {
  std::map<std::string, std::string> ref;
  if (path.empty()) return ref;
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read reference file " + path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string seed, wl, label, d;
    if (!(in >> seed >> wl >> label >> d))
      throw std::runtime_error("malformed line in " + path + ": " + line);
    ref[seed + " " + wl + " " + label] = d;
  }
  return ref;
}

/// Reference fingerprints, one per run label, taken from the first
/// (untraced) set. Later runs must match them. The first run of a label must
/// also match its committed digest, when the reference file has one.
class OutputCheck {
 public:
  OutputCheck(std::map<std::string, std::string> committed, std::string key)
      : committed_(std::move(committed)), key_(std::move(key)) {}

  /// Marks `o` failed, naming the first difference in o.error, when it
  /// differs from the reference for its label; the first run of a label
  /// becomes its reference.
  void check(RunOut& o, const std::string& what) {
    if (o.failed) return;
    auto it = refs_.find(o.label);
    if (it == refs_.end()) {
      it = refs_.emplace(o.label, fingerprint(o)).first;
      const auto c = committed_.find(key_ + " " + o.label);
      if (c == committed_.end()) return;
      ++validated_;
      const std::string d = digest(it->second);
      if (d == c->second) return;
      o.failed = true;
      o.error = "digest " + d + " differs from the committed reference " +
                c->second + " (update reference_digests.txt only after an "
                "intended model change)";
      return;
    }
    const std::string diff = first_difference(it->second, fingerprint(o));
    if (diff.empty()) return;
    o.failed = true;
    o.error = what + " differs from the first run: " + diff;
  }
  std::map<std::string, std::string> digests() const {
    std::map<std::string, std::string> d;
    for (const auto& [label, fp] : refs_) d[label] = digest(fp);
    return d;
  }
  /// Labels compared against a committed digest.
  int validated() const { return validated_; }

 private:
  std::map<std::string, std::string> committed_;
  std::string key_;  ///< "<seed> <workload>"
  std::map<std::string, Fingerprint> refs_;
  int validated_ = 0;
};

// ---- sets and statistics ---------------------------------------------------

struct SetOut {
  std::vector<RunOut> runs;
  double wall_s = 0;
  double setup_s = 0;
  double construct_s = 0;
  double prewarm_s = 0;
  double warmup_s = 0;
  double measure_s = 0;
  double node_cycles = 0;  ///< sum over runs of nodes x measured cycles
  Cycle cycles = 0;        ///< measured cycles, summed over runs
};

SetOut run_set(const Workload& w, std::uint64_t seed, int shards, Tracer& tr,
               int& next_run, bool traced) {
  SetOut s;
  Scope span(tr, traced ? "set (traced)" : "set", -1);
  for (const RunKey& k : run_keys(w)) {
    RunOut o = run_one(w, k, seed, shards, tr, next_run++, traced);
    s.wall_s += o.wall_s;
    s.construct_s += o.construct_s;
    s.prewarm_s += o.prewarm_s;
    s.warmup_s += o.warmup_s;
    s.measure_s += o.measure_s;
    s.node_cycles += static_cast<double>(o.nodes) * o.measure;
    s.cycles += o.measure;
    s.runs.push_back(std::move(o));
  }
  s.setup_s = s.construct_s + s.prewarm_s;
  return s;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

template <class F>
std::vector<double> per_set(const std::vector<SetOut>& sets, F f) {
  std::vector<double> v;
  for (const SetOut& s : sets) v.push_back(f(s));
  return v;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::vector<double> samples;  ///< per-set values behind a host-time value
  std::string stat = "median";  ///< how `value` comes from `samples`
};

std::uint64_t sum_counter(const std::vector<RunOut>& runs, const char* k) {
  std::uint64_t n = 0;
  for (const RunOut& o : runs)
    n += o.net.counter_value(k) + o.sys.counter_value(k);
  return n;
}

/// Mean over the pooled samples of the named accumulators.
double pooled_mean(const std::vector<RunOut>& runs,
                   std::initializer_list<const char*> keys,
                   const std::string& preset = "") {
  double sum = 0;
  std::uint64_t n = 0;
  for (const RunOut& o : runs) {
    if (!preset.empty() && o.preset != preset) continue;
    for (const char* k : keys)
      if (const Accumulator* a = o.net.find_acc(k)) {
        sum += a->sum();
        n += a->count();
      }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Instructions retired per core per cycle of one run.
double work_rate(const RunOut& o) {
  return ratio(static_cast<double>(o.work),
               static_cast<double>(o.nodes) * static_cast<double>(o.measure));
}

std::vector<Metric> end_to_end(const std::vector<SetOut>& sets,
                               double peak_rss_mb) {
  const std::vector<RunOut>& runs = sets.front().runs;
  double ipc = 0, log_speedup = 0;
  int apps = 0;
  for (std::size_t i = 0; i + 1 < runs.size(); i += kPresets.size()) {
    const RunOut& base = runs[i];
    const RunOut& circ = runs[i + 1];
    ipc += work_rate(circ);
    log_speedup += std::log(ratio(work_rate(circ), work_rate(base)));
    ++apps;
  }
  // Fig. 6 "used": replies that rode a circuit over all replies, with the
  // eliminated ACKs in the denominator as reply_breakdown counts them.
  double used = 0, replies = 0;
  for (const RunOut& o : runs) {
    if (o.preset != kCircuitPreset) continue;
    RunResult r;
    r.net = o.net;
    r.sys = o.sys;
    used += static_cast<double>(o.net.counter_value("reply_used"));
    replies += static_cast<double>(reply_breakdown(r).total_replies);
  }

  std::vector<Metric> m;
  auto timing = [&](const char* name, const char* unit, auto f) {
    std::vector<double> v = per_set(sets, f);
    m.push_back(Metric{name, unit, median(v), v});
  };
  // Throughput and wall time pool every set of the run: the host's speed
  // drifts over tens of seconds, and a pooled value averages that drift
  // over the whole run, where a median of a few sets follows it.
  double cycles = 0, measure_s = 0, wall_s = 0;
  for (const SetOut& s : sets) {
    cycles += static_cast<double>(s.cycles);
    measure_s += s.measure_s;
    wall_s += s.wall_s;
  }
  m.push_back(Metric{"sim_cycles_per_s", "cycles/s", ratio(cycles, measure_s),
                     per_set(sets, [](const SetOut& s) {
                       return ratio(s.cycles, s.measure_s);
                     }),
                     "total"});
  m.push_back(Metric{"wall_s", "s", wall_s / static_cast<double>(sets.size()),
                     per_set(sets, [](const SetOut& s) { return s.wall_s; }),
                     "mean"});
  timing("setup_s", "s", [](const SetOut& s) { return s.setup_s; });
  m.push_back(Metric{"peak_rss_mb", "MB", peak_rss_mb, {}});
  m.push_back(Metric{"sim_ipc", "ops/cycle", ipc / apps, {}});
  m.push_back(Metric{"sim_speedup", "x", std::exp(log_speedup / apps), {}});
  m.push_back(Metric{"reply_latency_cycles", "cycles",
                     pooled_mean(runs, {"lat_net_rep_circ",
                                        "lat_net_rep_nocirc"},
                                 kCircuitPreset),
                     {}});
  m.push_back(Metric{"circuit_use_frac", "frac", ratio(used, replies), {}});
  return m;
}

struct ShardPair {
  int n = 1;            ///< the parallel shard count
  double t1 = 0;        ///< measured-window seconds at 1 shard
  double tn = 0;        ///< ... and at n shards
};

std::vector<Metric> per_layer(const std::vector<SetOut>& traced,
                              const std::vector<SetOut>& plain,
                              const ShardPair& pair) {
  const std::vector<RunOut>& runs = traced.front().runs;
  std::vector<double> chunks;
  for (const SetOut& s : traced)
    for (const RunOut& o : s.runs)
      chunks.insert(chunks.end(), o.chunk_ms.begin(), o.chunk_ms.end());
  const double measure_s =
      median(per_set(traced, [](const SetOut& s) { return s.measure_s; }));
  auto count = [&](const char* k) {
    return static_cast<double>(sum_counter(runs, k));
  };
  const double link_flit = count("link_flit");
  const double used = count("reply_used");
  const double attempted = used + count("reply_partial") +
                           count("reply_failed") + count("reply_undone");
  const double l1_miss = count("l1_read_miss") + count("l1_write_miss");
  const double l1_access =
      l1_miss + count("l1_read_hit") + count("l1_write_hit");
  double retired = 0, core_cycles = 0;
  for (const RunOut& o : runs) {
    retired += static_cast<double>(o.work);
    core_cycles += static_cast<double>(o.nodes) * o.measure;
  }

  std::vector<Metric> m;
  auto timing = [&](const char* name, const char* unit, auto f) {
    std::vector<double> v = per_set(traced, f);
    m.push_back(Metric{name, unit, median(v), v});
  };
  auto value = [&](const char* name, const char* unit, double v) {
    m.push_back(Metric{name, unit, v, {}});
  };
  timing("sim.construct_s", "s", [](const SetOut& s) { return s.construct_s; });
  timing("sim.prewarm_s", "s", [](const SetOut& s) { return s.prewarm_s; });
  timing("sim.warmup_s", "s", [](const SetOut& s) { return s.warmup_s; });
  timing("sim.measure_s", "s", [](const SetOut& s) { return s.measure_s; });
  value("sim.chunk_ms_p50", "ms", quantile(chunks, 0.50));
  value("sim.chunk_ms_p99", "ms", quantile(chunks, 0.99));
  timing("sim.host_ns_per_node_cycle", "ns", [](const SetOut& s) {
    return ratio(s.measure_s * 1e9, s.node_cycles);
  });
  value("common.shard_speedup", "x", ratio(pair.t1, pair.tn));
  value("common.shard_efficiency", "frac", ratio(pair.t1, pair.tn) / pair.n);
  value("noc.flit_hops", "count", link_flit);
  value("noc.va_ops", "count", count("va_ops"));
  value("noc.sa_ops", "count", count("sa_ops"));
  value("noc.buf_writes", "count", count("buf_write"));
  value("noc.host_ns_per_flit_hop", "ns", ratio(measure_s * 1e9, link_flit));
  value("noc.reply_queue_cycles", "cycles",
        pooled_mean(runs, {"lat_q_rep_circ", "lat_q_rep_nocirc"}));
  value("circuits.reservations", "count", count("circ_reservations"));
  value("circuits.conflict_fails", "count", count("circ_fail_conflict"));
  value("circuits.undone", "count", count("reply_undone"));
  value("circuits.used", "count", used);
  value("circuits.yield", "frac", ratio(used, attempted));
  value("circuits.setup_latency_cycles", "cycles",
        pooled_mean(runs, {"lat_circuit_setup"}));
  value("coherence.l1_miss_rate", "frac", ratio(l1_miss, l1_access));
  value("coherence.l2_misses", "count", count("l2_misses"));
  value("coherence.l2_req_blocked", "count", count("l2_req_blocked"));
  value("coherence.invalidations", "count", count("l2_invs_sent"));
  value("coherence.acks_eliminated", "count", count("replies_eliminated"));
  value("cpu.retired", "count", retired);
  value("cpu.stall_frac", "frac",
        ratio(count("core_stall_cycles"), core_cycles));
  value("memory.reads", "count", count("mem_reads"));
  const double traced_wall =
      median(per_set(traced, [](const SetOut& s) { return s.wall_s; }));
  const double plain_wall =
      median(per_set(plain, [](const SetOut& s) { return s.wall_s; }));
  value("trace.overhead_s", "s", traced_wall - plain_wall);
  return m;
}

// ---- reporting -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 60;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string reference;  ///< committed digests; empty: none
};

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char b[8];
      std::snprintf(b, sizeof b, "\\u%04x", c);
      o += b;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char b[40];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

std::string utc_now() {
  char b[32] = "unknown";
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  if (gmtime_r(&t, &tm) != nullptr)
    std::strftime(b, sizeof b, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return b;
}

/// Provenance stamped into every artifact, as a JSON object.
std::string provenance(const Options& opt, const Workload& w, int shards,
                       const std::string& tick_mode, double load1) {
  std::string apps;
  for (const std::string& a : w.apps) apps += (apps.empty() ? "" : ",") + a;
  std::string presets;
  for (const std::string& p : kPresets)
    presets += (presets.empty() ? "" : ",") + p;
  std::string j = "{";
  auto kv = [&](const char* k, const std::string& v, bool last = false) {
    j += json_str(k) + ": " + v + (last ? "" : ", ");
  };
  kv("date_utc", json_str(utc_now()));
  kv("commit", json_str(opt.commit));
  kv("source_digest", json_str(opt.source_digest));
  kv("build_type", json_str(PB_BUILD_TYPE));
  kv("cxx_flags", json_str(PB_CXX_FLAGS));
  kv("compiler", json_str(PB_COMPILER));
  kv("nproc", std::to_string(host_cpus()));
  kv("loadavg_1min_at_start", json_num(load1));
  kv("workload", json_str(w.name));
  kv("seed", std::to_string(opt.seed));
  kv("seconds", json_num(opt.seconds));
  kv("trace", opt.trace ? "true" : "false");
  kv("shards", std::to_string(shards));
  kv("tick_mode", json_str(tick_mode));
  kv("cores", std::to_string(w.cores));
  kv("apps", json_str(apps));
  kv("presets", json_str(presets));
  kv("warmup_cycles", std::to_string(w.warmup));
  kv("measure_cycles", std::to_string(w.measure));
  kv("traced_chunk_cycles", std::to_string(kChunk), true);
  return j + "}";
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_samples) {
  std::string j = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    j += (i ? ", " : "") + json_str(m.name) + ": {\"value\": " +
         json_num(m.value) + ", \"unit\": " + json_str(m.unit);
    if (with_samples && !m.samples.empty()) {
      j += ", \"stat\": " + json_str(m.stat) + ", \"q1\": " + json_num(quantile(m.samples, 0.25)) +
           ", \"q3\": " + json_num(quantile(m.samples, 0.75)) +
           ", \"samples\": [";
      for (std::size_t k = 0; k < m.samples.size(); ++k)
        j += (k ? ", " : "") + json_num(m.samples[k]);
      j += "]";
    }
    j += "}";
  }
  return j + "}";
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    if (m.samples.empty()) {
      std::printf("  %-30s %16.6g %-9s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    } else {
      std::printf("  %-30s %16.6g %-9s %s of %zu sets, IQR [%.6g, %.6g]\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.stat.c_str(),
                  m.samples.size(),
                  quantile(m.samples, 0.25), quantile(m.samples, 0.75));
    }
  }
}

struct SelfTime {
  std::string name;
  int calls = 0;
  double total_s = 0;
  double self_s = 0;
};

/// Per span name: calls, total time, and self time (duration minus the time
/// covered by child spans).
std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, SelfTime> by;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& key = spans[i].name.rfind("run ", 0) == 0
                                 ? std::string("run")
                                 : spans[i].name;
    SelfTime& t = by[key];
    t.name = key;
    ++t.calls;
    t.total_s += spans[i].end - spans[i].start;
    t.self_s += spans[i].end - spans[i].start - child[i];
  }
  std::vector<SelfTime> out;
  for (auto& [k, v] : by) out.push_back(v);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

/// The layer a span's self time belongs to: the benchmark's own code for
/// set/run spans, else the simulator module behind the API call.
const char* layer_of(const std::string& name) {
  if (name == "set" || name == "set (traced)" || name == "run") return "bench";
  return "sim";
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << body;
  f.close();
  if (!f) std::fprintf(stderr, "rc-perfbench: cannot write %s\n", path.c_str());
}

/// Prints the self-time table and writes it, with every span, to `path`.
void write_spans(const std::string& path, const std::string& prov,
                 const std::vector<Span>& spans) {
  std::printf("self time per span (traced sets and the shard-count run):\n");
  std::printf("  %-6s %-36s %7s %11s %11s\n", "layer", "span", "calls",
              "total_s", "self_s");
  std::string table = "[";
  for (const SelfTime& t : self_times(spans)) {
    std::printf("  %-6s %-36s %7d %11.6f %11.6f\n", layer_of(t.name),
                t.name.c_str(), t.calls, t.total_s, t.self_s);
    table += std::string(table.size() > 1 ? ",\n  " : "\n  ") +
             "{\"layer\": " + json_str(layer_of(t.name)) +
             ", \"span\": " + json_str(t.name) +
             ", \"calls\": " + std::to_string(t.calls) +
             ", \"total_s\": " + json_num(t.total_s) +
             ", \"self_s\": " + json_num(t.self_s) + "}";
  }
  table += "]";
  std::string list = "[";
  for (std::size_t i = 0; i < spans.size(); ++i)
    list += std::string(i ? ",\n  " : "\n  ") + "{\"id\": " +
            std::to_string(i) + ", \"name\": " + json_str(spans[i].name) +
            ", \"start_s\": " + json_num(spans[i].start) +
            ", \"end_s\": " + json_num(spans[i].end) +
            ", \"parent\": " + std::to_string(spans[i].parent) +
            ", \"run\": " + std::to_string(spans[i].run) + "}";
  list += "]";
  write_file(path, "{\"provenance\": " + prov + ",\n \"self_time\": " +
                       table + ",\n \"spans\": " + list + "}\n");
}

// ---- command line ----------------------------------------------------------

const char* kHelp =
    "usage: rc-perfbench --workload <name> [--seed <n>] [--seconds <s>]\n"
    "                    [--trace 0|1] [--out-dir <dir>] [--commit <id>]\n"
    "                    [--source-digest <hex>] [--reference <file>]\n"
    "\n"
    "Runs one benchmark workload as repeated sets of simulation runs for\n"
    "--seconds of host time (default 60), checks every repeat against the\n"
    "first bit for bit, and prints every metric by name and unit. The last\n"
    "stdout line is a JSON object {correct, attempted, failed, metrics}.\n"
    "--trace 1 alternates untraced and traced sets and reports the per-layer\n"
    "metrics; spans go to <out-dir>/<workload>.seed<n>.spans.json.\n"
    "--reference names a file of committed output digests (lines\n"
    "\"<seed> <workload> <label> <digest>\"); a run whose seed and label it\n"
    "lists must match it.\n"
    "\n"
    "workloads:\n"
    "  cmp64_fig9        64-core CMP, fft + canneal, Baseline vs SlackDelay1_NoAck\n"
    "  cmp256_sharded    256-core CMP, fft, shards = min(4, host CPUs)\n";

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      std::fputs(kHelp, stdout);
      std::exit(0);
    }
    if (i + 1 >= argc) usage_error("missing value for '" + a + "'");
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      const auto n = parse_ll(v.c_str());
      if (!n || *n < 0) usage_error("bad --seed '" + v + "' (want an integer >= 0)");
      o.seed = static_cast<std::uint64_t>(*n);
    } else if (a == "--seconds") {
      const auto n = parse_ll(v.c_str());
      if (!n || *n < 1 || *n > 3600)
        usage_error("bad --seconds '" + v + "' (want an integer in 1..3600)");
      o.seconds = static_cast<double>(*n);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage_error("bad --trace '" + v + "' (want 0 or 1)");
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else if (a == "--commit") {
      o.commit = v;
    } else if (a == "--source-digest") {
      o.source_digest = v;
    } else if (a == "--reference") {
      o.reference = v;
    } else {
      usage_error("unknown option '" + a + "'");
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  return o;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  std::string names;
  for (const Workload& w : workloads()) names += " " + w.name;
  usage_error("unknown workload '" + name + "' (known:" + names + ")");
}

int run_benchmark(const Options& opt) {
  const Workload& w = find_workload(opt.workload);
  double load[1] = {-1};
  getloadavg(load, 1);
  const int par = std::min(4, host_cpus());
  const int shards = w.sharded ? par : 1;

  Tracer tracer;
  OutputCheck check(load_reference(opt.reference),
                    std::to_string(opt.seed) + " " + w.name);
  std::vector<SetOut> plain, traced;
  int next_run = 0;
  int attempted = 0, failed = 0;
  auto account = [&](RunOut& o, const std::string& what) {
    check.check(o, what);
    ++attempted;
    if (o.failed) {
      ++failed;
      std::fprintf(stderr, "rc-perfbench: run %s failed: %s\n",
                   o.label.c_str(), o.error.c_str());
    }
  };

  // Start another round only if one more, as long as the longest so far,
  // still ends within --seconds: a run then lasts about --seconds and never
  // overshoots it by a whole round.
  const double t_start = now_s();
  double longest_round = 0;
  for (;;) {
    const double t_round = now_s();
    tracer.enable(false);
    plain.push_back(run_set(w, opt.seed, shards, tracer, next_run, false));
    for (RunOut& o : plain.back().runs) account(o, "repeat");
    if (opt.trace) {
      tracer.enable(true);
      traced.push_back(run_set(w, opt.seed, shards, tracer, next_run, true));
      // Chunked measurement must equal the single call.
      for (RunOut& o : traced.back().runs) account(o, "chunked run");
    }
    std::fprintf(stderr, "rc-perfbench: %s set %zu done at %.1f s\n",
                 w.name.c_str(), plain.size(), now_s() - t_start);
    longest_round = std::max(longest_round, now_s() - t_round);
    if (failed > 0 || now_s() - t_start + longest_round > opt.seconds) break;
  }

  // Shard check: the first circuit run again at the other shard count must
  // reproduce the reference exactly; its measured window gives the shard
  // speedup.
  ShardPair pair;
  pair.n = par;
  if (opt.trace && failed == 0) {
    const RunKey key = run_keys(w)[1];
    const int other = shards == 1 ? par : 1;
    tracer.enable(true);
    RunOut o = run_one(w, key, opt.seed, other, tracer, next_run++, false);
    account(o, "run at " + std::to_string(other) + " shard(s)");
    std::vector<double> own;
    for (const SetOut& s : plain) own.push_back(s.runs[1].measure_s);
    (shards == 1 ? pair.t1 : pair.tn) = median(own);
    (shards == 1 ? pair.tn : pair.t1) = o.measure_s;
  }

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const RunOut& first = plain.front().runs.front();
  const std::string prov =
      provenance(opt, w, first.shards, first.tick_mode, load[0]);

  std::vector<Metric> metrics;
  if (failed == 0)
    metrics = opt.trace ? per_layer(traced, plain, pair)
                        : end_to_end(plain, peak_rss_mb);
  bool correct = failed == 0;
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value)) correct = false;

  // Human-readable report.
  std::printf("rc-perfbench %s seed %llu%s: %zu set(s), %d run(s), %d failed\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? " (traced)" : "", plain.size() + traced.size(),
              attempted, failed);
  std::printf("provenance: %s\n", prov.c_str());
  print_metrics(metrics);
  if (!opt.trace && failed == 0) {
    if (w.name == "cmp64_fig9") {
      const double s = std::find_if(metrics.begin(), metrics.end(),
                                    [](const Metric& m) {
                                      return m.name == "sim_speedup";
                                    })->value;
      std::printf(
          "paper reference: sim_speedup %.4f vs Fig. 9 %.3f (64 cores, all "
          "applications): difference %+.4f. The app set differs (here fft "
          "and canneal only).\n",
          s, kPaperFig9Speedup64, s - kPaperFig9Speedup64);
    }
    std::printf(
        "paper reference: only sim_speedup on cmp64_fig9 has one (Fig. 9); "
        "every other output is unvalidated against the paper.\n");
  }
  const std::map<std::string, std::string> run_digests = check.digests();
  if (check.validated() == 0)
    std::printf("output reference: no committed digest for seed %llu; "
                "outputs are checked for reproducibility only "
                "(unvalidated)\n",
                static_cast<unsigned long long>(opt.seed));
  else
    std::printf("output reference: %d of %zu run labels compared with the "
                "committed digests in %s\n",
                check.validated(), run_digests.size(), opt.reference.c_str());
  for (const auto& [label, d] : run_digests)
    std::printf("digest %llu %s %s %s\n",
                static_cast<unsigned long long>(opt.seed), w.name.c_str(),
                label.c_str(), d.c_str());

  // Artifacts, written once at the end.
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string stem = opt.out_dir + "/" + w.name + ".seed" +
                           std::to_string(opt.seed);
  std::string digests = "{";
  for (const auto& [label, d] : run_digests)
    digests += (digests.size() > 1 ? ", " : "") + json_str(label) + ": " +
               json_str(d);
  digests += "}";
  write_file(stem + (opt.trace ? ".trace1" : ".trace0") + ".json",
             "{\"provenance\": " + prov + ",\n \"correct\": " +
                 (correct ? "true" : "false") + ", \"attempted\": " +
                 std::to_string(attempted) + ", \"failed\": " +
                 std::to_string(failed) + ",\n \"digests\": " + digests +
                 ",\n \"metrics\": " + metrics_json(metrics, true) + "}\n");

  if (opt.trace) write_spans(stem + ".spans.json", prov, tracer.spans());

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(metrics, false).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return run_benchmark(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rc-perfbench: %s\n", e.what());
    return 1;
  }
}
