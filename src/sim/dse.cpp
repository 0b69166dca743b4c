#include "sim/dse.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/config.hpp"
#include "common/parse.hpp"
#include "common/state.hpp"
#include "cpu/apps.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"

namespace rc {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool set_err(std::string* err, const std::string& msg) {
  if (err) *err = msg;
  return false;
}

/// mkdir -p: create every missing component. Racing creators are fine
/// (EEXIST is success); anything else is a real failure.
bool ensure_dir(const std::string& path) {
  std::string cur;
  std::size_t i = 0;
  while (i < path.size()) {
    std::size_t j = path.find('/', i);
    if (j == std::string::npos) j = path.size();
    cur.append(path, i, j - i);
    if (!cur.empty() && cur != "." && cur != "..") {
      if (::mkdir(cur.c_str(), 0777) != 0 && errno != EEXIST) return false;
    }
    if (j < path.size()) cur.push_back('/');
    i = j + 1;
  }
  return true;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  out->clear();
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

// ---- axes -----------------------------------------------------------------

struct AxisDef {
  const char* name;
  bool is_string;
};

/// Canonical expansion order: outermost first, cycles innermost (fastest).
/// warmup and cycles are full axes (lists allowed) — a cycles axis is the
/// natural shape of a warm-start sweep, where every point repeats one
/// warm-up and only the measurement length varies.
constexpr AxisDef kAxes[] = {
    {"mesh", true},         {"topology", true}, {"mc_placement", true},
    {"preset", true},       {"app", true},      {"protocol", true},
    {"dir_pointers", false}, {"dir_sets", false}, {"dir_ways", false},
    {"circuits", false},    {"slack", false},   {"buf_depth", false},
    {"vcs_req", false},     {"vcs_rep", false}, {"shards", false},
    {"seed", false},        {"warmup", false},  {"cycles", false},
};

std::string* string_axis(SweepPoint* p, const std::string& name) {
  if (name == "mesh") return &p->mesh;
  if (name == "topology") return &p->topology;
  if (name == "mc_placement") return &p->mc_placement;
  if (name == "preset") return &p->preset;
  if (name == "app") return &p->app;
  if (name == "protocol") return &p->protocol;
  return nullptr;
}

int* int_axis(SweepPoint* p, const std::string& name) {
  if (name == "dir_pointers") return &p->dir_pointers;
  if (name == "dir_sets") return &p->dir_sets;
  if (name == "dir_ways") return &p->dir_ways;
  if (name == "circuits") return &p->circuits;
  if (name == "slack") return &p->slack;
  if (name == "buf_depth") return &p->buf_depth;
  if (name == "vcs_req") return &p->vcs_req;
  if (name == "vcs_rep") return &p->vcs_rep;
  if (name == "shards") return &p->shards;
  return nullptr;
}

/// Apply one axis value (or per-point warmup/cycles/seed) to `p`.
bool set_axis(SweepPoint* p, const std::string& name, const Json& v,
              std::string* err) {
  if (std::string* s = string_axis(p, name)) {
    if (v.type != Json::Type::Str)
      return set_err(err, "axis '" + name + "' takes string values");
    *s = v.s;
    return true;
  }
  if (name == "seed" || name == "warmup" || name == "cycles") {
    if (v.type != Json::Type::Int || v.i < 0)
      return set_err(err, "'" + name + "' takes non-negative integers");
    if (name == "seed")
      p->seed = static_cast<std::uint64_t>(v.i);
    else if (name == "warmup")
      p->warmup = static_cast<Cycle>(v.i);
    else
      p->cycles = static_cast<Cycle>(v.i);
    return true;
  }
  if (int* f = int_axis(p, name)) {
    if (v.type != Json::Type::Int)
      return set_err(err, "axis '" + name + "' takes integer values");
    *f = static_cast<int>(v.i);
    return true;
  }
  return set_err(err, "unknown key '" + name + "'");
}

/// Does the point carry this value on this axis? (exclude matching)
bool axis_equals(const SweepPoint& p, const std::string& name, const Json& v,
                 bool* known) {
  SweepPoint copy = p;  // reuse the field lookups, read-only
  *known = true;
  if (const std::string* s = string_axis(&copy, name))
    return v.type == Json::Type::Str && *s == v.s;
  if (name == "seed")
    return v.type == Json::Type::Int &&
           static_cast<std::uint64_t>(v.i) == p.seed;
  if (name == "warmup")
    return v.type == Json::Type::Int &&
           static_cast<Cycle>(v.i) == p.warmup;
  if (name == "cycles")
    return v.type == Json::Type::Int &&
           static_cast<Cycle>(v.i) == p.cycles;
  if (const int* f = int_axis(&copy, name))
    return v.type == Json::Type::Int && static_cast<long long>(*f) == v.i;
  *known = false;
  return false;
}

bool parse_mesh(const std::string& mesh, int* w, int* h) {
  char extra = 0;
  return std::sscanf(mesh.c_str(), "%dx%d%c", w, h, &extra) == 2 && *w >= 1 &&
         *h >= 1;
}

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// Fail fast at spec time: a typo'd preset must be an expansion error, not
/// a thousand identical subprocess failures.
bool validate_point(const SweepPoint& p, std::string* err) {
  int w = 0, h = 0;
  if (!parse_mesh(p.mesh, &w, &h))
    return set_err(err, "bad mesh '" + p.mesh + "' (expected WxH)");
  TopologyKind tk;
  if (!topology_from_string(p.topology, &tk))
    return set_err(err, "unknown topology '" + p.topology + "'");
  McPlacement mp;
  if (!mc_placement_from_string(p.mc_placement, &mp))
    return set_err(err, "unknown mc_placement '" + p.mc_placement + "'");
  Protocol proto;
  if (!protocol_from_string(p.protocol, &proto))
    return set_err(err, "unknown protocol '" + p.protocol + "'");
  if (!contains(preset_names(), p.preset))
    return set_err(err, "unknown preset '" + p.preset + "'");
  if (!contains(app_names(), p.app))
    return set_err(err, "unknown app '" + p.app + "'");
  if (p.cycles < 1) return set_err(err, "cycles must be >= 1");
  auto ge = [&](int v, int min_v, const char* name) {
    if (v != -1 && v < min_v)
      return set_err(err, std::string(name) + " must be -1 (default) or >= " +
                              std::to_string(min_v));
    return true;
  };
  return ge(p.circuits, 0, "circuits") && ge(p.slack, 0, "slack") &&
         ge(p.buf_depth, 1, "buf_depth") && ge(p.vcs_req, 1, "vcs_req") &&
         ge(p.vcs_rep, 1, "vcs_rep") && ge(p.dir_pointers, 1, "dir_pointers") &&
         ge(p.dir_sets, 1, "dir_sets") && ge(p.dir_ways, 1, "dir_ways") &&
         ge(p.shards, 1, "shards");
}

}  // namespace

std::string point_key(const SweepPoint& p) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "mesh=%s topo=%s mc=%s preset=%s app=%s proto=%s dirp=%d dirs=%d "
      "dirw=%d circ=%d slack=%d depth=%d vcsq=%d vcsr=%d shards=%d "
      "seed=%llu warmup=%llu cycles=%llu",
      p.mesh.c_str(), p.topology.c_str(), p.mc_placement.c_str(),
      p.preset.c_str(), p.app.c_str(), p.protocol.c_str(), p.dir_pointers,
      p.dir_sets, p.dir_ways, p.circuits, p.slack, p.buf_depth, p.vcs_req,
      p.vcs_rep, p.shards, static_cast<unsigned long long>(p.seed),
      static_cast<unsigned long long>(p.warmup),
      static_cast<unsigned long long>(p.cycles));
  return buf;
}

std::string warm_key(const SweepPoint& p) {
  // point_key minus shards and cycles: exactly the fields that survive into
  // the snapshot digest's strict subset. Two points with equal warm keys
  // build SystemConfigs that differ only on relaxed digest fields, so the
  // leader's end-of-warm-up snapshot loads cleanly into every member.
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "mesh=%s topo=%s mc=%s preset=%s app=%s proto=%s dirp=%d dirs=%d "
      "dirw=%d circ=%d slack=%d depth=%d vcsq=%d vcsr=%d seed=%llu "
      "warmup=%llu",
      p.mesh.c_str(), p.topology.c_str(), p.mc_placement.c_str(),
      p.preset.c_str(), p.app.c_str(), p.protocol.c_str(), p.dir_pointers,
      p.dir_sets, p.dir_ways, p.circuits, p.slack, p.buf_depth, p.vcs_req,
      p.vcs_rep, static_cast<unsigned long long>(p.seed),
      static_cast<unsigned long long>(p.warmup));
  return buf;
}

std::string warm_dir_name(const SweepPoint& p) {
  const std::string key = warm_key(p);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a(key.data(), key.size())));
  return buf;
}

std::vector<std::string> point_args(const SweepPoint& p) {
  std::vector<std::string> a;
  auto add = [&](const char* flag, const std::string& v) {
    a.push_back(flag);
    a.push_back(v);
  };
  // make_system_config accepts the square scaling presets only; any other
  // node count rides the rc-fuzz idiom (--cores 16 + --mesh override).
  int w = 0, h = 0;
  parse_mesh(p.mesh, &w, &h);
  const int nodes = w * h;
  const bool square_preset =
      nodes == 16 || nodes == 64 || nodes == 256 || nodes == 1024;
  add("--cores", std::to_string(square_preset ? nodes : 16));
  add("--mesh", p.mesh);
  add("--topology", p.topology);
  add("--mc-placement", p.mc_placement);
  add("--preset", p.preset);
  add("--app", p.app);
  add("--protocol", p.protocol);
  if (p.dir_pointers >= 1) add("--dir-pointers", std::to_string(p.dir_pointers));
  if (p.dir_sets >= 1) add("--dir-sets", std::to_string(p.dir_sets));
  if (p.dir_ways >= 1) add("--dir-ways", std::to_string(p.dir_ways));
  if (p.circuits >= 0) add("--circuits", std::to_string(p.circuits));
  if (p.slack >= 0) add("--slack", std::to_string(p.slack));
  if (p.buf_depth >= 1) add("--buf-depth", std::to_string(p.buf_depth));
  if (p.vcs_req >= 1) add("--vcs-req", std::to_string(p.vcs_req));
  if (p.vcs_rep >= 1) add("--vcs-rep", std::to_string(p.vcs_rep));
  add("--seed", std::to_string(p.seed));
  add("--warmup", std::to_string(p.warmup));
  add("--cycles", std::to_string(p.cycles));
  return a;
}

bool parse_sweep_spec(const std::string& json_text,
                      std::vector<SweepPoint>* out, std::string* err) {
  out->clear();
  std::string jerr;
  auto doc = parse_json(json_text, &jerr);
  if (!doc) return set_err(err, "spec is not valid JSON: " + jerr);
  if (doc->type != Json::Type::Obj)
    return set_err(err, "spec must be a JSON object");

  SweepPoint base;
  const Json* excludes = nullptr;
  const Json* points = nullptr;
  // Per-axis value lists, in kAxes order; empty = axis not swept (the base
  // default contributes its single value).
  std::vector<std::vector<const Json*>> axis_vals(std::size(kAxes));

  for (const auto& kv : doc->obj) {
    const std::string& key = kv.first;
    const Json& v = kv.second;
    if (key == "exclude") {
      if (v.type != Json::Type::Arr)
        return set_err(err, "'exclude' must be an array of objects");
      excludes = &v;
      continue;
    }
    if (key == "points") {
      if (v.type != Json::Type::Arr)
        return set_err(err, "'points' must be an array of objects");
      points = &v;
      continue;
    }
    // Scalar warmup/cycles set the base point without counting as swept
    // axes — a pure-"points" spec with scalar run lengths must not summon
    // the grid's default point. Lists sweep them like any other axis.
    if ((key == "warmup" || key == "cycles") && v.type != Json::Type::Arr) {
      if (!set_axis(&base, key, v, err)) return false;
      continue;
    }
    // An axis: scalar or list of scalars.
    std::size_t ai = std::size(kAxes);
    for (std::size_t i = 0; i < std::size(kAxes); ++i)
      if (key == kAxes[i].name) ai = i;
    if (ai == std::size(kAxes))
      return set_err(err, "unknown spec key '" + key + "'");
    if (v.type == Json::Type::Arr) {
      if (v.arr.empty())
        return set_err(err, "axis '" + key + "' has an empty value list");
      for (const Json& e : v.arr) axis_vals[ai].push_back(&e);
    } else {
      axis_vals[ai].push_back(&v);
    }
  }

  // Parse excludes up front so a bad exclude fails even when no point
  // matches it.
  std::vector<std::vector<std::pair<std::string, const Json*>>> excl;
  if (excludes) {
    for (const Json& e : excludes->arr) {
      if (e.type != Json::Type::Obj || e.obj.empty())
        return set_err(err, "'exclude' entries must be non-empty objects");
      std::vector<std::pair<std::string, const Json*>> pairs;
      for (const auto& kv : e.obj) {
        SweepPoint probe;
        bool known = false;
        axis_equals(probe, kv.first, kv.second, &known);
        if (!known)
          return set_err(err, "exclude references unknown axis '" + kv.first +
                                  "'");
        pairs.emplace_back(kv.first, &kv.second);
      }
      excl.push_back(std::move(pairs));
    }
  }

  // Cross-product expansion: odometer over the swept axes, rightmost
  // (seed) fastest, so point ids are stable across runs of the same spec.
  // A spec with no axes normally yields the single base point — but not
  // when it is a pure "points" spec (rc-fuzz --spec-out), where the grid
  // contributes nothing and the default point was never asked for.
  bool any_axis = false;
  for (const auto& vals : axis_vals) any_axis |= !vals.empty();
  const bool expand_grid = any_axis || points == nullptr;
  std::vector<std::size_t> idx(std::size(kAxes), 0);
  while (expand_grid) {
    SweepPoint p = base;
    for (std::size_t i = 0; i < std::size(kAxes); ++i) {
      if (axis_vals[i].empty()) continue;
      if (!set_axis(&p, kAxes[i].name, *axis_vals[i][idx[i]], err))
        return false;
    }
    bool dropped = false;
    for (const auto& pairs : excl) {
      bool all = true;
      for (const auto& [name, val] : pairs) {
        bool known = false;
        if (!axis_equals(p, name, *val, &known)) {
          all = false;
          break;
        }
      }
      if (all) {
        dropped = true;
        break;
      }
    }
    if (!dropped) {
      if (!validate_point(p, err)) {
        if (err) *err += " (point " + point_key(p) + ")";
        return false;
      }
      out->push_back(std::move(p));
    }
    // advance the odometer
    std::size_t i = std::size(kAxes);
    while (i > 0) {
      --i;
      if (axis_vals[i].empty()) continue;
      if (++idx[i] < axis_vals[i].size()) break;
      idx[i] = 0;
      if (i == 0) break;
    }
    bool done = true;
    for (std::size_t k = 0; k < std::size(kAxes); ++k)
      if (idx[k] != 0) done = false;
    if (done) break;
  }

  // Explicit points (rc-fuzz --spec-out emits these): appended after the
  // cross product, exempt from excludes — they were asked for by name.
  if (points) {
    for (const Json& e : points->arr) {
      if (e.type != Json::Type::Obj)
        return set_err(err, "'points' entries must be objects");
      SweepPoint p = base;
      for (const auto& kv : e.obj)
        if (!set_axis(&p, kv.first, kv.second, err)) return false;
      if (!validate_point(p, err)) {
        if (err) *err += " (point " + point_key(p) + ")";
        return false;
      }
      out->push_back(std::move(p));
    }
  }
  return true;
}

std::string point_result_json(const RunResult& r, const std::string& protocol,
                              std::uint64_t seed, Cycle warmup, double wall_s) {
  const ReplyBreakdown b = reply_breakdown(r);
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"preset\":\"%s\",\"app\":\"%s\",\"cores\":%d,\"mesh\":\"%dx%d\","
      "\"topology\":\"%s\",\"mc_placement\":\"%s\",\"protocol\":\"%s\","
      "\"seed\":%llu,\"warmup\":%llu,\"cycles\":%llu,\"ipc\":%.6f,"
      "\"retired\":%llu,\"energy_per_instr\":%.6f,\"reply_used\":%.6f,"
      "\"flits_injected\":%llu,\"wall_s\":%.4f}",
      r.preset.c_str(), r.app.c_str(), r.cores, r.noc.mesh_w, r.noc.mesh_h,
      to_string(r.noc.topology), to_string(r.noc.mc_placement),
      protocol.c_str(), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(warmup),
      static_cast<unsigned long long>(r.cycles), r.ipc,
      static_cast<unsigned long long>(r.retired), r.energy_per_instr, b.used,
      static_cast<unsigned long long>(r.net.counter_value("ni_inject_flit")),
      wall_s);
  return buf;
}

std::string journal_line(const JournalRecord& r) {
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\"id\":%lld,\"key\":\"%s\",\"status\":\"%s\","
                "\"attempts\":%d,\"exit\":%d,\"wall_s\":%.4f,"
                "\"maxrss_kb\":%lld}",
                r.id, r.key.c_str(), r.status.c_str(), r.attempts, r.exit_code,
                r.wall_s, r.maxrss_kb);
  return buf;
}

bool load_journal(const std::string& path, std::vector<JournalRecord>* out,
                  bool* torn_tail, std::string* err) {
  out->clear();
  if (torn_tail) *torn_tail = false;
  if (!file_exists(path)) return true;
  std::string text;
  if (!read_file(path, &text))
    return set_err(err, "cannot read journal '" + path + "'");
  std::size_t line_no = 0, pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    const bool has_newline = nl != std::string::npos;
    if (!has_newline) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;
    std::string jerr;
    auto j = parse_json(line, &jerr);
    const bool is_last = pos >= text.size();
    if (!j || j->type != Json::Type::Obj) {
      // A torn final record is the expected shape of a crash mid-append
      // (each line is fsync'd whole before the next starts); anything
      // torn *before* the end means real corruption.
      if (is_last) {
        if (torn_tail) *torn_tail = true;
        break;
      }
      return set_err(err, "journal '" + path + "' line " +
                              std::to_string(line_no) + " is corrupt: " + jerr);
    }
    JournalRecord r;
    const Json* v;
    if ((v = j->find("id")) && v->type == Json::Type::Int) r.id = v->i;
    if ((v = j->find("key")) && v->type == Json::Type::Str) r.key = v->s;
    if ((v = j->find("status")) && v->type == Json::Type::Str) r.status = v->s;
    if ((v = j->find("attempts")) && v->type == Json::Type::Int)
      r.attempts = static_cast<int>(v->i);
    if ((v = j->find("exit")) && v->type == Json::Type::Int)
      r.exit_code = static_cast<int>(v->i);
    if ((v = j->find("wall_s")) && v->is_num()) r.wall_s = v->d;
    if ((v = j->find("maxrss_kb")) && v->type == Json::Type::Int)
      r.maxrss_kb = v->i;
    if (r.key.empty() || (r.status != "ok" && r.status != "failed" &&
                          r.status != "timeout"))
      return set_err(err, "journal '" + path + "' line " +
                              std::to_string(line_no) +
                              " is not a sweep record");
    out->push_back(std::move(r));
  }
  return true;
}

// ---- process scheduling ---------------------------------------------------

namespace {

/// How a point participates in warm-start sharing.
enum class WarmMode {
  Plain,   ///< no sharing: run the warm-up in-process
  Leader,  ///< runs the group's warm-up and deposits the shared snapshot
  Loader,  ///< resumes from the group snapshot with --load-state
};

struct PendingRun {
  long long idx = 0;
  int attempt = 1;
  double ready_at = 0;  ///< retry backoff gate
  WarmMode warm = WarmMode::Plain;
};

struct RunningChild {
  pid_t pid = -1;
  long long idx = 0;
  int attempt = 1;
  double start = 0;
  bool killed = false;  ///< we SIGKILLed it for exceeding the timeout
  WarmMode warm = WarmMode::Plain;
};

/// One warm-start group: the points sharing a warm-up snapshot. Members
/// other than the leader wait in `waiters` (not in the run queue) until the
/// leader's terminal record, then run as loaders if the snapshot landed or
/// fall back to plain runs if it did not.
struct WarmGroup {
  std::string snap_path;  ///< absolute .../snapshots/<hash>/warmup.state
  std::vector<long long> waiters;
};

std::string workdir_for(const std::string& out_dir, long long idx) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "/points/p%05lld", idx);
  return out_dir + buf;
}

/// fork/exec one point in its own workdir and process group; stdout/stderr
/// go to per-attempt log files. Never returns in the child. `extra` carries
/// the warm-start snapshot flags (--save-state / --load-state, absolute
/// paths — the child chdirs away before exec).
pid_t spawn_point(const std::string& runner, const SweepPoint& p,
                  const std::string& workdir,
                  const std::vector<std::string>& extra) {
  std::vector<std::string> args = point_args(p);
  args.insert(args.end(), extra.begin(), extra.end());
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure, -1)

  // Child. Only async-signal-safe-ish setup from here to execvp; any
  // failure exits 127 so the parent records a clean `failed`.
  ::setpgid(0, 0);  // own process group: the timeout kill reaps helpers too
  if (::chdir(workdir.c_str()) != 0) ::_exit(127);
  const int ofd = ::open("stdout.log", O_WRONLY | O_CREAT | O_TRUNC, 0666);
  const int efd = ::open("stderr.log", O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (ofd < 0 || efd < 0) ::_exit(127);
  ::dup2(ofd, 1);
  ::dup2(efd, 2);
  ::close(ofd);
  ::close(efd);
  // A sweep-wide RC_TELEMETRY would make every point write the same trace
  // path (the very clobber bug run_many had); points opt in per-spec via
  // the shards axis only, everything else stays default.
  ::unsetenv("RC_TELEMETRY");
  if (p.shards >= 1)
    ::setenv("RC_SHARDS", std::to_string(p.shards).c_str(), 1);

  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(runner.c_str()));
  for (auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(const_cast<char*>("--point-out"));
  argv.push_back(const_cast<char*>("result.json"));
  argv.push_back(nullptr);
  ::execvp(runner.c_str(), argv.data());
  ::_exit(127);
}

const Json* ok_result(const std::string& workdir, std::string* text_buf,
                      std::optional<Json>* parsed) {
  if (!read_file(workdir + "/result.json", text_buf)) return nullptr;
  std::string jerr;
  *parsed = parse_json(*text_buf, &jerr);
  if (!*parsed || (*parsed)->type != Json::Type::Obj) return nullptr;
  return &**parsed;
}

double jnum(const Json* obj, const char* key) {
  const Json* v = obj ? obj->find(key) : nullptr;
  return v && v->is_num() ? v->d : 0.0;
}

unsigned long long jull(const Json* obj, const char* key) {
  const Json* v = obj ? obj->find(key) : nullptr;
  return v && v->type == Json::Type::Int && v->i > 0
             ? static_cast<unsigned long long>(v->i)
             : 0ull;
}

std::string config_fields(const SweepPoint& p) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "\"preset\":\"%s\",\"app\":\"%s\",\"mesh\":\"%s\",\"topology\":\"%s\","
      "\"mc_placement\":\"%s\",\"protocol\":\"%s\",\"seed\":%llu,"
      "\"warmup\":%llu,\"cycles\":%llu",
      p.preset.c_str(), p.app.c_str(), p.mesh.c_str(), p.topology.c_str(),
      p.mc_placement.c_str(), p.protocol.c_str(),
      static_cast<unsigned long long>(p.seed),
      static_cast<unsigned long long>(p.warmup),
      static_cast<unsigned long long>(p.cycles));
  return buf;
}

bool write_manifest(const std::string& out_dir, const char* status,
                    long long total, const DseOutcome& oc, std::string* err) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n  \"v\": 1,\n  \"status\": \"%s\",\n  \"points\": %lld,\n"
                "  \"ok\": %lld,\n  \"failed\": %lld,\n  \"timeout\": %lld,\n"
                "  \"skipped_prior\": %lld\n}\n",
                status, total, oc.ok, oc.failed, oc.timeout, oc.skipped);
  return write_file_atomic(out_dir + "/manifest.json", buf, err);
}

/// Deterministic aggregates (results.jsonl / results.csv: point order, no
/// wall-clock fields — resumed and uninterrupted sweeps must be
/// byte-identical). Wall-clock and peak RSS stay in the journal.
bool write_aggregates(const std::string& out_dir,
                      const std::vector<SweepPoint>& points,
                      const std::vector<std::optional<JournalRecord>>& recs,
                      std::string* err) {
  AtomicFile jout(out_dir + "/results.jsonl");
  AtomicFile cout_(out_dir + "/results.csv");
  if (!jout.stream() || !cout_.stream())
    return set_err(err, "cannot open aggregate temporaries in " + out_dir);
  std::fputs(
      "id,status,preset,app,mesh,topology,mc_placement,protocol,seed,"
      "warmup,cycles,ipc,retired,energy_per_instr\n",
      cout_.stream());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!recs[i]) continue;  // stopped-early sweeps aggregate the done subset
    const SweepPoint& p = points[i];
    const JournalRecord& r = *recs[i];
    std::string text;
    std::optional<Json> parsed;
    const Json* res =
        r.status == "ok" ? ok_result(workdir_for(out_dir, r.id), &text, &parsed)
                         : nullptr;
    if (r.status == "ok" && !res)
      return set_err(err, "point " + std::to_string(r.id) +
                              " is journaled ok but its result.json is "
                              "missing or corrupt");
    const std::string cfg = config_fields(p);
    if (res) {
      std::fprintf(jout.stream(),
                   "{\"id\":%lld,\"status\":\"ok\",%s,\"ipc\":%.6f,"
                   "\"retired\":%llu,\"energy_per_instr\":%.6f,"
                   "\"reply_used\":%.6f,\"flits_injected\":%llu}\n",
                   r.id, cfg.c_str(), jnum(res, "ipc"), jull(res, "retired"),
                   jnum(res, "energy_per_instr"), jnum(res, "reply_used"),
                   jull(res, "flits_injected"));
      std::fprintf(cout_.stream(), "%lld,ok,%s,%s,%s,%s,%s,%s,%llu,%llu,%llu,"
                   "%.6f,%llu,%.6f\n",
                   r.id, p.preset.c_str(), p.app.c_str(), p.mesh.c_str(),
                   p.topology.c_str(), p.mc_placement.c_str(),
                   p.protocol.c_str(), static_cast<unsigned long long>(p.seed),
                   static_cast<unsigned long long>(p.warmup),
                   static_cast<unsigned long long>(p.cycles), jnum(res, "ipc"),
                   jull(res, "retired"), jnum(res, "energy_per_instr"));
    } else {
      std::fprintf(jout.stream(), "{\"id\":%lld,\"status\":\"%s\",%s}\n", r.id,
                   r.status.c_str(), cfg.c_str());
      std::fprintf(cout_.stream(), "%lld,%s,%s,%s,%s,%s,%s,%s,%llu,%llu,%llu,"
                   ",,\n",
                   r.id, r.status.c_str(), p.preset.c_str(), p.app.c_str(),
                   p.mesh.c_str(), p.topology.c_str(), p.mc_placement.c_str(),
                   p.protocol.c_str(), static_cast<unsigned long long>(p.seed),
                   static_cast<unsigned long long>(p.warmup),
                   static_cast<unsigned long long>(p.cycles));
    }
  }
  return jout.commit(err) && cout_.commit(err);
}

}  // namespace

int run_sweep(const DseOptions& opt, DseOutcome* outcome, std::string* err) {
  DseOutcome oc;
  std::vector<SweepPoint> points;
  if (!parse_sweep_spec(opt.spec_text, &points, err)) return 2;
  if (points.empty()) {
    set_err(err, "spec expands to zero points");
    return 2;
  }
  oc.total = static_cast<long long>(points.size());
  if (opt.runner.empty()) {
    set_err(err, "no runner binary configured");
    return 2;
  }
  // The children chdir into their workdirs, so a relative runner path must
  // be resolved now (plain names without '/' go through PATH via execvp).
  std::string runner = opt.runner;
  if (runner.find('/') != std::string::npos && runner[0] != '/') {
    char abs[4096];
    if (::realpath(runner.c_str(), abs) == nullptr) {
      set_err(err, "runner '" + runner + "' does not exist");
      return 2;
    }
    runner = abs;
  }
  if (runner.find('/') != std::string::npos &&
      ::access(runner.c_str(), X_OK) != 0) {
    set_err(err, "runner '" + runner + "' is not executable");
    return 2;
  }
  if (!ensure_dir(opt.out_dir) || !ensure_dir(opt.out_dir + "/points")) {
    set_err(err, "cannot create output directory '" + opt.out_dir + "'");
    return 2;
  }

  // Resume: a journal means a prior sweep lives here. Completed points are
  // skipped; points that were in flight (no terminal record — including a
  // torn final line) re-run from scratch.
  const std::string journal_path = opt.out_dir + "/journal.jsonl";
  std::map<std::string, JournalRecord> prior;
  if (file_exists(journal_path)) {
    if (!opt.resume) {
      set_err(err, "journal '" + journal_path +
                       "' exists; pass --resume to continue that sweep or "
                       "use a fresh --out directory");
      return 2;
    }
    std::vector<JournalRecord> recs;
    bool torn = false;
    if (!load_journal(journal_path, &recs, &torn, err)) return 2;
    if (torn)
      std::fprintf(stderr,
                   "[rc-dse] journal has a torn final record (crashed "
                   "mid-append); that point will re-run\n");
    for (auto& r : recs) prior[r.key] = std::move(r);  // last record wins
  }

  // Warm-start grouping needs absolute snapshot paths (children chdir into
  // their workdirs before exec).
  std::string abs_out = opt.out_dir;
  {
    char abs[4096];
    if (::realpath(opt.out_dir.c_str(), abs) != nullptr) abs_out = abs;
  }

  std::vector<std::optional<JournalRecord>> final_rec(points.size());
  std::vector<long long> todo;  // points without a prior terminal record
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto it = prior.find(point_key(points[i]));
    if (it != prior.end()) {
      final_rec[i] = it->second;
      final_rec[i]->id = static_cast<long long>(i);
      ++oc.skipped;
    } else {
      todo.push_back(static_cast<long long>(i));
    }
  }

  // Group the to-run points by warm key. A group only pays off when at
  // least two members would repeat the same warm-up; singletons (and
  // zero-warm-up points) run plain. A snapshot left by a prior (resumed or
  // unrelated) sweep of the same group short-circuits the leader: every
  // member loads it directly — rc-sim re-validates the digest and the
  // checksum, so a stale or foreign file fails the point loudly rather
  // than silently skewing it.
  std::deque<PendingRun> queue;
  std::vector<WarmGroup> groups;
  std::vector<long long> group_of(points.size(), -1);
  if (opt.warm_start) {
    std::map<std::string, std::vector<long long>> by_key;
    for (long long idx : todo)
      if (points[static_cast<std::size_t>(idx)].warmup > 0)
        by_key[warm_key(points[static_cast<std::size_t>(idx)])].push_back(idx);
    for (long long idx : todo) {
      const SweepPoint& p = points[static_cast<std::size_t>(idx)];
      const auto it = p.warmup > 0 ? by_key.find(warm_key(p)) : by_key.end();
      if (it == by_key.end() || it->second.size() < 2) {
        queue.push_back(PendingRun{idx, 1, 0, WarmMode::Plain});
        continue;
      }
      if (it->second.front() != idx) continue;  // group handled at its leader
      WarmGroup g;
      g.snap_path =
          abs_out + "/snapshots/" + warm_dir_name(p) + "/warmup.state";
      const bool have_snap = file_exists(g.snap_path);
      for (long long m : it->second) {
        group_of[static_cast<std::size_t>(m)] =
            static_cast<long long>(groups.size());
        if (have_snap) {
          queue.push_back(PendingRun{m, 1, 0, WarmMode::Loader});
        } else if (m == idx) {
          if (!ensure_dir(abs_out + "/snapshots/" + warm_dir_name(p))) {
            set_err(err, "cannot create snapshot directory under " + abs_out);
            return 2;
          }
          queue.push_back(PendingRun{m, 1, 0, WarmMode::Leader});
        } else {
          g.waiters.push_back(m);
        }
      }
      groups.push_back(std::move(g));
    }
  } else {
    for (long long idx : todo)
      queue.push_back(PendingRun{idx, 1, 0, WarmMode::Plain});
  }

  std::FILE* jf = std::fopen(journal_path.c_str(), "a");
  if (!jf) {
    set_err(err, "cannot open journal '" + journal_path + "' for append");
    return 2;
  }
  if (!write_manifest(opt.out_dir, "running", oc.total, oc, err)) {
    std::fclose(jf);
    return 2;
  }

  const int jobs = std::max(1, opt.jobs);
  std::vector<RunningChild> running;
  long long newly_done = 0;
  bool journal_error = false;
  bool stopping = false;

  auto record_terminal = [&](long long idx, const char* status, int attempts,
                             int exit_code, double wall,
                             const struct rusage& ru) {
    JournalRecord r;
    r.id = idx;
    r.key = point_key(points[static_cast<std::size_t>(idx)]);
    r.status = status;
    r.attempts = attempts;
    r.exit_code = exit_code;
    r.wall_s = wall;
    r.maxrss_kb = ru.ru_maxrss;
    if (!append_line_durable(jf, journal_line(r))) {
      std::fprintf(stderr, "[rc-dse] cannot append to journal '%s'\n",
                   journal_path.c_str());
      journal_error = true;
    }
    final_rec[static_cast<std::size_t>(idx)] = std::move(r);
    ++newly_done;
  };

  // A terminal point releases its warm-start group's waiters (no-op for
  // plain points and for loaders, whose group has no waiters left). If the
  // leader failed before depositing the snapshot, the members run their own
  // warm-up — correctness never depends on the snapshot existing.
  auto release_group = [&](long long idx) {
    const long long gi = group_of[static_cast<std::size_t>(idx)];
    if (gi < 0) return;
    WarmGroup& g = groups[static_cast<std::size_t>(gi)];
    if (g.waiters.empty()) return;
    const bool have_snap = file_exists(g.snap_path);
    if (!have_snap)
      std::fprintf(stderr,
                   "[rc-dse] warm-start snapshot missing after its group "
                   "leader finished; %zu member(s) fall back to full "
                   "warm-up runs\n",
                   g.waiters.size());
    if (!stopping)
      for (long long m : g.waiters)
        queue.push_back(PendingRun{
            m, 1, 0, have_snap ? WarmMode::Loader : WarmMode::Plain});
    g.waiters.clear();
  };

  while (!queue.empty() || !running.empty()) {
    const double now = now_s();
    if (opt.max_points >= 0 && newly_done >= opt.max_points && !stopping) {
      stopping = true;  // drain running children, schedule nothing new
      queue.clear();
    }
    // Spawn while worker slots are free and the queue head is past its
    // retry backoff. (The queue is FIFO; a backoff gap at the head just
    // delays spawning, which keeps ordering deterministic.)
    while (!stopping && static_cast<int>(running.size()) < jobs &&
           !queue.empty() && queue.front().ready_at <= now) {
      const PendingRun pr = queue.front();
      queue.pop_front();
      const std::string dir = workdir_for(opt.out_dir, pr.idx);
      if (!ensure_dir(dir)) {
        struct rusage ru{};
        std::fprintf(stderr, "[rc-dse] cannot create workdir %s\n",
                     dir.c_str());
        record_terminal(pr.idx, "failed", pr.attempt, 127, 0, ru);
        release_group(pr.idx);
        continue;
      }
      std::vector<std::string> extra;
      if (pr.warm == WarmMode::Leader) {
        const long long gi = group_of[static_cast<std::size_t>(pr.idx)];
        extra = {"--save-state", groups[static_cast<std::size_t>(gi)].snap_path};
      } else if (pr.warm == WarmMode::Loader) {
        const long long gi = group_of[static_cast<std::size_t>(pr.idx)];
        extra = {"--load-state", groups[static_cast<std::size_t>(gi)].snap_path};
      }
      const pid_t pid = spawn_point(
          runner, points[static_cast<std::size_t>(pr.idx)], dir, extra);
      if (pid < 0) {
        // fork failure: transient resource exhaustion; retry like a crash
        if (pr.attempt < opt.max_attempts) {
          queue.push_back(PendingRun{pr.idx, pr.attempt + 1,
                                     now + opt.backoff_s * pr.attempt,
                                     pr.warm});
        } else {
          struct rusage ru{};
          record_terminal(pr.idx, "failed", pr.attempt, 127, 0, ru);
          release_group(pr.idx);
        }
        continue;
      }
      if (opt.verbose)
        std::fprintf(stderr, "[rc-dse] point %lld attempt %d -> pid %d\n",
                     pr.idx, pr.attempt, static_cast<int>(pid));
      running.push_back(
          RunningChild{pid, pr.idx, pr.attempt, now, false, pr.warm});
    }

    bool reaped = false;
    for (auto it = running.begin(); it != running.end();) {
      int st = 0;
      struct rusage ru{};
      const pid_t r = ::wait4(it->pid, &st, WNOHANG, &ru);
      if (r == it->pid) {
        reaped = true;
        const double wall = now_s() - it->start;
        const int exit_code = WIFEXITED(st) ? WEXITSTATUS(st)
                              : WIFSIGNALED(st) ? 128 + WTERMSIG(st)
                                                : 255;
        const std::string dir = workdir_for(opt.out_dir, it->idx);
        std::string text;
        std::optional<Json> parsed;
        const bool ok = !it->killed && exit_code == 0 &&
                        ok_result(dir, &text, &parsed) != nullptr;
        if (it->killed) {
          // Timeouts are terminal: a hung configuration hangs again, and
          // retrying it would multiply the sweep's worst case by
          // max_attempts.
          record_terminal(it->idx, "timeout", it->attempt, exit_code, wall, ru);
          release_group(it->idx);
        } else if (ok) {
          record_terminal(it->idx, "ok", it->attempt, 0, wall, ru);
          if (it->warm == WarmMode::Loader) ++oc.warm_loaded;
          if (it->warm == WarmMode::Leader) ++oc.snapshots;
          release_group(it->idx);
        } else if (it->attempt < opt.max_attempts) {
          if (opt.verbose)
            std::fprintf(stderr,
                         "[rc-dse] point %lld attempt %d exited %d; retrying\n",
                         it->idx, it->attempt, exit_code);
          // A failed loader retries with its own warm-up: if the snapshot
          // itself is the problem (corrupt, foreign digest), retrying the
          // load would fail identically and burn the point's attempts.
          queue.push_back(PendingRun{it->idx, it->attempt + 1,
                                     now_s() + opt.backoff_s * it->attempt,
                                     it->warm == WarmMode::Loader
                                         ? WarmMode::Plain
                                         : it->warm});
        } else {
          record_terminal(it->idx, "failed", it->attempt,
                          exit_code == 0 ? 1 : exit_code, wall, ru);
          release_group(it->idx);
        }
        it = running.erase(it);
      } else {
        if (opt.timeout_s > 0 && !it->killed &&
            now - it->start > opt.timeout_s) {
          ::kill(-it->pid, SIGKILL);  // whole process group
          it->killed = true;
        }
        ++it;
      }
    }
    if (!reaped && (!running.empty() || !queue.empty()))
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::fclose(jf);

  for (const auto& r : final_rec) {
    if (!r) continue;
    if (r->status == "ok") ++oc.ok;
    else if (r->status == "timeout") ++oc.timeout;
    else ++oc.failed;
  }
  oc.stopped_early = stopping && (oc.ok + oc.failed + oc.timeout) < oc.total;

  if (!write_aggregates(opt.out_dir, points, final_rec, err)) return 2;
  if (!write_manifest(opt.out_dir,
                      oc.stopped_early ? "stopped" : "complete", oc.total, oc,
                      err))
    return 2;
  if (outcome) *outcome = oc;
  if (journal_error) {
    set_err(err, "journal writes failed; the sweep cannot be resumed safely");
    return 2;
  }
  if (oc.stopped_early) return 10;
  return (oc.failed + oc.timeout) > 0 ? 3 : 0;
}

}  // namespace rc
