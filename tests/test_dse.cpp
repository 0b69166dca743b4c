// rc-dse sweep driver: spec expansion, journal durability, and the
// crash-isolated process scheduler (run against a scripted fake runner, so
// the suite needs no built binaries and stays in the fast tier).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/parse.hpp"
#include "sim/dse.hpp"

using namespace rc;

namespace {

std::string test_dir(const std::string& leaf) {
  const std::string d = ::testing::TempDir() + "rc_dse_" + leaf + "_" +
                        std::to_string(::getpid());
  std::string cmd = "rm -rf '" + d + "' && mkdir -p '" + d + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return d;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

/// A /bin/sh rc-sim stand-in. Behavior keys off --seed:
///   66  -> exit 1 (a crashing configuration)
///   77  -> sleep 30 (a hung configuration; the driver's timeout kills it)
///   else write a plausible result.json (content depends only on the seed,
///   so re-runs are byte-identical) and exit 0.
std::string write_fake_runner(const std::string& dir) {
  const std::string path = dir + "/fake-rc-sim";
  write_file(path,
             "#!/bin/sh\n"
             "seed=0; out=result.json; prev=\n"
             "for a in \"$@\"; do\n"
             "  case \"$prev\" in\n"
             "    --seed) seed=$a;;\n"
             "    --point-out) out=$a;;\n"
             "  esac\n"
             "  prev=$a\n"
             "done\n"
             "[ \"$seed\" = 66 ] && exit 1\n"
             "[ \"$seed\" = 77 ] && sleep 30\n"
             "printf '{\"ipc\":0.5,\"retired\":%s,\"energy_per_instr\":1.25,"
             "\"reply_used\":0.4,\"flits_injected\":42,\"wall_s\":0.01}\\n'"
             " \"$seed\" > \"$out\"\n");
  EXPECT_EQ(::chmod(path.c_str(), 0755), 0);
  return path;
}

DseOptions base_options(const std::string& out_dir,
                        const std::string& runner) {
  DseOptions o;
  o.out_dir = out_dir;
  o.runner = runner;
  o.jobs = 2;
  o.timeout_s = 0;
  o.max_attempts = 2;
  o.backoff_s = 0.01;
  return o;
}

// ---- JSON parser ----------------------------------------------------------

TEST(Json, ParsesDocumentsAndRejectsGarbage) {
  std::string err;
  auto v = parse_json("{\"a\": [1, 2.5, \"s\", true, null], \"b\": -3}", &err);
  ASSERT_TRUE(v.has_value()) << err;
  ASSERT_EQ(v->type, Json::Type::Obj);
  const Json* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->arr.size(), 5u);
  EXPECT_EQ(a->arr[0].i, 1);
  EXPECT_DOUBLE_EQ(a->arr[1].d, 2.5);
  EXPECT_EQ(a->arr[2].s, "s");
  EXPECT_TRUE(a->arr[3].b);
  EXPECT_EQ(a->arr[4].type, Json::Type::Null);
  EXPECT_EQ(v->find("b")->i, -3);

  // Truncated and trailing-garbage documents never yield a partial value.
  EXPECT_FALSE(parse_json("{\"a\": [1, 2", &err).has_value());
  EXPECT_FALSE(parse_json("{\"a\": 1} extra", &err).has_value());
  EXPECT_FALSE(parse_json("", &err).has_value());
  EXPECT_FALSE(parse_json("{'a': 1}", &err).has_value());
}

// ---- spec expansion -------------------------------------------------------

TEST(SweepSpec, CrossProductOrderAndDefaults) {
  std::vector<SweepPoint> pts;
  std::string err;
  ASSERT_TRUE(parse_sweep_spec(
      "{\"preset\": [\"Baseline\", \"Complete\"], \"seed\": [1, 2, 3],"
      " \"warmup\": 100, \"cycles\": 400}",
      &pts, &err))
      << err;
  ASSERT_EQ(pts.size(), 6u);
  // seed is the innermost axis: Baseline/1,2,3 then Complete/1,2,3.
  EXPECT_EQ(pts[0].preset, "Baseline");
  EXPECT_EQ(pts[0].seed, 1u);
  EXPECT_EQ(pts[2].seed, 3u);
  EXPECT_EQ(pts[3].preset, "Complete");
  EXPECT_EQ(pts[3].seed, 1u);
  // Unswept axes keep their defaults; scalar knobs apply everywhere.
  for (const auto& p : pts) {
    EXPECT_EQ(p.app, "fft");
    EXPECT_EQ(p.warmup, 100u);
    EXPECT_EQ(p.cycles, 400u);
    EXPECT_EQ(p.circuits, -1);
  }
}

TEST(SweepSpec, ExcludesDropMatchingPoints) {
  std::vector<SweepPoint> pts;
  std::string err;
  ASSERT_TRUE(parse_sweep_spec(
      "{\"topology\": [\"mesh\", \"ring\"],"
      " \"preset\": [\"Baseline\", \"Fragmented\"],"
      " \"exclude\": [{\"topology\": \"ring\", \"preset\": \"Fragmented\"}]}",
      &pts, &err))
      << err;
  ASSERT_EQ(pts.size(), 3u);
  for (const auto& p : pts)
    EXPECT_FALSE(p.topology == "ring" && p.preset == "Fragmented")
        << point_key(p);
}

TEST(SweepSpec, ExplicitPointsAppendAfterGrid) {
  std::vector<SweepPoint> pts;
  std::string err;
  ASSERT_TRUE(parse_sweep_spec(
      "{\"seed\": [1, 2], \"points\": ["
      "{\"preset\": \"Complete\", \"circuits\": 3, \"seed\": 9}]}",
      &pts, &err))
      << err;
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[2].preset, "Complete");
  EXPECT_EQ(pts[2].circuits, 3);
  EXPECT_EQ(pts[2].seed, 9u);
}

TEST(SweepSpec, PureExplicitPointSpecSkipsTheGrid) {
  // rc-fuzz --spec-out emits only "points": the default base point must not
  // sneak in from an empty cross-product.
  std::vector<SweepPoint> pts;
  std::string err;
  ASSERT_TRUE(parse_sweep_spec(
      "{\"warmup\": 100, \"cycles\": 300, \"points\": ["
      "{\"preset\": \"Baseline\", \"seed\": 7},"
      "{\"preset\": \"Complete\", \"seed\": 8}]}",
      &pts, &err))
      << err;
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].preset, "Baseline");
  EXPECT_EQ(pts[1].preset, "Complete");
  // A spec with no axes and no points is still the single default point.
  ASSERT_TRUE(parse_sweep_spec("{\"cycles\": 300}", &pts, &err)) << err;
  EXPECT_EQ(pts.size(), 1u);
}

TEST(SweepSpec, RejectsUnknownKeysAndBadValues) {
  std::vector<SweepPoint> pts;
  std::string err;
  EXPECT_FALSE(parse_sweep_spec("{\"presett\": \"Baseline\"}", &pts, &err));
  EXPECT_NE(err.find("presett"), std::string::npos);
  EXPECT_FALSE(parse_sweep_spec("{\"preset\": \"NoSuchPreset\"}", &pts, &err));
  EXPECT_NE(err.find("NoSuchPreset"), std::string::npos);
  EXPECT_FALSE(parse_sweep_spec("{\"app\": \"no_such_app\"}", &pts, &err));
  EXPECT_FALSE(parse_sweep_spec("{\"mesh\": \"4by4\"}", &pts, &err));
  EXPECT_FALSE(parse_sweep_spec("{\"vcs_req\": 0}", &pts, &err));
  EXPECT_FALSE(parse_sweep_spec("{\"seed\": [1,", &pts, &err));
  EXPECT_FALSE(parse_sweep_spec(
      "{\"exclude\": [{\"nope\": 1}]}", &pts, &err));
}

TEST(SweepSpec, PointKeyIsStableAndArgsFollowRcSimFlags) {
  SweepPoint p;
  p.mesh = "8x8";
  p.circuits = 3;
  p.shards = 2;
  p.seed = 5;
  const std::string key = point_key(p);
  EXPECT_NE(key.find("mesh=8x8"), std::string::npos);
  EXPECT_NE(key.find("circ=3"), std::string::npos);
  EXPECT_NE(key.find("seed=5"), std::string::npos);
  EXPECT_EQ(key, point_key(p)) << "key must be deterministic";

  const auto args = point_args(p);
  auto has = [&](const std::string& flag, const std::string& val) {
    for (std::size_t i = 0; i + 1 < args.size(); ++i)
      if (args[i] == flag && args[i + 1] == val) return true;
    return false;
  };
  EXPECT_TRUE(has("--cores", "64"));  // 8x8 is a scaling preset size
  EXPECT_TRUE(has("--mesh", "8x8"));
  EXPECT_TRUE(has("--circuits", "3"));
  EXPECT_TRUE(has("--seed", "5"));
  // shards ride RC_SHARDS in the child environment, not an rc-sim flag
  for (const auto& a : args) EXPECT_NE(a, "--shards");
  // default (-1) knobs are omitted entirely
  for (const auto& a : args) EXPECT_NE(a, "--buf-depth");
}

// ---- journal --------------------------------------------------------------

TEST(Journal, RoundTripsRecords) {
  const std::string dir = test_dir("journal_rt");
  const std::string path = dir + "/journal.jsonl";
  JournalRecord a;
  a.id = 0;
  a.key = "mesh=4x4 seed=1";
  a.status = "ok";
  a.attempts = 1;
  a.wall_s = 0.25;
  a.maxrss_kb = 1234;
  JournalRecord b = a;
  b.id = 1;
  b.key = "mesh=4x4 seed=2";
  b.status = "failed";
  b.exit_code = 139;
  b.attempts = 2;
  write_file(path, journal_line(a) + "\n" + journal_line(b) + "\n");

  std::vector<JournalRecord> recs;
  bool torn = false;
  std::string err;
  ASSERT_TRUE(load_journal(path, &recs, &torn, &err)) << err;
  EXPECT_FALSE(torn);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].key, a.key);
  EXPECT_EQ(recs[0].status, "ok");
  EXPECT_DOUBLE_EQ(recs[0].wall_s, 0.25);
  EXPECT_EQ(recs[0].maxrss_kb, 1234);
  EXPECT_EQ(recs[1].exit_code, 139);
  EXPECT_EQ(recs[1].attempts, 2);
}

TEST(Journal, ToleratesTornFinalLineOnly) {
  const std::string dir = test_dir("journal_torn");
  JournalRecord a;
  a.id = 0;
  a.key = "k1";
  a.status = "ok";
  const std::string good = journal_line(a) + "\n";

  // A crash mid-append leaves a partial final line with no newline: the
  // complete records load, the tail is reported torn.
  const std::string torn_path = dir + "/torn.jsonl";
  write_file(torn_path, good + "{\"id\":1,\"key\":\"k2\",\"sta");
  std::vector<JournalRecord> recs;
  bool torn = false;
  std::string err;
  ASSERT_TRUE(load_journal(torn_path, &recs, &torn, &err)) << err;
  EXPECT_TRUE(torn);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].key, "k1");

  // Corruption *before* the end is real corruption, not a torn tail.
  const std::string corrupt_path = dir + "/corrupt.jsonl";
  write_file(corrupt_path, good + "garbage here\n" + good);
  EXPECT_FALSE(load_journal(corrupt_path, &recs, &torn, &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;

  // Missing file = fresh sweep, empty journal.
  ASSERT_TRUE(load_journal(dir + "/nope.jsonl", &recs, &torn, &err)) << err;
  EXPECT_TRUE(recs.empty());
  EXPECT_FALSE(torn);
}

// ---- atomic writes --------------------------------------------------------

TEST(AtomicFile, CommitRenamesAndAbortLeavesNothing) {
  const std::string dir = test_dir("atomic");
  const std::string path = dir + "/out.txt";
  {
    AtomicFile f(path);
    ASSERT_NE(f.stream(), nullptr);
    std::fputs("partial", f.stream());
    // no commit: destructor must clean up the temporary
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << "uncommitted file appeared";
  EXPECT_NE(std::system(("ls " + dir + "/*.tmp.* 2>/dev/null").c_str()), 0)
      << "abandoned temporary left behind";

  std::string err;
  ASSERT_TRUE(write_file_atomic(path, "hello\n", &err)) << err;
  EXPECT_EQ(slurp(path), "hello\n");
  ASSERT_TRUE(write_file_atomic(path, "replaced\n", &err)) << err;
  EXPECT_EQ(slurp(path), "replaced\n");
}

// ---- the sweep driver -----------------------------------------------------

TEST(RunSweep, IsolatesCrashesAndTimeouts) {
  const std::string dir = test_dir("sweep_crash");
  const std::string runner = write_fake_runner(dir);
  DseOptions o = base_options(dir + "/out", runner);
  o.timeout_s = 2.0;
  // seeds 66 (crash) and 77 (hang) are planted failures among healthy points
  o.spec_text = "{\"seed\": [1, 2, 66, 77], \"cycles\": 100}";

  DseOutcome oc;
  std::string err;
  EXPECT_EQ(run_sweep(o, &oc, &err), 3) << err;
  EXPECT_EQ(oc.total, 4);
  EXPECT_EQ(oc.ok, 2);
  EXPECT_EQ(oc.failed, 1);
  EXPECT_EQ(oc.timeout, 1);
  EXPECT_FALSE(oc.stopped_early);

  std::vector<JournalRecord> recs;
  bool torn = false;
  ASSERT_TRUE(load_journal(o.out_dir + "/journal.jsonl", &recs, &torn, &err))
      << err;
  EXPECT_FALSE(torn);
  ASSERT_EQ(recs.size(), 4u);
  int crash_attempts = 0;
  for (const auto& r : recs) {
    if (r.key.find("seed=66") != std::string::npos) {
      EXPECT_EQ(r.status, "failed");
      crash_attempts = r.attempts;
      EXPECT_EQ(r.exit_code, 1);
    }
    if (r.key.find("seed=77") != std::string::npos) {
      EXPECT_EQ(r.status, "timeout");
      EXPECT_EQ(r.attempts, 1) << "timeouts must be terminal, not retried";
    }
  }
  EXPECT_EQ(crash_attempts, 2) << "crashes get the bounded retry";

  const std::string agg = slurp(o.out_dir + "/results.jsonl");
  EXPECT_NE(agg.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(agg.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(agg.find("\"status\":\"timeout\""), std::string::npos);
  EXPECT_NE(slurp(o.out_dir + "/manifest.json").find("\"complete\""),
            std::string::npos);
}

TEST(RunSweep, ResumeSkipsCompletedPoints) {
  const std::string dir = test_dir("sweep_resume");
  const std::string runner = write_fake_runner(dir);
  DseOptions o = base_options(dir + "/out", runner);
  o.spec_text = "{\"seed\": [1, 2, 3]}";

  DseOutcome oc;
  std::string err;
  ASSERT_EQ(run_sweep(o, &oc, &err), 0) << err;
  EXPECT_EQ(oc.ok, 3);

  // Without --resume an existing journal is an error, not a silent restart.
  EXPECT_EQ(run_sweep(o, &oc, &err), 2);
  EXPECT_NE(err.find("journal"), std::string::npos);

  o.resume = true;
  ASSERT_EQ(run_sweep(o, &oc, &err), 0) << err;
  EXPECT_EQ(oc.skipped, 3) << "every point was already journaled";
  EXPECT_EQ(oc.ok, 3);

  // The journal must not have grown: nothing re-ran.
  std::vector<JournalRecord> recs;
  bool torn = false;
  ASSERT_TRUE(load_journal(o.out_dir + "/journal.jsonl", &recs, &torn, &err));
  EXPECT_EQ(recs.size(), 3u);
}

TEST(RunSweep, StoppedEarlyThenResumedMatchesUninterrupted) {
  const std::string dir = test_dir("sweep_stop");
  const std::string runner = write_fake_runner(dir);
  const std::string spec = "{\"seed\": [1, 2, 3, 4, 5]}";

  DseOptions a = base_options(dir + "/a", runner);
  a.spec_text = spec;
  a.max_points = 2;
  DseOutcome oc;
  std::string err;
  EXPECT_EQ(run_sweep(a, &oc, &err), 10) << err;
  EXPECT_TRUE(oc.stopped_early);
  EXPECT_NE(slurp(a.out_dir + "/manifest.json").find("\"stopped\""),
            std::string::npos);

  a.max_points = -1;
  a.resume = true;
  ASSERT_EQ(run_sweep(a, &oc, &err), 0) << err;
  EXPECT_FALSE(oc.stopped_early);
  EXPECT_EQ(oc.ok, 5);

  DseOptions b = base_options(dir + "/b", runner);
  b.spec_text = spec;
  ASSERT_EQ(run_sweep(b, &oc, &err), 0) << err;

  // The durability contract: interrupted-then-resumed aggregates are
  // byte-identical to an uninterrupted sweep (wall-clock lives only in the
  // journal).
  EXPECT_EQ(slurp(a.out_dir + "/results.jsonl"),
            slurp(b.out_dir + "/results.jsonl"));
  EXPECT_EQ(slurp(a.out_dir + "/results.csv"),
            slurp(b.out_dir + "/results.csv"));
}

TEST(RunSweep, JournalSurvivesKill9MidSweep) {
  const std::string dir = test_dir("sweep_kill");
  const std::string runner = write_fake_runner(dir);
  const std::string spec = "{\"seed\": [1, 2, 3, 4, 5, 6, 7, 8]}";
  const std::string out_a = dir + "/a";

  // Drive the sweep in a forked child and SIGKILL it once the journal shows
  // progress — the real "operator hits the box" interruption, not a
  // cooperative shutdown.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    DseOptions o = base_options(out_a, runner);
    o.jobs = 1;
    o.spec_text = spec;
    DseOutcome oc;
    std::string err;
    run_sweep(o, &oc, &err);
    ::_exit(0);  // only reached if the kill loses the race entirely
  }
  const std::string journal = out_a + "/journal.jsonl";
  for (int i = 0; i < 2000; ++i) {
    std::string text = slurp(journal);
    int lines = 0;
    for (char c : text) lines += c == '\n';
    if (lines >= 2) break;
    ::usleep(5'000);
  }
  ::kill(child, SIGKILL);
  int st = 0;
  ASSERT_EQ(::waitpid(child, &st, 0), child);

  // Let any orphaned in-flight runner process finish writing and exit.
  ::usleep(200'000);

  // The journal must load: every fsync'd record intact, at worst one torn
  // tail (the atomic-rename manifest likewise either old or new, never
  // half-written — parse it to prove it).
  std::vector<JournalRecord> recs;
  bool torn = false;
  std::string err;
  ASSERT_TRUE(load_journal(journal, &recs, &torn, &err)) << err;
  EXPECT_GE(recs.size(), 1u);
  EXPECT_LT(recs.size(), 9u);
  std::string jerr;
  EXPECT_TRUE(parse_json(slurp(out_a + "/manifest.json"), &jerr).has_value())
      << jerr;

  DseOptions o = base_options(out_a, runner);
  o.spec_text = spec;
  o.resume = true;
  DseOutcome oc;
  ASSERT_EQ(run_sweep(o, &oc, &err), 0) << err;
  EXPECT_EQ(oc.ok, 8);
  EXPECT_GE(oc.skipped, 1);

  DseOptions b = base_options(dir + "/b", runner);
  b.spec_text = spec;
  ASSERT_EQ(run_sweep(b, &oc, &err), 0) << err;
  EXPECT_EQ(slurp(out_a + "/results.jsonl"),
            slurp(b.out_dir + "/results.jsonl"));
  EXPECT_EQ(slurp(out_a + "/results.csv"), slurp(b.out_dir + "/results.csv"));
}

TEST(RunSweep, SetupErrorsReturn2) {
  const std::string dir = test_dir("sweep_errors");
  const std::string runner = write_fake_runner(dir);
  DseOutcome oc;
  std::string err;

  DseOptions bad_spec = base_options(dir + "/o1", runner);
  bad_spec.spec_text = "{\"preset\": \"NoSuchPreset\"}";
  EXPECT_EQ(run_sweep(bad_spec, &oc, &err), 2);
  EXPECT_NE(err.find("NoSuchPreset"), std::string::npos);

  DseOptions bad_runner = base_options(dir + "/o2", dir + "/missing-binary");
  bad_runner.spec_text = "{\"seed\": 1}";
  EXPECT_EQ(run_sweep(bad_runner, &oc, &err), 2);
  EXPECT_NE(err.find("runner"), std::string::npos);
}

}  // namespace
