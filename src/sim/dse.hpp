// rc-dse: resumable, crash-isolated design-space sweeps.
//
// The paper's evaluation is a grid (app x variant x mesh x circuit budget)
// and the repo has grown four more axes (topology, MC placement, protocol,
// directory geometry). run_many covers the in-process case, but one bad
// configuration — an OOM, a fatal(), an assert — takes the whole sweep's
// process with it, and an hours-long grid cannot be restarted from zero.
//
// This layer runs every sweep point as its own *process* (a fork/exec of
// rc-sim's --point-out mode, or any argv-compatible runner), in its own
// working directory, under a wall-clock timeout, with bounded retry and
// rusage capture. A crashing point is recorded as `failed` and the sweep
// continues. Progress is a JSONL journal — one fsync'd record per terminal
// point — plus an atomic-rename manifest, so an interrupted sweep resumes
// by skipping journaled points and re-running in-flight ones. Aggregation
// is deterministic (point order, no wall-clock fields in results.jsonl /
// results.csv), so an interrupted-then-resumed sweep produces byte-identical
// aggregates to an uninterrupted one; each point's wall-clock time and peak
// RSS stay in the journal. Simulator speed is measured by perfbench/.
//
// Split: everything here is library code (unit-tested by tests/test_dse.cpp,
// including the process runner, against a scripted fake runner); tools/
// rc_dse.cpp is the thin CLI.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rc {

struct RunResult;

// ---- sweep points ---------------------------------------------------------

/// One fully specified simulation point. String axes keep their CLI
/// spelling (they are handed to the runner as rc-sim flags verbatim);
/// -1 on an integer knob means "runner default, flag omitted".
struct SweepPoint {
  std::string mesh = "4x4";
  std::string topology = "mesh";
  std::string mc_placement = "edge-middle";
  std::string preset = "SlackDelay1_NoAck";
  std::string app = "fft";
  std::string protocol = "mesi";
  int dir_pointers = -1;
  int dir_sets = -1;
  int dir_ways = -1;
  int circuits = -1;
  int slack = -1;
  int buf_depth = -1;
  int vcs_req = -1;
  int vcs_rep = -1;
  int shards = -1;  ///< exported as RC_SHARDS to the child (no rc-sim flag)
  std::uint64_t seed = 1;
  Cycle warmup = 500;
  Cycle cycles = 2000;
};

/// Canonical single-line identity of a point: every field, fixed order.
/// Journal records match on this across resumes, so it must be stable.
std::string point_key(const SweepPoint& p);

/// point_key minus the warm-up-irrelevant knobs (measurement length and
/// shard count — the snapshot digest's relaxed fields). Points with equal
/// warm keys simulate identical warm-up phases and share one end-of-warm-up
/// snapshot under out/snapshots/<warm_dir_name>/.
std::string warm_key(const SweepPoint& p);
std::string warm_dir_name(const SweepPoint& p);  ///< 16-hex FNV-1a of the key

/// rc-sim argument vector for the point (no argv[0], no --point-out; the
/// runner appends those).
std::vector<std::string> point_args(const SweepPoint& p);

// ---- spec parsing and expansion -------------------------------------------

/// Parse a declarative sweep spec (JSON text) and expand it into the full
/// point list, in deterministic order.
///
///   {
///     "mesh": ["4x4", "8x8"],          // any axis: scalar or list
///     "preset": ["Baseline", "SlackDelay1_NoAck"],
///     "app": "fft",
///     "seed": [1, 2, 3],
///     "warmup": 500, "cycles": 2000,   // axes too: lists sweep them
///     "exclude": [                     // drop points matching ALL pairs
///       {"topology": "ring", "preset": "Fragmented"}
///     ],
///     "points": [                      // explicit extra points (rc-fuzz
///       {"preset": "Complete", ...}    //   --spec-out emits these)
///     ]
///   }
///
/// Axes: mesh, topology, mc_placement, preset, app, protocol, dir_pointers,
/// dir_sets, dir_ways, circuits, slack, buf_depth, vcs_req, vcs_rep, shards,
/// seed, warmup, cycles. Expansion is a cross-product in that fixed order
/// (cycles fastest);
/// explicit "points" follow in spec order. Unknown keys, unknown axis
/// values (presets, apps, topology names...) and malformed entries are
/// errors, not skips. Returns false with *err on any problem.
bool parse_sweep_spec(const std::string& json_text, std::vector<SweepPoint>* out,
                      std::string* err);

// ---- single-point results (rc-sim --point-out) ----------------------------

/// Machine-readable single-point result: one JSON line, fixed key order,
/// deterministic fields first, wall-clock last. Written by rc-sim's
/// --point-out mode via the atomic helper; parsed back by the aggregator.
std::string point_result_json(const RunResult& r, const std::string& protocol,
                              std::uint64_t seed, Cycle warmup, double wall_s);

// ---- journal --------------------------------------------------------------

struct JournalRecord {
  long long id = -1;          ///< index into the expanded point list
  std::string key;            ///< point_key() at journal time
  std::string status;         ///< "ok" | "failed" | "timeout"
  int attempts = 0;
  int exit_code = 0;          ///< last exit status (128+sig for signals)
  double wall_s = 0;          ///< last attempt, driver-measured
  long long maxrss_kb = 0;    ///< wait4 rusage of the last attempt
};

std::string journal_line(const JournalRecord& r);

/// Load a journal written by run_sweep. Each complete line must parse
/// (corruption in the middle is an error); a torn *final* line — the
/// record a crashed writer was appending — is skipped and reported via
/// *torn_tail. A missing file yields an empty vector.
bool load_journal(const std::string& path, std::vector<JournalRecord>* out,
                  bool* torn_tail, std::string* err);

// ---- the sweep driver -----------------------------------------------------

struct DseOptions {
  std::string spec_text;     ///< parsed with parse_sweep_spec
  std::string out_dir;       ///< journal, manifest, aggregates, point dirs
  std::string runner;        ///< rc-sim(-compatible) binary; resolved to abs
  int jobs = 1;              ///< concurrent worker processes
  double timeout_s = 0;      ///< wall-clock per attempt; 0 = none
  int max_attempts = 2;      ///< crash retries (timeouts are terminal)
  double backoff_s = 0.5;    ///< sleep before retry, scaled by attempt
  bool resume = false;       ///< skip journaled points; else a journal is an error
  long long max_points = -1; ///< stop scheduling after N newly terminal points
                             ///< (deterministic "interruption" for tests/ops)
  /// Warm-start sharing: points with equal warm_key run their warm-up once.
  /// The first such point (the group leader) runs with --save-state and
  /// deposits out/snapshots/<hash>/warmup.state; the rest wait for it and
  /// resume from the snapshot with --load-state. Results are byte-identical
  /// either way (the snapshot identity contract), so this is purely a
  /// wall-clock optimization — disable to re-run every warm-up from zero.
  bool warm_start = true;
  bool verbose = false;
};

struct DseOutcome {
  long long total = 0;       ///< expanded points
  long long skipped = 0;     ///< journaled before this run (resume)
  long long ok = 0;          ///< terminal this run or before, status ok
  long long failed = 0;
  long long timeout = 0;
  long long snapshots = 0;   ///< warm-up snapshots written by group leaders
  long long warm_loaded = 0; ///< points resumed from a shared snapshot
  bool stopped_early = false;
};

/// Expand, schedule, journal, aggregate. Returns:
///   0  every point ok (sweep complete)
///   3  sweep complete but some points failed / timed out
///  10  stopped early (max_points) — aggregates cover the completed subset
///   2  setup error (bad spec, unusable out dir / runner); *err filled
int run_sweep(const DseOptions& opt, DseOutcome* outcome, std::string* err);

}  // namespace rc
