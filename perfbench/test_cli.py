#!/usr/bin/env python3
"""Command-line contract of the benchmark entry points.

--help exits 0; an unknown workload, a non-numeric seed or a malformed flag
exits 2 with a diagnostic on stderr and no result line. Covers run.py and,
when it has been built, the rc-perfbench binary, found where run.py builds
it ($CARGO_TARGET_DIR, else .bench_build/). A copy of the benchmark without
the simulator sources must fail without printing a result.

    python3 perfbench/test_cli.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_PY = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
import run as entry  # noqa: E402

BINARY = entry.binary_path()

BAD_ARGS = [
    ["--workload", "no_such_workload"],
    ["--workload", "cmp64_fig9", "--seed", "abc"],
    ["--workload", "cmp64_fig9", "--seed", "-1"],
    ["--workload", "cmp64_fig9", "--seconds", "1.5"],
    ["--workload", "cmp64_fig9", "--trace", "2"],
    ["--workload", "cmp64_fig9", "--seed"],
    ["--workload", "cmp64_fig9", "--bogus", "1"],
    ["--seed", "1"],
]


def call(cmd, cwd=None):
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=cwd)


class CliContract:
    cmd = []

    def test_help_exits_zero(self):
        r = call(self.cmd + ["--help"])
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("--workload", r.stdout)

    def test_bad_input_exits_two_with_diagnostic(self):
        for args in BAD_ARGS:
            with self.subTest(args=args):
                r = call(self.cmd + args)
                self.assertEqual(r.returncode, 2, r.stderr)
                self.assertTrue(r.stderr.strip(), "no diagnostic")
                self.assertNotIn('"correct"', r.stdout)


class RunPyCli(CliContract, unittest.TestCase):
    cmd = [sys.executable, RUN_PY]

    def test_without_sources_fails_without_result(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            r = call([sys.executable, "perfbench/run.py", "--workload",
                      "cmp64_fig9", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=d)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)


@unittest.skipUnless(os.access(BINARY, os.X_OK),
                     f"rc-perfbench not built at {BINARY}")
class BinaryCli(CliContract, unittest.TestCase):
    cmd = [BINARY]


if __name__ == "__main__":
    unittest.main()
