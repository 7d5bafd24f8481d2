#!/usr/bin/env python3
"""Tests for psky_lint.py.

Each rule must (a) fire on its bad fixture at the expected line, (b) stay
quiet on the suppressed/clean fixture with the same shape, and (c) the real
tree must be lint-clean so the PR gate stays meaningful.

Run directly (`python3 tools/lint_test.py`) or via ctest (lint_selftest).
"""

import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "psky_lint.py")
FIXTURES = os.path.join(HERE, "lint_fixtures")
BAD = os.path.join(FIXTURES, "bad")
CLEAN = os.path.join(FIXTURES, "clean")

FINDING_RE = re.compile(r"^(.+):(\d+): \[([a-z-]+)\]")


def run_lint(*args):
    """Runs the linter; returns (rc, findings, stderr) with findings as
    (path-relative-to-root, line, rule) tuples."""
    root = None
    argv = list(args)
    if "--root" in argv:
        root = argv[argv.index("--root") + 1]
    proc = subprocess.run([sys.executable, LINT] + argv,
                         capture_output=True, text=True)
    findings = []
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            path = m.group(1)
            if root:
                path = os.path.relpath(path, root).replace(os.sep, "/")
            findings.append((path, int(m.group(2)), m.group(3)))
    return proc.returncode, findings, proc.stderr


class BadFixtureTest(unittest.TestCase):
    def test_every_rule_fires_at_expected_line(self):
        rc, findings, _ = run_lint("--root", BAD)
        self.assertEqual(rc, 1)
        self.assertEqual(set(findings), {
            ("src/core/sky_tree.cc", 2, "mutation-guard"),
            ("src/float_eq.cc", 3, "float-eq"),
            ("src/float_eq.cc", 5, "float-eq"),
            ("src/io.cc", 5, "no-iostream"),
            ("src/io.cc", 6, "no-iostream"),
            ("src/naked.cc", 2, "no-naked-new"),
            ("src/naked.cc", 3, "no-naked-new"),
            ("src/guard_bad.h", 1, "include-guard"),
            ("src/guard_pragma.h", 1, "include-guard"),
            ("src/order.cc", 7, "order-sensitive"),
            ("src/pnoc.cc", 7, "order-sensitive"),
            ("src/sync_raw.cc", 2, "sync-wrappers"),
            ("src/sync_raw.cc", 3, "sync-wrappers"),
            ("src/sync_raw.cc", 4, "sync-wrappers"),
            ("src/sync_raw.cc", 5, "sync-wrappers"),
            ("src/sync_raw.cc", 7, "sync-wrappers"),
            ("src/atomic_order.cc", 4, "atomic-order"),
            ("src/atomic_order.cc", 5, "atomic-order"),
            ("src/atomic_order.cc", 9, "atomic-order"),
        })

    def test_printing_outside_src_is_not_flagged(self):
        rc, findings, _ = run_lint("--root", BAD)
        self.assertEqual(rc, 1)
        self.assertFalse([f for f in findings if f[0].startswith("tests/")])

    def test_guarded_mutator_not_flagged(self):
        # SkyTree::Expire in the bad fixture carries a PSKY_DCHECK and must
        # not appear even though its sibling Arrive does.
        rc, findings, _ = run_lint("--root", BAD)
        mg = [f for f in findings if f[2] == "mutation-guard"]
        self.assertEqual(mg, [("src/core/sky_tree.cc", 2, "mutation-guard")])

    def test_pnoc_sum_needs_marker_outside_kernel_consumers(self):
        # pnoc.cc never calls the block kernel; its P_noc sum is flagged
        # for the pnoc_log accumulation alone, once per line.
        rc, findings, _ = run_lint("--root", BAD,
                                   os.path.join(BAD, "src", "pnoc.cc"))
        self.assertEqual(rc, 1)
        self.assertEqual(findings, [("src/pnoc.cc", 7, "order-sensitive")])

    def test_explicit_paths_scope_the_run(self):
        rc, findings, _ = run_lint("--root", BAD,
                                   os.path.join(BAD, "src", "io.cc"))
        self.assertEqual(rc, 1)
        self.assertEqual({f[2] for f in findings}, {"no-iostream"})


class CleanFixtureTest(unittest.TestCase):
    def test_suppressed_and_correct_shapes_stay_quiet(self):
        rc, findings, stderr = run_lint("--root", CLEAN)
        self.assertEqual(findings, [])
        self.assertEqual(rc, 0, stderr)


class CliTest(unittest.TestCase):
    def test_list_rules_names_all_eight(self):
        proc = subprocess.run([sys.executable, LINT, "--list-rules"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0)
        for rule in ("float-eq", "mutation-guard", "no-iostream",
                     "no-naked-new", "include-guard", "order-sensitive",
                     "sync-wrappers", "atomic-order"):
            self.assertIn(rule, proc.stdout)


class RealTreeTest(unittest.TestCase):
    def test_repo_is_lint_clean(self):
        rc, findings, stderr = run_lint()
        self.assertEqual(findings, [], "fix or suppress before landing")
        self.assertEqual(rc, 0, stderr)


if __name__ == "__main__":
    unittest.main()
