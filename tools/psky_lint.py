#!/usr/bin/env python3
"""psky-lint: project-specific invariant linter for the pskyline codebase.

The correctness arguments in this repo (the paper's Theorems 2-5, the
SIMD kernel's bit-identical accumulation contract, the log-domain drift
model behind core/audit.h) depend on source-level conventions a compiler
cannot check. This linter enforces them mechanically:

  float-eq         No raw ==/!= on probability-carrying doubles outside
                   src/geom/dominance* (the one place exact IEEE compares
                   are the documented contract). Exact comparisons inside
                   PSKY_CHECK/PSKY_DCHECK are allowed: asserting bitwise
                   identity is deliberate there.
  mutation-guard   Every public mutating method of SkyTree and RTree
                   carries at least one PSKY_CHECK/PSKY_DCHECK in its
                   definition, so state-changing entry points validate
                   their preconditions.
  no-iostream      No std::cout/std::cerr/printf-to-stdout in src/ —
                   library code reports through return values, error
                   strings, and the check machinery, never by printing.
  no-naked-new     No naked new/delete anywhere; ownership goes through
                   std::unique_ptr/std::make_unique and containers.
  include-guard    Every header uses the canonical include guard
                   PSKY_<PATH>_H_ (no #pragma once, no mismatched names).
  order-sensitive  Floating-point accumulations in dominance-kernel
                   consumer functions (anything touching
                   DominanceBlockCompare or mask bit-walking), and every
                   accumulation into a `pnoc_log` anywhere in src/, must
                   carry an `// order-sensitive` marker: summation order
                   there is part of the bit-identity contract (two
                   derivations of one double sum agree only if they add
                   in the same order), and the marker forces a reviewer
                   to see it. Integer sums (LogSum) are exact and need
                   none.
  sync-wrappers    No raw std::mutex / std::condition_variable /
                   std::lock_guard family in src/ or tools/ — all locking
                   goes through the annotated Mutex/MutexLock/CondVar in
                   base/sync.h so Clang thread-safety analysis and the
                   lock-rank checker see every acquisition. (base/sync.h
                   itself carries per-line allows where it wraps the std
                   types.)
  atomic-order     Every std::atomic load/store/RMW *call* in src/ or
                   tools/ outside src/base/ must spell its
                   std::memory_order — a bare .load()/.store(x) defaults
                   to seq_cst silently, which either hides a needed
                   ordering argument or taxes a hot path nobody audited.
                   (Line-based: operator forms like ++/-- are not seen;
                   spell them as fetch_add(1, order) in scope.)

Suppression: append `// psky-lint: allow(<rule>)` to the offending line
(or place it on the line directly above). Suppressions are expected to be
rare and reviewed; each one documents a deliberate exception.

Usage:
  psky_lint.py [--root DIR] [--list-rules] [paths...]

With no paths, lints the default tree (src/, tools/, bench/, tests/,
fuzz/, examples/ under --root). Exits 0 when clean, 1 when findings were
reported, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# --- shared helpers ---------------------------------------------------------

ALLOW_RE = re.compile(r"//\s*psky-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

LINT_DIRS = ["src", "tools", "bench", "tests", "fuzz", "examples"]
CXX_EXTENSIONS = (".h", ".cc")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Blanks out string/char literals and // comments (keeps length).

    Good enough for line-oriented rules: multi-line /* */ comments are rare
    in this codebase (Google style uses //) and handled by the caller for
    the rules where it matters.
    """
    out = []
    i, n = 0, len(line)
    state = None  # None | '"' | "'"
    while i < n:
        c = line[i]
        if state is None:
            if c == '/' and i + 1 < n and line[i + 1] == '/':
                out.append(line[i:])  # keep comments: markers live there
                break
            if c in ('"', "'"):
                state = c
                out.append(c)
            else:
                out.append(c)
            i += 1
        else:
            if c == '\\':
                out.append('  ')
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            else:
                out.append(' ')
            i += 1
    return ''.join(out)


def allowed_rules(lines: list[str], idx: int) -> set[str]:
    """Rules suppressed at line index `idx` (same line or the line above)."""
    rules: set[str] = set()
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m:
                rules.update(r.strip() for r in m.group(1).split(','))
    return rules


def code_part(line: str) -> str:
    """The line with comments AND literals blanked (for code-only matching)."""
    stripped = strip_comments_and_strings(line)
    cut = stripped.find('//')
    return stripped[:cut] if cut >= 0 else stripped


# --- rule: float-eq ---------------------------------------------------------

# Identifiers that carry probabilities or their log-domain companions.
# Trailing guards: `psky::` is the project namespace, not a value, and
# `.end()`-style iterator plumbing on a prob-named container is integral.
PROBLIKE = (r"[A-Za-z_]*(?:prob|psky|pnew|pold|pnoc|_log)[A-Za-z_0-9]*"
            r"(?!\s*::)(?!\s*\.\s*(?:end|begin|cend|cbegin|find|count)\s*\()")
FLOAT_EQ_RE = re.compile(
    rf"(?:\b{PROBLIKE}(?:\(\))?(?:\[[^\]]*\])?\s*(==|!=))|"
    rf"(?:(==|!=)\s*{PROBLIKE}\b)"
)
CHECK_MACRO_RE = re.compile(r"\bPSKY_D?CHECK(_MSG)?\s*\(")


def check_float_eq(path: str, rel: str, lines: list[str]) -> list[Finding]:
    if not rel.endswith(CXX_EXTENSIONS):
        return []
    # Exact IEEE comparison is the documented contract of the dominance
    # primitives themselves.
    if rel.replace(os.sep, '/').startswith("src/geom/dominance"):
        return []
    findings = []
    for i, raw in enumerate(lines):
        code = code_part(raw)
        m = FLOAT_EQ_RE.search(code)
        if not m:
            continue
        # Equality asserted under PSKY_CHECK / PSKY_DCHECK is a deliberate
        # bitwise-identity claim, which is the blessed way to state one.
        if CHECK_MACRO_RE.search(code):
            continue
        if "float-eq" in allowed_rules(lines, i):
            continue
        findings.append(Finding(
            path, i + 1, "float-eq",
            "raw ==/!= on a probability-carrying double; compare via the "
            "dominance/threshold helpers, assert identity under PSKY_CHECK, "
            "or document with // psky-lint: allow(float-eq)"))
    return findings


# --- rule: mutation-guard ---------------------------------------------------

GUARDED_CLASSES = {
    "SkyTree": ("src/core/sky_tree.h", "src/core/sky_tree.cc"),
    "RTree": ("src/rtree/rtree.h", "src/rtree/rtree.cc"),
}

METHOD_DECL_RE = re.compile(
    r"^\s*(?:virtual\s+)?(?:\[\[nodiscard\]\]\s*)?"
    r"(?P<ret>[A-Za-z_][\w:<>,&*\s]*?)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*\("
)


def public_mutators(header_lines: list[str], cls: str) -> list[str]:
    """Names of public non-const methods declared in `class cls`."""
    in_class = False
    visibility = "private"
    depth = 0
    mutators: list[str] = []
    decl = ""
    for raw in header_lines:
        code = code_part(raw)
        if not in_class:
            if re.search(rf"\bclass\s+{cls}\b[^;]*$", code):
                in_class = True
                visibility = "private"
                depth = 0
            continue
        depth += code.count('{') - code.count('}')
        if depth < 0:
            break
        if re.match(r"\s*public\s*:", code):
            visibility = "public"
            continue
        if re.match(r"\s*(private|protected)\s*:", code):
            visibility = "private"
            continue
        if visibility != "public" or depth > 1:
            # depth > 1: inside a nested struct/class or inline body.
            continue
        decl += " " + code.strip()
        if not (code.rstrip().endswith((';', '{', '}'))):
            continue  # declaration continues on the next line
        stmt, decl = decl.strip(), ""
        m = METHOD_DECL_RE.match(stmt)
        if not m:
            continue
        name = m.group("name")
        if name == cls or name.startswith("operator"):
            continue
        if "= delete" in stmt or "= default" in stmt:
            continue
        if re.search(r"\)\s*const\b", stmt):
            continue
        if m.group("ret").strip() in ("return", "else", "using", "typedef"):
            continue
        mutators.append(name)
    return mutators


def method_bodies(source_lines: list[str], cls: str) -> dict[str, tuple[int, str]]:
    """Maps method name -> (1-based def line, body text) for Cls::Method."""
    text_lines = [code_part(ln) for ln in source_lines]
    bodies: dict[str, tuple[int, str]] = {}
    i = 0
    n = len(text_lines)
    def_re = re.compile(rf"\b{cls}::(?P<name>[A-Za-z_]\w*)\s*\(")
    while i < n:
        m = def_re.search(text_lines[i])
        if not m:
            i += 1
            continue
        name = m.group("name")
        # Find the opening brace, then consume the balanced body.
        j = i
        depth = 0
        started = False
        body: list[str] = []
        while j < n:
            for ch in text_lines[j]:
                if ch == '{':
                    depth += 1
                    started = True
                elif ch == '}':
                    depth -= 1
            body.append(source_lines[j])
            if started and depth <= 0:
                break
            if not started and text_lines[j].rstrip().endswith(';'):
                break  # declaration, not a definition
            j += 1
        if started and name not in bodies:
            bodies[name] = (i + 1, "\n".join(body))
        i = j + 1
    return bodies


def check_mutation_guard(root: str, wanted_paths: set[str]) -> list[Finding]:
    findings = []
    for cls, (header_rel, source_rel) in GUARDED_CLASSES.items():
        header = os.path.join(root, header_rel)
        source = os.path.join(root, source_rel)
        if not os.path.exists(header) or not os.path.exists(source):
            continue
        if wanted_paths and source not in wanted_paths and header not in wanted_paths:
            continue
        header_lines = read_lines(header)
        source_lines = read_lines(source)
        bodies = method_bodies(source_lines, cls)
        for name in public_mutators(header_lines, cls):
            if name not in bodies:
                continue  # defined inline in the header; treated as trivial
            line_no, body = bodies[name]
            if CHECK_MACRO_RE.search(body):
                continue
            if "mutation-guard" in allowed_rules(source_lines, line_no - 1):
                continue
            findings.append(Finding(
                source, line_no, "mutation-guard",
                f"public mutator {cls}::{name} has no PSKY_CHECK/PSKY_DCHECK; "
                "validate a precondition or document with "
                "// psky-lint: allow(mutation-guard)"))
    return findings


# --- rule: no-iostream ------------------------------------------------------

IOSTREAM_RE = re.compile(
    r"std::cout|std::cerr|std::clog|(?<![\w:])printf\s*\(|(?<![\w:])puts\s*\(|"
    r"fprintf\s*\(\s*stdout")


def check_no_iostream(path: str, rel: str, lines: list[str]) -> list[Finding]:
    if not rel.replace(os.sep, '/').startswith("src/"):
        return []
    if not rel.endswith(CXX_EXTENSIONS):
        return []
    findings = []
    for i, raw in enumerate(lines):
        code = code_part(raw)
        if not IOSTREAM_RE.search(code):
            continue
        if "no-iostream" in allowed_rules(lines, i):
            continue
        findings.append(Finding(
            path, i + 1, "no-iostream",
            "library code must not print to stdout/stderr streams; report "
            "through error strings / PSKY_CHECK, or document with "
            "// psky-lint: allow(no-iostream)"))
    return findings


# --- rule: no-naked-new -----------------------------------------------------

NAKED_NEW_RE = re.compile(r"(?<![\w_])(new\s+[A-Za-z_(]|delete\s*(\[\s*\])?\s+[A-Za-z_*])")


def check_no_naked_new(path: str, rel: str, lines: list[str]) -> list[Finding]:
    if not rel.endswith(CXX_EXTENSIONS):
        return []
    findings = []
    for i, raw in enumerate(lines):
        code = code_part(raw)
        m = NAKED_NEW_RE.search(code)
        if not m:
            continue
        if "no-naked-new" in allowed_rules(lines, i):
            continue
        findings.append(Finding(
            path, i + 1, "no-naked-new",
            "naked new/delete; use std::make_unique, containers, or arena "
            "helpers, or document with // psky-lint: allow(no-naked-new)"))
    return findings


# --- rule: include-guard ----------------------------------------------------

def expected_guard(rel: str) -> str:
    parts = rel.replace(os.sep, '/')
    if parts.startswith("src/"):
        parts = parts[len("src/"):]
    stem = re.sub(r"\.h$", "", parts)
    return "PSKY_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def check_include_guard(path: str, rel: str, lines: list[str]) -> list[Finding]:
    if not rel.endswith(".h"):
        return []
    want = expected_guard(rel)
    ifndef = None
    for i, raw in enumerate(lines):
        code = code_part(raw)
        if re.search(r"#\s*pragma\s+once", code):
            if "include-guard" in allowed_rules(lines, i):
                return []
            return [Finding(
                path, i + 1, "include-guard",
                f"#pragma once; this codebase uses include guards ({want})")]
        m = re.match(r"\s*#\s*ifndef\s+([A-Za-z_0-9]+)", code)
        if m:
            ifndef = (i, m.group(1))
            break
    if ifndef is None:
        if lines and "include-guard" in allowed_rules(lines, 0):
            return []
        return [Finding(path, 1, "include-guard",
                        f"missing include guard {want}")]
    i, got = ifndef
    if got != want:
        if "include-guard" in allowed_rules(lines, i):
            return []
        return [Finding(path, i + 1, "include-guard",
                        f"include guard {got} does not match canonical {want}")]
    define_ok = i + 1 < len(lines) and re.match(
        rf"\s*#\s*define\s+{re.escape(want)}\s*$", code_part(lines[i + 1]))
    if not define_ok:
        return [Finding(path, i + 2, "include-guard",
                        f"#define {want} must directly follow its #ifndef")]
    return []


# --- rule: order-sensitive --------------------------------------------------

KERNEL_CONTEXT_RE = re.compile(r"DominanceBlockCompare|countr_zero")
FP_ACCUM_RE = re.compile(
    r"[A-Za-z_][\w.\->\[\]]*(?:_log|_acc)\s*[+\-]=|"
    r"\*\s*[A-Za-z_]\w*(?:_log|_acc)[\w.\->\[\]]*\s*[+\-]=")
# A floating-point P_noc (pnoc_log) is an ordered sum: two derivations of
# it agree bit for bit only if they add in the same order, in any
# function. (The candidate store's sums are exact integers and need no
# marker.)
PNOC_ACCUM_RE = re.compile(r"\bpnoc_log\s*[+\-]=")
ORDER_MARKER = "// order-sensitive"


def check_order_sensitive(path: str, rel: str, lines: list[str]) -> list[Finding]:
    relu = rel.replace(os.sep, '/')
    if not relu.startswith("src/") or not rel.endswith(CXX_EXTENSIONS):
        return []
    findings = []

    def unmarked(k: int) -> bool:
        window = lines[max(0, k - 3):k + 1]
        if any(ORDER_MARKER in w for w in window):
            return False
        return "order-sensitive" not in allowed_rules(lines, k)
    # Function-scope scan: a function is "kernel context" when its body
    # mentions the block kernel or walks its output masks. Extents follow
    # the Google-style layout this repo uses — definitions start at column
    # 0 (after any indentation-free specifiers) and their closing brace
    # sits alone at column 0 — so namespace braces never swallow the file.
    text_lines = [code_part(ln) for ln in lines]
    n = len(lines)
    func_start_re = re.compile(r"^[A-Za-z_][\w:<>,&*~\[\] ]*\(")
    non_func_re = re.compile(r"^\s*(?:namespace|class|struct|enum|#|//|})")
    i = 0
    while i < n:
        line = text_lines[i]
        if non_func_re.match(line) or not func_start_re.match(line):
            i += 1
            continue
        j = i
        while j < n and not text_lines[j].startswith('}'):
            j += 1
        block = range(i, min(j + 1, n))
        body = "\n".join(text_lines[k] for k in block)
        if KERNEL_CONTEXT_RE.search(body):
            for k in block:
                if not FP_ACCUM_RE.search(text_lines[k]) or not unmarked(k):
                    continue
                findings.append(Finding(
                    path, k + 1, "order-sensitive",
                    "floating-point accumulation in a dominance-kernel "
                    "consumer; summation order is part of the bit-identity "
                    "contract — add an `// order-sensitive` marker (within "
                    "the 3 lines above) after confirming the order matches "
                    "the scalar reference"))
        i = j + 1 if j > i else i + 1
    flagged = {f.line for f in findings}
    for k, line in enumerate(text_lines):
        if k + 1 in flagged or not PNOC_ACCUM_RE.search(line):
            continue
        if unmarked(k):
            findings.append(Finding(
                path, k + 1, "order-sensitive",
                "accumulation into pnoc_log; an append extends this ordered "
                "sum by its last term and a rescan re-derives it, so both "
                "must add in the same order — add an `// order-sensitive` "
                "marker (within the 3 lines above) after confirming it"))
    return sorted(findings, key=lambda f: f.line)


# --- rule: sync-wrappers ----------------------------------------------------

SYNC_RAW_RE = re.compile(
    r"std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b|"
    r"std::condition_variable(?:_any)?\b|"
    r"std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
    r"#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>")


def check_sync_wrappers(path: str, rel: str, lines: list[str]) -> list[Finding]:
    relu = rel.replace(os.sep, '/')
    if not relu.endswith(CXX_EXTENSIONS):
        return []
    # Library + CLI code only: tests may build ad-hoc scaffolding, and the
    # wrappers' own implementation necessarily names the std types (each
    # such line carries a reviewed per-line allow).
    if not (relu.startswith("src/") or relu.startswith("tools/")):
        return []
    findings = []
    for i, raw in enumerate(lines):
        code = code_part(raw)
        if not SYNC_RAW_RE.search(code):
            continue
        if "sync-wrappers" in allowed_rules(lines, i):
            continue
        findings.append(Finding(
            path, i + 1, "sync-wrappers",
            "raw std mutex/condvar/lock; use the annotated Mutex, MutexLock, "
            "and CondVar from base/sync.h (Clang thread-safety analysis + "
            "lock-rank checking), or document with "
            "// psky-lint: allow(sync-wrappers)"))
    return findings


# --- rule: atomic-order -----------------------------------------------------

ATOMIC_CALL_RE = re.compile(
    r"\.\s*(?:load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")


def check_atomic_order(path: str, rel: str, lines: list[str]) -> list[Finding]:
    relu = rel.replace(os.sep, '/')
    if not relu.endswith(CXX_EXTENSIONS):
        return []
    # src/base/ is the one place allowed to wrap/choose defaults centrally
    # (sync.h, cancel.h, fault_injection.h document their orders in prose).
    if not (relu.startswith("src/") or relu.startswith("tools/")):
        return []
    if relu.startswith("src/base/"):
        return []
    code_lines = [code_part(ln) for ln in lines]
    text = "\n".join(code_lines)
    findings = []
    for m in ATOMIC_CALL_RE.finditer(text):
        # Scan the (possibly multi-line) argument list for an explicit
        # memory_order; std::atomic's defaults are silent seq_cst.
        depth = 1
        i = m.end()
        while i < len(text) and depth > 0:
            if text[i] == '(':
                depth += 1
            elif text[i] == ')':
                depth -= 1
            i += 1
        if "memory_order" in text[m.end():i]:
            continue
        line_idx = text.count("\n", 0, m.start())
        if "atomic-order" in allowed_rules(lines, line_idx):
            continue
        findings.append(Finding(
            path, line_idx + 1, "atomic-order",
            "atomic access without an explicit std::memory_order (defaults "
            "to seq_cst silently); state the ordering the protocol needs — "
            "relaxed for gauges, release/acquire for publication — or "
            "document with // psky-lint: allow(atomic-order)"))
    return findings


# --- driver -----------------------------------------------------------------

RULES = {
    "float-eq": "no raw ==/!= on probability doubles outside src/geom/dominance*",
    "mutation-guard": "public SkyTree/RTree mutators must carry PSKY_CHECKs",
    "no-iostream": "no stdout/stderr printing from library code (src/)",
    "no-naked-new": "no naked new/delete anywhere",
    "include-guard": "canonical PSKY_<PATH>_H_ include guards",
    "order-sensitive": "kernel-consumer and pnoc_log FP accumulations need "
                       "// order-sensitive",
    "sync-wrappers": "raw std::mutex/condvar in src//tools/; use base/sync.h",
    "atomic-order": "atomic calls outside src/base/ must spell memory_order",
}


def read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read().splitlines()


def iter_files(root: str, paths: list[str]) -> list[str]:
    # lint_fixtures holds deliberately-bad inputs for the linter's own test
    # suite; walking into it would fail every clean-tree run.
    def walk(top):
        for base, dirs, names in os.walk(top):
            dirs[:] = [d for d in dirs if d != "lint_fixtures"]
            yield from (os.path.join(base, f) for f in names
                        if f.endswith(CXX_EXTENSIONS))

    if paths:
        out = []
        for p in paths:
            if os.path.isdir(p):
                out.extend(walk(p))
            else:
                out.append(p)
        return sorted(set(out))
    out = []
    for d in LINT_DIRS:
        top = os.path.join(root, d)
        if os.path.isdir(top):
            out.extend(walk(top))
    return sorted(out)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="psky_lint.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:16} {desc}")
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    files = iter_files(root, args.paths)
    findings: list[Finding] = []
    for path in files:
        rel = os.path.relpath(path, root)
        lines = read_lines(path)
        findings += check_float_eq(path, rel, lines)
        findings += check_no_iostream(path, rel, lines)
        findings += check_no_naked_new(path, rel, lines)
        findings += check_include_guard(path, rel, lines)
        findings += check_order_sensitive(path, rel, lines)
        findings += check_sync_wrappers(path, rel, lines)
        findings += check_atomic_order(path, rel, lines)
    findings += check_mutation_guard(root, set(files) if args.paths else set())

    findings.sort(key=lambda f: (f.path, f.line))
    for f in findings:
        print(f)
    if findings:
        print(f"psky-lint: {len(findings)} finding(s) in {len(files)} file(s)",
              file=sys.stderr)
        return 1
    print(f"psky-lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
