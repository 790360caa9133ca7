#!/usr/bin/env python3
"""hetsgd-lint: file-scope concurrency-contract checks for the hetsgd tree.

Rules (each a short, greppable id):

  unchecked-push    A `queue.push(...)` / `actor.send(...)` whose boolean
                    result is discarded. Both return false when the target
                    is closed; dropping the result silently loses a message
                    and breaks the ledger invariant
                    dispatched == reported + reclaimed.

  wall-clock        Wall-clock constructs (`steady_clock::now`,
                    `system_clock::now`, `time(`, `sleep_for`,
                    `sleep_until`) inside src/core/. Core scheduling runs
                    on virtual time; real time is allowed only in the
                    designated shims (actor idle ticks, injected stalls)
                    which carry waivers.

  naked-new         `new` / `delete` expressions outside the lock-free
                    queue node internals. Everything else owns memory via
                    containers / unique_ptr.

  stdout-logging    `std::cout` or a bare `printf(` in src/. Diagnostics go
                    through HETSGD_LOG_* (stderr); stdout is reserved for
                    program output (CSV, --help).

  ckpt-ofstream     A raw `std::ofstream` in src/core/ or src/nn/. Durable
                    training state (checkpoints, models) must go through
                    atomic_write_file (tmp + flush + rename) so a crash can
                    never leave a torn file; src/common/atomic_file.cpp is
                    the one sanctioned raw-write site.

  adhoc-timer       Ad-hoc timing in src/core/ or src/gpusim/: the retired
                    `WallTimer` class, an include of common/timer.hpp, or
                    (in gpusim, which the wall-clock rule does not cover) a
                    raw clock read. Instrumentation goes through src/obs/
                    — HETSGD_TRACE_* spans, obs::WallStopwatch, or the
                    metrics registry — so every measurement lands in the
                    exported trace/metrics streams instead of a private
                    timer.

  gpusim-include    A direct `#include "gpusim/..."` outside src/backend/
                    and src/gpusim/ (scanned across src/, tests/, bench/
                    and examples/). The simulated device is an
                    implementation detail behind the backend seam; code
                    reaches it through backend/backend.hpp or
                    backend/device_model.hpp. gpusim's own unit tests
                    carry waivers.

  tsan-supp-stale   A `race:<symbol>` entry in scripts/tsan.supp whose
                    symbol no longer exists in src/, or whose defining file
                    lacks a `hetsgd-racy` marker. Keeps the suppression
                    file honest: every suppressed symbol must be a
                    documented, sanctioned race site.

  test-registration A `tests/*_test.cpp` file that is not registered in
                    tests/CMakeLists.txt. An orphaned test file compiles
                    in nobody's build and silently never runs — the suite
                    looks green while the coverage it was written for is
                    gone.

Waivers: a line (or the line above it) containing
    // hetsgd-lint: allow(<rule>) <justification>
suppresses that rule at that site. The justification is mandatory.

Exit status: 0 = clean, 1 = findings, 2 = usage/config error.

Usage:
    tools/lint/hetsgd_lint.py [--root DIR] [--compile-commands PATH]
    tools/lint/hetsgd_lint.py --self-test
If --compile-commands is given (or build/compile_commands.json exists),
only translation units listed there (plus all headers) are scanned, so
dead/excluded files cannot mask or add findings.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

CXX_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".inl")
HEADER_EXTENSIONS = (".hpp", ".hh", ".h", ".inl")

WAIVER_RE = re.compile(r"//\s*hetsgd-lint:\s*allow\(([a-z0-9-]+)\)\s*(\S.*)?$")

# unchecked-push: a push()/send() call used as a full statement. Checked
# uses appear inside if/while/return/assignment/HETSGD_ASSERT/(void) etc.,
# all of which put tokens other than whitespace/`}` before the call on the
# line.
PUSH_STMT_RE = re.compile(
    r"^\s*(?:\}\s*)?[A-Za-z_][\w.\->:\[\]]*(?:\.|->)(?:push|send)\s*\("
)

WALL_CLOCK_RE = re.compile(
    r"steady_clock::now|system_clock::now|high_resolution_clock::now"
    r"|\bsleep_for\b|\bsleep_until\b|[^\w.:]time\s*\(\s*(?:NULL|nullptr|0|&)"
)

NAKED_NEW_RE = re.compile(r"(?:^|[^\w.])new\s+[A-Za-z_(]|(?:^|[^\w.])delete\s+[\w(]|delete\[\]")

STDOUT_RE = re.compile(r"std::cout\b|(?:^|[^\w:.])(?:std::)?printf\s*\(")

CKPT_OFSTREAM_RE = re.compile(r"\bstd::ofstream\b|(?:^|[^\w:.])ofstream\b")

ADHOC_TIMER_RE = re.compile(r"\bWallTimer\b")

TIMER_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]common/timer\.hpp[>"]')

GPUSIM_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"gpusim/')

SUPP_RE = re.compile(r"^\s*race:(\S+)")

STRING_OR_CHAR_RE = re.compile(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'')
LINE_COMMENT_RE = re.compile(r"//.*$")


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def format(self, root: str) -> str:
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_code(line: str) -> tuple[str, str]:
    """Returns (code, comment): string/char literals blanked, comment split off."""
    blanked = STRING_OR_CHAR_RE.sub(lambda m: '"' + " " * (len(m.group(0)) - 2) + '"',
                                    line)
    m = LINE_COMMENT_RE.search(blanked)
    if m:
        return blanked[: m.start()], line[m.start():]
    return blanked, ""


def waiver_rules(lines: list[str], idx: int) -> dict[str, bool]:
    """Waivers that apply to line `idx` (same line or the line(s) above)."""
    rules: dict[str, bool] = {}
    for probe in (idx, idx - 1, idx - 2):
        if probe < 0 or probe >= len(lines):
            continue
        m = WAIVER_RE.search(lines[probe])
        if m:
            rules[m.group(1)] = bool(m.group(2))
        elif probe < idx and lines[probe].strip().startswith("//"):
            # A waiver's justification may wrap onto a continuation comment
            # line between the waiver and the code; keep scanning upward.
            continue
    return rules


def iter_source_files(root: str, compile_commands: str | None):
    """Yields absolute paths of C++ files under src/ (and tools fixtures are
    NOT included — they are linted only by --self-test)."""
    src = os.path.join(root, "src")
    tu_allow: set[str] | None = None
    if compile_commands and os.path.exists(compile_commands):
        try:
            with open(compile_commands, encoding="utf-8") as f:
                entries = json.load(f)
            tu_allow = set()
            for e in entries:
                p = e.get("file", "")
                if not os.path.isabs(p):
                    p = os.path.join(e.get("directory", root), p)
                tu_allow.add(os.path.realpath(p))
        except (json.JSONDecodeError, OSError) as err:
            print(f"hetsgd-lint: bad compile_commands {compile_commands}: {err}",
                  file=sys.stderr)
            sys.exit(2)
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if not name.endswith(CXX_EXTENSIONS):
                continue
            path = os.path.realpath(os.path.join(dirpath, name))
            if (tu_allow is not None and not name.endswith(HEADER_EXTENSIONS)
                    and path not in tu_allow):
                continue  # TU not in the build — skip, it may not even compile
            yield path


def in_core(root: str, path: str) -> bool:
    rel = os.path.relpath(path, root)
    return rel.startswith(os.path.join("src", "core") + os.sep)


def in_timer_scope(root: str, path: str) -> bool:
    """Where the obs layer is mandatory for timing: core scheduling and the
    gpusim device model. src/obs/ itself (outside this scope) is the
    sanctioned raw-clock site."""
    rel = os.path.relpath(path, root)
    return (rel.startswith(os.path.join("src", "core") + os.sep)
            or rel.startswith(os.path.join("src", "gpusim") + os.sep))


def in_ckpt_scope(root: str, path: str) -> bool:
    """Where durable state is written: raw ofstreams are banned in favor of
    atomic_write_file. src/common/atomic_file.cpp (outside this scope) is
    the sanctioned implementation site."""
    rel = os.path.relpath(path, root)
    return (rel.startswith(os.path.join("src", "core") + os.sep)
            or rel.startswith(os.path.join("src", "nn") + os.sep))


def in_gpusim_seam(root: str, path: str) -> bool:
    """The only directories allowed to include gpusim headers directly: the
    backend seam (device_model.hpp re-exports the device model) and gpusim
    itself."""
    rel = os.path.relpath(path, root)
    return (rel.startswith(os.path.join("src", "backend") + os.sep)
            or rel.startswith(os.path.join("src", "gpusim") + os.sep))


def allow_naked_new(root: str, path: str) -> bool:
    """Queue node internals are the one sanctioned home of new/delete."""
    rel = os.path.relpath(path, root)
    return os.path.basename(rel) in ("mpsc_queue.hpp", "spsc_ring.hpp")


def lint_file(root: str, path: str, findings: list[Finding]) -> None:
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as err:
        print(f"hetsgd-lint: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)

    core = in_core(root, path)
    for i, raw in enumerate(lines):
        code, _comment = strip_code(raw)
        if not code.strip():
            continue
        waived = waiver_rules(lines, i)

        def report(rule: str, message: str) -> None:
            if rule in waived:
                return
            findings.append(Finding(rule, path, i + 1, message))

        if PUSH_STMT_RE.search(code):
            report("unchecked-push",
                   "push()/send() result discarded — both return false on a "
                   "closed target; check it or cast to (void) with a waiver")
        if core and WALL_CLOCK_RE.search(code):
            report("wall-clock",
                   "wall-clock construct in src/core/ — scheduling is "
                   "virtual-time only; real time needs a waiver naming why")
        if in_timer_scope(root, path):
            if ADHOC_TIMER_RE.search(code) or TIMER_INCLUDE_RE.search(raw):
                report("adhoc-timer",
                       "ad-hoc timer in core/gpusim — instrument with the "
                       "obs layer (HETSGD_TRACE_* spans, obs::WallStopwatch, "
                       "metrics registry) so the measurement is exported")
            elif not core and WALL_CLOCK_RE.search(code):
                report("adhoc-timer",
                       "raw clock read in src/gpusim/ — the device model is "
                       "virtual-time only; wall-time instrumentation goes "
                       "through the obs layer")
        if GPUSIM_INCLUDE_RE.search(raw) and not in_gpusim_seam(root, path):
            report("gpusim-include",
                   "direct gpusim include outside src/backend/ and "
                   "src/gpusim/ — go through the backend seam "
                   "(backend/backend.hpp, backend/device_model.hpp)")
        if in_ckpt_scope(root, path) and CKPT_OFSTREAM_RE.search(code):
            report("ckpt-ofstream",
                   "raw std::ofstream in checkpoint scope — durable state "
                   "must go through atomic_write_file (torn-write safety); "
                   "src/common/atomic_file.cpp is the sanctioned site")
        if NAKED_NEW_RE.search(code) and not allow_naked_new(root, path):
            report("naked-new",
                   "naked new/delete outside queue node internals — use "
                   "containers or unique_ptr")
        if STDOUT_RE.search(code) and "fprintf" not in code \
                and "snprintf" not in code and "vsnprintf" not in code \
                and "format(printf" not in code:
            report("stdout-logging",
                   "stdout write in src/ — diagnostics go through "
                   "HETSGD_LOG_* (stderr)")


def lint_gpusim_includes_outside_src(root: str,
                                     findings: list[Finding]) -> None:
    """Applies only the gpusim-include rule to tests/, bench/ and examples/
    (the full rule set is src/-scoped by design, but the backend seam must
    hold tree-wide or the equivalence suite quietly re-couples to gpusim)."""
    for top in ("tests", "bench", "examples"):
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                path = os.path.realpath(os.path.join(dirpath, name))
                try:
                    with open(path, encoding="utf-8", errors="replace") as f:
                        lines = f.read().splitlines()
                except OSError:
                    continue
                for i, raw in enumerate(lines):
                    if not GPUSIM_INCLUDE_RE.search(raw):
                        continue
                    if "gpusim-include" in waiver_rules(lines, i):
                        continue
                    findings.append(Finding(
                        "gpusim-include", path, i + 1,
                        "direct gpusim include outside src/backend/ and "
                        "src/gpusim/ — go through the backend seam "
                        "(backend/backend.hpp, backend/device_model.hpp)"))


def lint_tsan_supp(root: str, findings: list[Finding]) -> None:
    supp = os.path.join(root, "scripts", "tsan.supp")
    if not os.path.exists(supp):
        return
    src = os.path.join(root, "src")
    contents: dict[str, str] = {}
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in filenames:
            if name.endswith(CXX_EXTENSIONS):
                p = os.path.join(dirpath, name)
                try:
                    with open(p, encoding="utf-8", errors="replace") as f:
                        contents[p] = f.read()
                except OSError:
                    continue
    with open(supp, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            m = SUPP_RE.match(raw)
            if not m:
                continue
            symbol = m.group(1)
            # The last :: component that looks like an identifier must
            # appear in some source file. `operator=` is matched verbatim.
            leaf = symbol.rsplit("::", 1)[-1]
            defining = [p for p, text in contents.items() if leaf in text]
            if not defining:
                findings.append(Finding(
                    "tsan-supp-stale", supp, lineno,
                    f"suppressed symbol '{symbol}' not found anywhere in "
                    f"src/ — remove or update the entry"))
                continue
            if not any("hetsgd-racy" in contents[p] for p in defining):
                findings.append(Finding(
                    "tsan-supp-stale", supp, lineno,
                    f"suppressed symbol '{symbol}' has no 'hetsgd-racy' "
                    f"marker at any defining site — every suppression must "
                    f"point at a documented sanctioned race"))


def lint_test_registration(root: str, findings: list[Finding]) -> None:
    """Every tests/*_test.cpp must be named in tests/CMakeLists.txt
    (hetsgd_test(<stem>) or an explicit add_executable)."""
    tests_dir = os.path.join(root, "tests")
    cml = os.path.join(tests_dir, "CMakeLists.txt")
    if not os.path.isdir(tests_dir) or not os.path.exists(cml):
        return
    try:
        with open(cml, encoding="utf-8") as f:
            cml_text = f.read()
    except OSError:
        return
    for name in sorted(os.listdir(tests_dir)):
        if not name.endswith("_test.cpp"):
            continue
        stem = name[: -len(".cpp")]
        if re.search(rf"\b{re.escape(stem)}\b", cml_text):
            continue
        path = os.path.join(tests_dir, name)
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                lines = f.read().splitlines()
        except OSError:
            lines = []
        if "test-registration" in waiver_rules(lines, 0):
            continue
        findings.append(Finding(
            "test-registration", path, 1,
            f"{name} is not registered in tests/CMakeLists.txt — the test "
            f"never builds or runs; add hetsgd_test({stem}) (or waive it "
            f"with a reason if it is intentionally manual)"))


def run_lint(root: str, compile_commands: str | None) -> int:
    findings: list[Finding] = []
    for path in iter_source_files(root, compile_commands):
        lint_file(root, path, findings)
    lint_gpusim_includes_outside_src(root, findings)
    lint_tsan_supp(root, findings)
    lint_test_registration(root, findings)
    for f in findings:
        print(f.format(root))
    if findings:
        print(f"hetsgd-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("hetsgd-lint: clean")
    return 0


def self_test(root: str) -> int:
    """Lints the seeded-violation fixtures (must find every planted issue)
    and the clean fixture (must find none)."""
    fixtures = os.path.join(root, "tools", "lint", "fixtures")
    bad = os.path.join(fixtures, "src", "core", "violations.cpp")
    clean = os.path.join(fixtures, "src", "core", "clean.cpp")
    supp_root = fixtures
    failures: list[str] = []

    findings: list[Finding] = []
    lint_file(supp_root, bad, findings)
    lint_tsan_supp(supp_root, findings)
    lint_test_registration(supp_root, findings)
    got = {(f.rule, os.path.basename(f.path), f.line) for f in findings}

    expected = set()
    with open(bad, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            m = re.search(r"//\s*EXPECT:\s*([a-z0-9-]+)", line)
            if m:
                expected.add((m.group(1), os.path.basename(bad), lineno))
    tests_fix = os.path.join(supp_root, "tests")
    if os.path.isdir(tests_fix):
        for name in sorted(os.listdir(tests_fix)):
            if not name.endswith(".cpp"):
                continue
            with open(os.path.join(tests_fix, name), encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    m = re.search(r"//\s*EXPECT:\s*([a-z0-9-]+)", line)
                    if m:
                        expected.add((m.group(1), name, lineno))
    with open(os.path.join(supp_root, "scripts", "tsan.supp"),
              encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if "EXPECT-STALE" in line:
                expected.add(("tsan-supp-stale", "tsan.supp", lineno))

    missed = expected - got
    spurious = {g for g in got if g not in expected
                and not (g[0] == "tsan-supp-stale" and g[1] == "tsan.supp")}
    # Stale-supp findings are matched by rule+file only (line drift is fine)
    # when an EXPECT-STALE exists anywhere in the fixture supp file.
    stale_expected = any(e[0] == "tsan-supp-stale" for e in expected)
    stale_got = any(g[0] == "tsan-supp-stale" for g in got)
    missed = {e for e in missed if e[0] != "tsan-supp-stale"}
    if stale_expected and not stale_got:
        failures.append("tsan-supp-stale: planted stale entry not detected")

    for rule, name, line in sorted(missed):
        failures.append(f"{rule}: planted violation at {name}:{line} not "
                        f"detected")
    for rule, name, line in sorted(spurious):
        failures.append(f"{rule}: spurious finding at {name}:{line}")

    clean_findings: list[Finding] = []
    lint_file(supp_root, clean, clean_findings)
    for f in clean_findings:
        failures.append(f"clean fixture flagged: {f.format(supp_root)}")

    if failures:
        for msg in failures:
            print(f"hetsgd-lint self-test FAIL: {msg}", file=sys.stderr)
        return 1
    print(f"hetsgd-lint self-test OK "
          f"({len(expected)} planted violations detected, clean fixture clean)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this file)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json path "
                             "(default: <root>/build/compile_commands.json "
                             "if present)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the seeded fixtures instead of the tree")
    args = parser.parse_args()

    here = os.path.dirname(os.path.realpath(__file__))
    root = os.path.realpath(args.root) if args.root else \
        os.path.realpath(os.path.join(here, "..", ".."))
    if not os.path.isdir(os.path.join(root, "src")) and not args.self_test:
        print(f"hetsgd-lint: {root} has no src/ directory", file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(root)

    cc = args.compile_commands
    if cc is None:
        default_cc = os.path.join(root, "build", "compile_commands.json")
        cc = default_cc if os.path.exists(default_cc) else None
    return run_lint(root, cc)


if __name__ == "__main__":
    sys.exit(main())
