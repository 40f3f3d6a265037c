#!/usr/bin/env python3
"""Repo-invariant lint, run as a ctest (see CMakeLists.txt) and by the
static-analysis CI job.

Checks five invariants that neither the compiler nor the unit tests can
express on their own:

1. sync-wrappers: no naked std::mutex / std::lock_guard / std::scoped_lock /
   std::unique_lock / std::condition_variable (or pthread equivalents) under
   src/ outside common/annotated_sync.h. Every lock must be a grafics::Mutex
   so the Clang thread-safety analysis sees it.

2. protocol-freeze: the one supported wire dialect, kProtocolVersion, has
   a frozen-byte-layout assertion in tests/protocol_test.cc, marked by a
   `layout-frozen: v<k>` comment with k == kProtocolVersion. A version bump
   without pinning the new dialect's bytes fails here, so a layout change
   cannot ship without a test that notices the next one.

3. durable-rename: every ::rename( in src/store/ is preceded (within the
   same file, a few dozen lines above) by an fsync/fdatasync call — the
   crash-safe commit pattern (write temp, fsync, rename). A rename without a
   sync can surface as a zero-length manifest after power loss.

4. obs-instruments: every telemetry instrument resolved under src/
   (obs::Registry::GetCounter/GetGauge/GetHistogram with a literal name)
   matches grafics_[a-z0-9_]+ AND is cataloged in docs/observability.md.
   Dashboards and alerts are written against the doc; an undocumented
   instrument silently drifts out of both.

5. kernel-loops: no hand-rolled dot/axpy/squared-distance inner loops
   (subscripted multiply-accumulate) under src/ outside
   src/common/matrix.{h,cc} and src/common/simd*. Those loops belong in the
   vector-kernel layer (common/simd.h): a stray copy silently forks the
   one reduction order the bit-identity goldens pin.

Exit status 0 = all invariants hold; 1 = violations (printed one per line
as path:line: message). Run `tools/check_invariants.py --self-test` to
verify the lint itself still catches planted violations of each rule.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

BANNED_SYNC = re.compile(
    r"std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b"
    r"|std::lock_guard\b"
    r"|std::scoped_lock\b"
    r"|std::unique_lock\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|pthread_(?:mutex|cond)_"
)

PROTOCOL_VERSION = re.compile(
    r"kProtocolVersion\s*=\s*(\d+)"
)

FROZEN_MARKER = re.compile(r"layout-frozen:\s*v(\d+)\b")

RENAME_CALL = re.compile(r"::rename\s*\(")
FSYNC_CALL = re.compile(r"\bf(?:data)?sync\s*\(")

# An instrument resolution with a literal name; \s* spans newlines so a
# name wrapped to the next line by clang-format still matches.
OBS_RESOLVE = re.compile(r"Get(?:Counter|Gauge|Histogram)\s*\(\s*\"([^\"]*)\"")
OBS_NAME = re.compile(r"grafics_[a-z0-9_]+")

# How many lines above a ::rename the justifying fsync may sit. The store's
# WriteFileDurably pattern keeps them adjacent; the window only needs to
# cover one helper function body.
RENAME_FSYNC_WINDOW = 40

# Hand-rolled kernel loop shapes (rule 5). Subscripted operands only:
# Matrix's paren accessors (m(r, c)) are element-wise code, not a packed
# inner loop, and stay out of scope.
#   dot:  sum += a[i] * b[i]
KERNEL_DOT = re.compile(
    r"\+=\s*[A-Za-z_][\w.\->]*\[[^\]]+\]\s*\*\s*[A-Za-z_][\w.\->]*\[[^\]]+\]")
#   axpy: y[i] += alpha * x[i]
KERNEL_AXPY = re.compile(
    r"\[[^\]]+\]\s*\+=\s*[A-Za-z_][\w.\->]*\s*\*\s*"
    r"[A-Za-z_][\w.\->]*\[[^\]]+\]")
#   distance: d = a[i] - b[i]; ... sum += d * d;
KERNEL_SQUARE_ACC = re.compile(r"\+=\s*([A-Za-z_]\w*)\s*\*\s*\1\s*;")
KERNEL_SUBSCRIPT_DIFF = re.compile(
    r"=\s*[A-Za-z_][\w.\->]*\[[^\]]+\]\s*-\s*[A-Za-z_][\w.\->]*\[[^\]]+\]")
# Lines above a squared accumulation where its subscripted difference may sit.
KERNEL_DIFF_WINDOW = 3

KERNEL_EXEMPT = (
    "src/common/matrix.h",
    "src/common/matrix.cc",
    "src/common/simd",  # simd.h, simd.cc
)


def strip_comments(text: str) -> str:
    """Removes // and /* */ comments, preserving line structure so reported
    line numbers stay correct. String literals are left alone — good enough
    for the token-level checks here (none of the banned tokens appear in
    string literals in this codebase, and a false positive is a one-line
    fix)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                break
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def iter_source_files(root: str):
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "src")):
        for filename in sorted(filenames):
            if filename.endswith((".h", ".cc")):
                yield os.path.join(dirpath, filename)


def check_sync_wrappers(root: str) -> list[str]:
    problems = []
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root)
        if rel.replace(os.sep, "/") == "src/common/annotated_sync.h":
            continue
        with open(path, encoding="utf-8") as f:
            text = strip_comments(f.read())
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = BANNED_SYNC.search(line)
            if match:
                problems.append(
                    f"{rel}:{lineno}: naked {match.group(0)} — use "
                    "grafics::Mutex/MutexLock/CondVar from "
                    "common/annotated_sync.h"
                )
    return problems


def check_protocol_freeze(root: str) -> list[str]:
    header = os.path.join(root, "src", "serve", "protocol.h")
    test = os.path.join(root, "tests", "protocol_test.cc")
    with open(header, encoding="utf-8") as f:
        match = PROTOCOL_VERSION.search(f.read())
    if not match:
        return [f"{os.path.relpath(header, root)}: kProtocolVersion not found"]
    current = int(match.group(1))
    with open(test, encoding="utf-8") as f:
        frozen = {int(m.group(1)) for m in FROZEN_MARKER.finditer(f.read())}
    if current in frozen:
        return []
    return [
        f"tests/protocol_test.cc: no `layout-frozen: v{current}` "
        f"byte-layout assertion for protocol v{current} (kProtocolVersion; "
        "the supported dialect must keep a frozen-bytes test)"
    ]


def check_durable_rename(root: str) -> list[str]:
    problems = []
    store_dir = os.path.join(root, "src", "store")
    for dirpath, _dirnames, filenames in os.walk(store_dir):
        for filename in sorted(filenames):
            if not filename.endswith(".cc"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as f:
                lines = strip_comments(f.read()).splitlines()
            for lineno, line in enumerate(lines, start=1):
                if not RENAME_CALL.search(line):
                    continue
                window = lines[max(0, lineno - 1 - RENAME_FSYNC_WINDOW):
                               lineno - 1]
                if not any(FSYNC_CALL.search(w) for w in window):
                    problems.append(
                        f"{rel}:{lineno}: ::rename without a preceding "
                        f"fsync/fdatasync within {RENAME_FSYNC_WINDOW} lines "
                        "— commit pattern is write temp, fsync, rename"
                    )
    return problems


def check_obs_instruments(root: str) -> list[str]:
    problems = []
    doc_path = os.path.join(root, "docs", "observability.md")
    doc = None
    if os.path.exists(doc_path):
        with open(doc_path, encoding="utf-8") as f:
            doc = f.read()
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            text = strip_comments(f.read())
        for match in OBS_RESOLVE.finditer(text):
            name = match.group(1)
            lineno = text.count("\n", 0, match.start()) + 1
            if not OBS_NAME.fullmatch(name):
                problems.append(
                    f"{rel}:{lineno}: obs instrument name \"{name}\" does "
                    "not match grafics_[a-z0-9_]+"
                )
                continue
            if doc is None:
                problems.append(
                    f"{rel}:{lineno}: obs instrument \"{name}\" registered "
                    "but docs/observability.md does not exist"
                )
            elif not re.search(rf"\b{re.escape(name)}\b", doc):
                problems.append(
                    f"{rel}:{lineno}: obs instrument \"{name}\" is not "
                    "cataloged in docs/observability.md"
                )
    return problems


def check_kernel_loops(root: str) -> list[str]:
    problems = []
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if rel.startswith(KERNEL_EXEMPT):
            continue
        with open(path, encoding="utf-8") as f:
            lines = strip_comments(f.read()).splitlines()
        for lineno, line in enumerate(lines, start=1):
            kind = None
            if KERNEL_DOT.search(line):
                kind = "dot/multiply-accumulate"
            elif KERNEL_AXPY.search(line):
                kind = "axpy"
            elif KERNEL_SQUARE_ACC.search(line):
                window = lines[max(0, lineno - 1 - KERNEL_DIFF_WINDOW):
                               lineno - 1]
                if any(KERNEL_SUBSCRIPT_DIFF.search(w) for w in window):
                    kind = "squared-distance"
            if kind:
                problems.append(
                    f"{rel}:{lineno}: hand-rolled {kind} loop — route it "
                    "through the vector-kernel layer (common/simd.h or the "
                    "common/matrix.h wrappers)"
                )
    return problems


def run_checks(root: str) -> list[str]:
    problems = []
    problems += check_sync_wrappers(root)
    problems += check_protocol_freeze(root)
    problems += check_durable_rename(root)
    problems += check_obs_instruments(root)
    problems += check_kernel_loops(root)
    return problems


def self_test() -> int:
    """Plants one violation of each rule in a scratch tree and checks the
    lint reports all of them — the negative test proving the lint can fail."""
    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "src", "serve"))
        os.makedirs(os.path.join(root, "src", "store"))
        os.makedirs(os.path.join(root, "tests"))
        with open(os.path.join(root, "src", "serve", "bad_sync.cc"),
                  "w", encoding="utf-8") as f:
            f.write("#include <mutex>\n"
                    "// std::mutex in a comment must NOT trip the lint\n"
                    "std::mutex naked_mutex;\n"
                    "void F() { std::lock_guard<std::mutex> l(naked_mutex); }"
                    "\n")
        with open(os.path.join(root, "src", "serve", "protocol.h"),
                  "w", encoding="utf-8") as f:
            f.write("constexpr int kProtocolVersion = 7;\n")
        with open(os.path.join(root, "tests", "protocol_test.cc"),
                  "w", encoding="utf-8") as f:
            # Only retired dialects are pinned; the v7 marker is missing on
            # purpose.
            f.write("// layout-frozen: v6\n")
        with open(os.path.join(root, "src", "store", "bad_store.cc"),
                  "w", encoding="utf-8") as f:
            f.write("void Commit() {\n"
                    "  ::rename(\"tmp\", \"final\");  // no fsync before\n"
                    "}\n")
        os.makedirs(os.path.join(root, "docs"))
        with open(os.path.join(root, "docs", "observability.md"),
                  "w", encoding="utf-8") as f:
            f.write("# Telemetry\n\n`grafics_documented_total` is listed.\n")
        with open(os.path.join(root, "src", "serve", "bad_obs.cc"),
                  "w", encoding="utf-8") as f:
            f.write("void Wire(obs::Registry* r) {\n"
                    "  r->GetCounter(\"grafics_documented_total\", \"ok\");\n"
                    "  r->GetCounter(\"grafics_BadName_total\", \"bad\");\n"
                    "  r->GetGauge(\"grafics_undocumented_depth\", \"bad\");\n"
                    "}\n")
        os.makedirs(os.path.join(root, "src", "common"))
        with open(os.path.join(root, "src", "common", "matrix.cc"),
                  "w", encoding="utf-8") as f:
            # Exempt home of the reference loops: must NOT trip rule 5.
            f.write("double Dot(const double* a, const double* b, int n) {\n"
                    "  double sum = 0.0;\n"
                    "  for (int i = 0; i < n; ++i) sum += a[i] * b[i];\n"
                    "  return sum;\n"
                    "}\n")
        with open(os.path.join(root, "src", "serve", "bad_kernels.cc"),
                  "w", encoding="utf-8") as f:
            f.write("void F(const double* x, double* y, double a, int n) {\n"
                    "  double sum = 0.0;\n"
                    "  for (int i = 0; i < n; ++i) sum += x[i] * y[i];\n"
                    "  for (int i = 0; i < n; ++i) y[i] += a * x[i];\n"
                    "  for (int i = 0; i < n; ++i) {\n"
                    "    const double d = x[i] - y[i];\n"
                    "    sum += d * d;\n"
                    "  }\n"
                    "  // loss += diff * diff * scale below must NOT trip\n"
                    "  double diff = a - sum, scale = 0.5, loss = 0.0;\n"
                    "  loss += diff * diff * scale;\n"
                    "  (void)loss;\n"
                    "}\n")
        problems = run_checks(root)
        expected = [
            ("bad_sync.cc:3", "std::mutex"),
            ("bad_sync.cc:4", "std::lock_guard"),
            ("protocol_test.cc", "layout-frozen: v7"),
            ("bad_store.cc:2", "::rename without"),
            ("bad_obs.cc:3", "does not match grafics_[a-z0-9_]+"),
            ("bad_obs.cc:4", "not cataloged in docs/observability.md"),
            ("bad_kernels.cc:3", "dot/multiply-accumulate"),
            ("bad_kernels.cc:4", "axpy"),
            ("bad_kernels.cc:7", "squared-distance"),
        ]
        failures = []
        for needle_path, needle_msg in expected:
            if not any(needle_path in p and needle_msg in p
                       for p in problems):
                failures.append(
                    f"self-test: planted violation not caught: "
                    f"{needle_path} ({needle_msg})")
        comment_hits = [p for p in problems if "bad_sync.cc:2" in p]
        if comment_hits:
            failures.append("self-test: commented-out token tripped the lint")
        documented_hits = [p for p in problems if "bad_obs.cc:2" in p]
        if documented_hits:
            failures.append(
                "self-test: documented, well-named instrument tripped "
                "the obs lint")
        exempt_hits = [p for p in problems if "common/matrix.cc" in p]
        if exempt_hits:
            failures.append(
                "self-test: exempt common/matrix.cc tripped the "
                "kernel-loop lint")
        scaled_hits = [p for p in problems if "bad_kernels.cc:11" in p]
        if scaled_hits:
            failures.append(
                "self-test: scaled square accumulation (not a distance "
                "loop) tripped the kernel-loop lint")
        if failures:
            print("\n".join(failures))
            print("\nlint output was:")
            print("\n".join(problems) if problems else "  (empty)")
            return 1
    print("check_invariants self-test: all planted violations caught")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent dir)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the lint catches planted violations")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    problems = run_checks(root)
    if problems:
        print("\n".join(problems))
        print(f"\ncheck_invariants: {len(problems)} violation(s)")
        return 1
    print("check_invariants: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
