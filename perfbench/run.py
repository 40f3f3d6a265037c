#!/usr/bin/env python3
"""Build and run the GRAFICS end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-light --seed 1 --seconds 20 --trace 0

Builds the library, the shipped grafics_served daemon and the benchmark
binary from source into the build directory (``$CARGO_TARGET_DIR`` when set,
else ``.bench_build``), then runs the binary. Every line it prints is passed
through; the last line is the JSON result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-light", "serve-heavy", "ingest-mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(configured)
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures and builds into `out`; the log goes to out/build.log."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no GRAFICS sources under {ROOT}; run from a full checkout")
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = out / "build.log"
    commands = [["cmake", "--build", str(out), "-j", jobs, "--target",
                 "grafics_served", "grafics_perfbench"]]
    # A configured tree re-runs cmake by itself when a build file changed.
    if not (out / "CMakeCache.txt").is_file():
        commands.insert(0, ["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for command in commands:
            if subprocess.run(command, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as done:
                    sys.stderr.write(done.read()[-4000:])
                fail("build failed")
    return out / "grafics" / "grafics_served", out / "grafics_perfbench"


def source_digest():
    """SHA-256 over the library, daemon and build sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For perfbench/test_gate.py only: corrupt one served answer; write the
    # run's Checkpoint before the restarts instead of after them.
    parser.add_argument("--inject-mismatch", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--checkpoint-before-restart", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    out = build_dir()
    daemon, binary = build(out)
    work_dir = out / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--daemon", str(daemon), "--work-dir", str(work_dir),
        "--out-dir", str(out / "results"), "--git-sha", git_sha(),
        "--source-digest", source_digest(),
    ]
    if args.inject_mismatch:
        command.append("--inject-mismatch")
    if args.checkpoint_before_restart:
        command.append("--checkpoint-before-restart")
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0:
        # The benchmark's own status passes through: 3 means a served answer
        # disagreed with the in-process reference.
        sys.stdout.write("".join(line + "\n" for line in lines
                                 if not line.startswith("{")))
        print(f"perfbench: benchmark exited with status {result.returncode}",
              file=sys.stderr)
        sys.exit(result.returncode if result.returncode > 0 else 2)
    try:
        final = json.loads(lines[-1])
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("benchmark printed no result line")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
