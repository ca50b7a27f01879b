#!/usr/bin/env python3
"""Build and run one workload of the ttmcas benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the checkout's src/) in Release mode under
.bench_build/ (or $CARGO_TARGET_DIR, when it is a path inside the
checkout); later runs rebuild only what changed. The harness prints
detail lines, an environment stamp and, as the last line of standard
output, one JSON object {correct, attempted, failed, metrics}. The exit
code is non-zero when the build fails or any output check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("serve_cold_mix", "serve_hot_small", "cache_study")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_root():
    """The build directory root, kept inside the checkout."""
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = (ROOT / configured).resolve()
    if ROOT != path and ROOT not in path.parents:
        path = ROOT / ".bench_build"
    return path


def build_dir():
    return build_root() / "perfbench"


def binary_path():
    return build_dir() / "ttmcas_perfbench"


def run_logged(command, log, timeout):
    """Run a build step with its output in @p log; True on success."""
    # Compiler temporaries stay inside the checkout too.
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "w") as out:
        try:
            result = subprocess.run(command, cwd=ROOT, stdout=out,
                                    stderr=subprocess.STDOUT, env=env,
                                    timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            return False
    return result.returncode == 0


def build():
    """Configure (once) and build the harness; exits 1 on failure."""
    directory = build_dir()
    directory.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (directory / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(directory),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(directory), "-j", jobs,
                  "--target", "ttmcas_perfbench"])
    log = directory / "build.log"
    for step in steps:
        if not run_logged(step, log, BUILD_TIMEOUT_S):
            tail = log.read_text(errors="replace").splitlines()[-30:]
            sys.stderr.write("perfbench: build failed:\n" +
                             "\n".join(tail) + "\n")
            sys.exit(1)


def source_digest():
    """sha256 over the library and benchmark sources (first 16 hex)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30,
                                check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() or "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.stderr.write("perfbench: no ttmcas sources at src/ in " +
                         str(ROOT) + "\n")
        return 1
    build()
    work_dir = build_root() / "perfbench-work" / args.workload
    command = [str(binary_path()),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(work_dir),
               "--digests", str(BENCH_DIR / "cache_study_digests.txt"),
               "--git-commit", git_commit(),
               "--source-digest", source_digest()]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S,
                                check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
