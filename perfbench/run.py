#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload bert48-chaos --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the repository's src/ tree
plus the benchmark program) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only rebuild
what changed. All build output goes to stderr, so the last line of stdout is
perfbench's JSON result.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("vgg16-bwdrop", "bert48-chaos", "sweep-fleet")
# A measurement run is sized to end well within this; a hung one is killed.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or str(ROOT / ".bench_build")
    return Path(base).resolve() / "perfbench"


def call(cmd, timeout=None):
    """Run cmd with its output on stderr; exit with its code on failure."""
    try:
        code = subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {cmd[0]}")
        sys.exit(124)
    if code != 0:
        log(f"failed ({code}): {' '.join(str(c) for c in cmd)}")
        sys.exit(code)


def build(target):
    if not (ROOT / "src" / "sim" / "simulator.hpp").is_file():
        log(f"no autopipe sources under {ROOT / 'src'}; run from a full checkout")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        call(["cmake", "-S", BENCH, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = min(4, os.cpu_count() or 1)
    call(["cmake", "--build", out, "--parallel", jobs, "--target", target])
    return out / target


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout is not
    necessarily a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", BENCH) for p in d.rglob("*")
             if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's arithmetic tests")
    args = ap.parse_args()
    if args.self_test:
        call([build("perfbench_test")])
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    exe = build("perfbench")
    out = build_dir() / "out"
    out.mkdir(parents=True, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--out-dir", out, "--source-digest", source_digest()]
    try:
        return subprocess.run([str(c) for c in cmd],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"measurement exceeded {RUN_TIMEOUT_S} s")
        return 124


if __name__ == "__main__":
    sys.exit(main())
