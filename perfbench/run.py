#!/usr/bin/env python3
"""End-to-end benchmark of the autonomous-driving stack.

Run from the repository root:

    python3 perfbench/run.py --workload drive_urban --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --record   # re-record perfbench/digests.txt

Builds perfbench/ and the repository libraries it links into
.bench_build/ (first run only; later runs rebuild incrementally),
runs one workload in one process and relays its output. The last line
of standard output is the JSON result. Workloads, metrics and bounds
are listed in BENCHMARK.json; perfbench/NOTES.md explains them.
"""

import argparse
import concurrent.futures
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "adbench")
DIGESTS = os.path.join(HERE, "digests.txt")
WORKLOADS = ("drive_urban", "serve_det_int8")
VARIANTS = 8          # seeds map onto this many recorded input sets
RUN_TIMEOUT_S = 170   # one workload run, build excluded
RECORD_TIMEOUT_S = 1800  # one recording run (8,000 frames on drive)


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    os.makedirs(BUILD, exist_ok=True)
    # Serialise concurrent invocations on one build directory.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                            "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def adbench(args, capture, timeout=RUN_TIMEOUT_S):
    """Run the adbench binary; returns (exit code, stdout text)."""
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, timeout=timeout,
                           stdout=subprocess.PIPE if capture else None,
                           text=True)
    except subprocess.TimeoutExpired:
        fail("adbench %s timed out after %d s" % (" ".join(args),
                                                  timeout), 3)
    return r.returncode, r.stdout or ""


def record():
    """Recompute every workload's digests for every seed variant."""
    jobs = [(w, v) for w in WORKLOADS for v in range(VARIANTS)]

    def one(job):
        w, v = job
        code, out = adbench(["--workload", w, "--seed", str(v),
                             "--seconds", "1", "--trace", "0",
                             "--record", "1"], capture=True,
                            timeout=RECORD_TIMEOUT_S)
        if code != 0:
            fail("recording %s variant %d failed" % (w, v))
        return [l[len("record: "):] for l in out.splitlines()
                if l.startswith("record: ")]

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        lines = [l for ls in pool.map(one, jobs) for l in ls]
    with open(DIGESTS, "w") as f:
        f.write("# <workload> <seed variant> <checkpoint> <FNV-1a 64>\n"
                "# written by: python3 perfbench/run.py --record\n")
        f.write("\n".join(lines) + "\n")
    print("recorded %d digests into %s" % (len(lines), DIGESTS))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record the digests file and exit")
    a = ap.parse_args()
    build()
    if a.record:
        record()
        return 0
    if not a.workload:
        fail("--workload is required")
    trace_out = os.path.join(BUILD, "traces",
                             "%s-seed%d.json" % (a.workload, a.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    code, _ = adbench(["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", repr(a.seconds),
                       "--trace", str(a.trace), "--trace-out", trace_out,
                       "--digests", DIGESTS, "--commit", source_id()],
                      capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
