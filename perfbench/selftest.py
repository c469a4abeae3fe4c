#!/usr/bin/env python3
"""Short self-test of the benchmark (one to two minutes).

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and checks:
- the six end-to-end metrics print with BENCHMARK.json's units and
  are positive;
- the host fingerprint, the tail percentile with n, the yardstick's
  host speed, the raw times and the digest verdict are printed, and
  the digest check passes;
- the traced run prints every per-layer metric, and on drive_* the
  stage times plus pipeline.unattributed_ms equal pipeline.frame_ms,
  and the tracing overhead is reported;
- a tampered digest fails the run;
- a directory holding only BENCHMARK.json and perfbench/ fails
  without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
STAGES = ("detect.det_ms", "track.tra_ms", "slam.loc_ms",
          "fusion.fusion_ms", "planning.motplan_ms",
          "pipeline.unattributed_ms")


def check(cond, what):
    if not cond:
        print("selftest FAILED: " + what)
        sys.exit(1)


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                       timeout=600)
    return r.returncode, r.stdout.splitlines(), r.stderr


def result(lines):
    res = json.loads(lines[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          "result keys %s" % sorted(res))
    return res


def expect_metrics(res, table, what):
    got = res["metrics"]
    check(list(got) == [m["name"] for m in table],
          "%s metric names %s" % (what, list(got)))
    for m in table:
        check(got[m["name"]]["unit"] == m["unit"],
              "%s unit of %s" % (what, m["name"]))


def line(lines, prefix, what):
    hits = [l for l in lines if l.startswith(prefix)]
    check(hits, "%s: no '%s' line" % (what, prefix))
    return hits[0]


def main():
    for wl in (w["name"] for w in BENCH["workloads"]):
        code, out, err = run(ROOT, wl, 0)
        check(code == 0, "%s untraced exit %d\n%s" % (wl, code, err[-2000:]))
        res = result(out)
        check(res["correct"] and res["failed"] == 0 and
              res["attempted"] >= 1, "%s untraced verdict" % wl)
        expect_metrics(res, BENCH["end_to_end"], wl)
        check(all(v["value"] > 0 for v in res["metrics"].values()),
              "%s: a zero end-to-end metric" % wl)
        line(out, "host: nproc=", wl)
        check("OK" in line(out, "digest:", wl), "%s digest" % wl)
        check("supported" in line(out, "tail: p", wl) and
              "n=" in line(out, "tail: p", wl), "%s tail line" % wl)
        check("host factor" in line(out, "host speed:", wl),
              "%s host speed line" % wl)
        line(out, "raw:", wl)

        code, out, err = run(ROOT, wl, 1)
        check(code == 0, "%s traced exit %d\n%s" % (wl, code, err[-2000:]))
        res = result(out)
        check(res["correct"], "%s traced verdict" % wl)
        expect_metrics(res, BENCH["per_layer"], wl + " traced")
        line(out, "tracing overhead:", wl)
        if wl.startswith("drive"):
            m = {k: v["value"] for k, v in res["metrics"].items()}
            total = sum(m[s] for s in STAGES)
            check(abs(total - m["pipeline.frame_ms"]) <=
                  1e-6 * m["pipeline.frame_ms"],
                  "%s: stages %.6f != frame %.6f" %
                  (wl, total, m["pipeline.frame_ms"]))
            check(line(out, "reconcile:", wl).endswith("(OK)"),
                  "%s reconcile line" % wl)
        print("selftest: %s ok" % wl)

    # A tampered digest must fail the run.
    os.makedirs(SCRATCH, exist_ok=True)
    tampered = os.path.join(SCRATCH, "digests.txt")
    with open(os.path.join(HERE, "digests.txt")) as f:
        rows = f.read().splitlines()
    with open(tampered, "w") as f:
        for r in rows:
            if r.startswith("drive_urban 1 1 "):
                r = r[:-1] + ("0" if r[-1] != "0" else "1")
            f.write(r + "\n")
    # run.py always checks perfbench/digests.txt, so run the binary it
    # built directly.
    r = subprocess.run([os.path.join(ROOT, ".bench_build", "adbench"),
                        "--workload", "drive_urban", "--seed", "1",
                        "--seconds", "1", "--trace", "0",
                        "--digests", tampered],
                       cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    code, out = r.returncode, r.stdout.splitlines()
    res = result(out)
    check(code != 0 and not res["correct"] and res["failed"] > 0,
          "tampered digest was not detected")
    print("selftest: tampered digest detected")

    # Without the repository's sources the benchmark must fail cleanly.
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = run(bare, "drive_urban", 0)
    check(code != 0 and not any(l.startswith("{") for l in out),
          "bare directory did not fail cleanly")
    shutil.rmtree(bare)
    print("selftest: bare directory fails cleanly")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
