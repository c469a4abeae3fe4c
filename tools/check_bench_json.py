#!/usr/bin/env python3
"""Schema validator for the checked-in BENCH_*.json artifacts.

The bench harnesses (bench_micro_kernels, bench_ext_serve_scale,
bench_ext_quant_accuracy, bench_ext_pipeline_overlap) write
machine-readable artifacts that back
speedup/accuracy claims in DESIGN.md. CI runs this script against the
checked-in copies so a harness refactor cannot silently change an
artifact's shape (or drop the acceptance-bar fields) without the diff
showing up here.

Usage:
    tools/check_bench_json.py [FILE...]

With no arguments, validates every BENCH_*.json in the repository
root. Exits nonzero listing every violation; prints one OK line per
valid file. Only the stdlib is used.
"""

import json
import pathlib
import sys


class Checker:
    """Accumulates violations for one artifact."""

    def __init__(self, path):
        self.path = path
        self.errors = []

    def fail(self, msg):
        self.errors.append(f"{self.path}: {msg}")

    def require(self, obj, key, kinds, ctx=""):
        """Key present and of one of `kinds`; returns the value or None."""
        where = f"{ctx}.{key}" if ctx else key
        if not isinstance(obj, dict) or key not in obj:
            self.fail(f'missing "{where}"')
            return None
        val = obj[key]
        # bool is an int subclass; reject it where a number is expected.
        if isinstance(val, bool) and bool not in kinds:
            self.fail(f'"{where}" must be {kinds}, got bool')
            return None
        if not isinstance(val, tuple(kinds)):
            self.fail(f'"{where}" must be {kinds}, '
                      f"got {type(val).__name__}")
            return None
        return val

    def number(self, obj, key, ctx="", minimum=None):
        val = self.require(obj, key, [int, float], ctx)
        if val is not None and minimum is not None and val < minimum:
            self.fail(f'"{ctx}.{key}" = {val} < {minimum}')
        return val

    def rows(self, obj, key, min_rows=1, ctx=""):
        val = self.require(obj, key, [list], ctx)
        if val is None:
            return []
        if len(val) < min_rows:
            self.fail(f'"{key}" has {len(val)} rows, need >= {min_rows}')
        bad = [i for i, r in enumerate(val) if not isinstance(r, dict)]
        if bad:
            self.fail(f'"{key}" rows {bad} are not objects')
            return [r for r in val if isinstance(r, dict)]
        return val


def check_gemm(c, doc):
    """BENCH_gemm.json: the kernel-layer scaling sweep."""
    c.require(doc, "kernel", [str])
    for key in ("m", "n", "k"):
        c.number(doc, key, minimum=1)
    c.require(doc, "baseline", [str])
    c.number(doc, "baseline_ms", minimum=0)
    for i, row in enumerate(c.rows(doc, "results")):
        ctx = f"results[{i}]"
        c.number(row, "threads", ctx, minimum=1)
        c.number(row, "ms", ctx, minimum=0)
        c.number(row, "speedup_vs_baseline", ctx, minimum=0)
    c.require(doc, "int8_isa", [str])
    for i, row in enumerate(c.rows(doc, "int8_results")):
        ctx = f"int8_results[{i}]"
        c.number(row, "threads", ctx, minimum=1)
        c.number(row, "ms", ctx, minimum=0)
        c.number(row, "speedup_vs_fp32_packed", ctx, minimum=0)


def check_serve(c, doc):
    """BENCH_serve.json: the multi-stream serving scaling sweep."""
    c.require(doc, "engine", [str])
    c.number(doc, "frames_per_stream", minimum=1)
    c.number(doc, "budget_ms", minimum=0)
    for i, row in enumerate(c.rows(doc, "rows")):
        ctx = f"rows[{i}]"
        streams = c.number(row, "streams", ctx, minimum=1)
        frames = doc.get("frames_per_stream")
        admitted = c.number(row, "admitted", ctx, minimum=0)
        shed = c.number(row, "shed", ctx, minimum=0)
        for key in ("p50_ms", "p99_ms", "p9999_ms", "goodput_fps",
                    "shed_rate", "mean_batch_size"):
            c.number(row, key, ctx, minimum=0)
        c.require(row, "mode", [str], ctx)
        # Per-stream SLO summary (worst burn rate / window p99 across
        # streams, mean goodput ratio). worst_p99_ms may be the -1
        # sentinel when no stream's window resolved a p99.
        slo = c.require(row, "slo", [dict], ctx)
        if slo is not None:
            c.number(slo, "worst_burn_rate", f"{ctx}.slo", minimum=0)
            c.number(slo, "worst_p99_ms", f"{ctx}.slo", minimum=-1)
            ratio = c.number(slo, "mean_goodput_ratio", f"{ctx}.slo",
                             minimum=0)
            if ratio is not None and ratio > 1.0:
                c.fail(f"{ctx}.slo.mean_goodput_ratio {ratio} > 1")
        # Frame conservation: nothing admitted or shed beyond what
        # arrived (coasted frames absorb the remainder).
        if None not in (streams, frames, admitted, shed):
            arrived = streams * frames
            if admitted + shed > arrived:
                c.fail(f"{ctx}: admitted {admitted} + shed {shed} "
                       f"> arrived {arrived}")
    check_serve_overhead(c, doc)


def check_serve_overhead(c, doc):
    """The flight-recorder overhead block of BENCH_serve.json."""
    overhead = c.require(doc, "flight_overhead", [dict])
    if overhead is None:
        return
    c.number(overhead, "on_ms", "flight_overhead", minimum=0)
    c.number(overhead, "off_ms", "flight_overhead", minimum=0)
    pct = c.number(overhead, "overhead_pct", "flight_overhead",
                   minimum=0)
    # ISSUE 7 acceptance bar: recording costs < 5 % of the measured
    # serving run it instruments.
    if pct is not None and pct >= 5.0:
        c.fail(f"flight_overhead.overhead_pct {pct} >= 5")


def check_quant(c, doc):
    """BENCH_quant.json: the int8 accuracy/latency sweep.

    Beyond shape, this re-asserts the acceptance bars the artifact
    exists to document: kernel speedup >= 1.8x at 512^3, DET IoU
    degradation <= 2%, bitwise-deterministic int8 path.
    """
    c.require(doc, "int8_isa", [str])
    gemm = c.require(doc, "gemm", [dict])
    if gemm is not None:
        speedup = c.number(gemm, "serial_speedup", "gemm", minimum=0)
        if speedup is not None and speedup < 1.8:
            c.fail(f"gemm.serial_speedup {speedup} < 1.8")
        for i, row in enumerate(c.rows(gemm, "rows", ctx="gemm")):
            ctx = f"gemm.rows[{i}]"
            c.number(row, "threads", ctx, minimum=1)
            c.number(row, "fp32_ms", ctx, minimum=0)
            c.number(row, "int8_ms", ctx, minimum=0)
    det = c.require(doc, "determinism", [dict])
    if det is not None:
        for key in ("gemm_bitwise_identical", "det_boxes_identical"):
            val = c.require(det, key, [bool], "determinism")
            if val is False:
                c.fail(f"determinism.{key} is false")
    acc = c.require(doc, "det", [dict])
    if acc is not None:
        degradation = c.number(acc, "iou_degradation", "det")
        if degradation is not None and degradation > 0.02:
            c.fail(f"det.iou_degradation {degradation} > 0.02")
        for key in ("frames", "fp32_detections", "int8_detections"):
            c.number(acc, key, "det", minimum=0)
        for key in ("fp32_dnn_ms", "int8_dnn_ms", "dnn_speedup"):
            c.number(acc, key, "det", minimum=0)
    tra = c.require(doc, "tra", [dict])
    if tra is not None:
        c.number(tra, "mean_center_error_px", "tra", minimum=0)
        c.number(tra, "dnn_speedup", "tra", minimum=0)
    fusion = c.require(doc, "fusion", [dict])
    if fusion is not None:
        layers_fused = c.number(fusion, "layers_fused", "fusion",
                                minimum=0)
        if layers_fused is not None and layers_fused < 1:
            c.fail(f"fusion.layers_fused {layers_fused} < 1")
        c.number(fusion, "direct_convs", "fusion", minimum=0)
        for key in ("det_unfused_ms", "det_fused_ms",
                    "det_int8_unfused_ms", "det_int8_fused_ms"):
            c.number(fusion, key, "fusion", minimum=0)
        det_speedup = c.number(fusion, "det_speedup", "fusion",
                               minimum=0)
        if det_speedup is not None and det_speedup < 1.0:
            c.fail(f"fusion.det_speedup {det_speedup} < 1.0 "
                   "(fused path slower than unfused)")
        c.number(fusion, "det_int8_speedup", "fusion", minimum=0)
        identical = c.require(fusion, "bitwise_identical", [bool],
                              "fusion")
        if identical is False:
            c.fail("fusion.bitwise_identical is false")
        arena = c.require(fusion, "arena", [dict], "fusion")
        if arena is not None:
            for key in ("det_arena_bytes", "det_arena_values"):
                val = c.number(arena, key, "fusion.arena", minimum=0)
                if val is not None and val < 1:
                    c.fail(f"fusion.arena.{key} {val} < 1")
            allocs = c.number(arena, "alloc_events_per_frame",
                              "fusion.arena", minimum=0)
            if allocs is not None and allocs != 0:
                c.fail("fusion.arena.alloc_events_per_frame "
                       f"{allocs} != 0 (planned path allocates)")
    serve = c.require(doc, "serve", [dict])
    if serve is not None:
        for cell in ("fp32", "int8"):
            obj = c.require(serve, cell, [dict], "serve")
            if obj is not None:
                c.number(obj, "goodput_fps", f"serve.{cell}", minimum=0)
                c.number(obj, "p99_ms", f"serve.{cell}", minimum=0)
        c.number(serve, "goodput_ratio", "serve", minimum=0)


def check_pipeline(c, doc):
    """BENCH_pipeline.json: the frame-graph pipelining sweep.

    Beyond shape, re-asserts the pipelining acceptance bars: depth
    >= 2 sustains >= 1.3x the serial virtual throughput (the depth-1
    run's stage durations summed), the paced p99.99 pipelined latency
    holds the 100 ms budget at every depth, and every row is
    bitwise-reproducible (all depths across schedule seeds, depth 1
    also against the seed-0 serial reference run).
    """
    c.number(doc, "frames_paced", minimum=1)
    c.number(doc, "frames_saturated", minimum=1)
    budget = c.number(doc, "budget_ms", minimum=0)
    stages = c.require(doc, "stage_mean_ms", [dict])
    if stages is not None:
        for key in ("det", "tra", "loc", "fusion", "motplan"):
            c.number(stages, key, "stage_mean_ms", minimum=0)
    serial = c.require(doc, "serial", [dict])
    if serial is not None:
        c.number(serial, "throughput_fps", "serial", minimum=0)
        c.number(serial, "virtual_makespan_ms", "serial", minimum=0)
        p9999 = c.number(serial, "p9999_pipelined_ms", "serial",
                         minimum=0)
        if None not in (p9999, budget) and p9999 > budget:
            c.fail(f"serial.p9999_pipelined_ms {p9999} > budget "
                   f"{budget}")
    depths = set()
    for i, row in enumerate(c.rows(doc, "rows", min_rows=3)):
        ctx = f"rows[{i}]"
        depth = c.number(row, "depth", ctx, minimum=1)
        if depth is not None:
            depths.add(depth)
        c.number(row, "throughput_fps", ctx, minimum=0)
        speedup = c.number(row, "speedup_vs_serial", ctx, minimum=0)
        if (None not in (depth, speedup) and depth >= 2
                and speedup < 1.3):
            c.fail(f"{ctx}: depth {depth} speedup_vs_serial "
                   f"{speedup} < 1.3")
        p9999 = c.number(row, "p9999_pipelined_ms", ctx, minimum=0)
        if None not in (p9999, budget) and p9999 > budget:
            c.fail(f"{ctx}: p9999_pipelined_ms {p9999} > budget "
                   f"{budget}")
        c.number(row, "e2e_p9999_ms", ctx, minimum=0)
        c.number(row, "deadline_misses", ctx, minimum=0)
        identical = c.require(row, "bitwise_identical", [bool], ctx)
        if identical is False:
            c.fail(f"{ctx}: bitwise_identical is false")
    # The acceptance claim covers depths 1-3 specifically.
    for depth in (1, 2, 3):
        if depth not in depths:
            c.fail(f'"rows" has no entry for depth {depth}')


def check_fleet(c, doc):
    """BENCH_fleet.json: the fleet shard-scaling sweep.

    Beyond shape, re-asserts the ISSUE 9 acceptance bars: every
    multi-shard row at >= 512 streams (there must be at least one)
    holds the admitted fleet-wide p99.99 inside the budget, 1->4
    shard goodput at 512 streams is >= 0.8x linear, and the
    triple-run migration log and fleet summary are bitwise
    identical (over a non-empty migration log).
    """
    c.require(doc, "engine", [str])
    c.number(doc, "horizon_ms", minimum=1)
    budget = c.number(doc, "budget_ms", minimum=0)
    tail_rows = 0
    for i, row in enumerate(c.rows(doc, "rows", min_rows=3)):
        ctx = f"rows[{i}]"
        shards = c.number(row, "shards", ctx, minimum=1)
        streams = c.number(row, "streams", ctx, minimum=1)
        admitted = c.number(row, "admitted", ctx, minimum=0)
        shed = c.number(row, "shed", ctx, minimum=0)
        arrived = c.number(row, "arrived", ctx, minimum=0)
        p9999 = c.number(row, "p9999_ms", ctx, minimum=0)
        for key in ("streams_admitted", "goodput_fps",
                    "total_goodput_fps", "shed_rate", "epochs",
                    "migrations", "fleet_escalations"):
            c.number(row, key, ctx, minimum=0)
        if None not in (admitted, shed, arrived):
            if admitted + shed > arrived:
                c.fail(f"{ctx}: admitted {admitted} + shed {shed} "
                       f"> arrived {arrived}")
        # The fleet-scale tail bar: >= 512 streams over >= 2 shards
        # must hold the paper's budget at the admitted tier.
        if None not in (shards, streams, p9999, budget):
            if shards >= 2 and streams >= 512:
                tail_rows += 1
                if p9999 > budget:
                    c.fail(f"{ctx}: p9999_ms {p9999} > budget "
                           f"{budget} at {streams} streams x "
                           f"{shards} shards")
        shard_rows = c.rows(row, "shard_rows", ctx=ctx)
        if shards is not None and len(shard_rows) != shards:
            c.fail(f"{ctx}: shard_rows has {len(shard_rows)} "
                   f"entries, expected {shards}")
        for k, srow in enumerate(shard_rows):
            sctx = f"{ctx}.shard_rows[{k}]"
            for key in ("shard", "streams_final", "p9999_ms",
                        "goodput_fps", "burn_rate", "migrations_in",
                        "migrations_out"):
                c.number(srow, key, sctx, minimum=0)
    if tail_rows == 0:
        c.fail('"rows" has no multi-shard entry at >= 512 streams')
    scaling = c.require(doc, "scaling", [dict])
    if scaling is not None:
        c.number(scaling, "goodput_1shard_fps", "scaling", minimum=0)
        c.number(scaling, "goodput_4shard_fps", "scaling", minimum=0)
        ratio = c.number(scaling, "ratio_vs_linear", "scaling",
                         minimum=0)
        if ratio is not None and ratio < 0.8:
            c.fail(f"scaling.ratio_vs_linear {ratio} < 0.8")
    det = c.require(doc, "determinism", [dict])
    if det is not None:
        for key in ("migration_log_identical", "summary_identical"):
            val = c.require(det, key, [bool], "determinism")
            if val is False:
                c.fail(f"determinism.{key} is false")
        moves = c.number(det, "migrations", "determinism", minimum=0)
        if moves is not None and moves < 1:
            c.fail("determinism.migrations is 0 (the identity check "
                   "ran over an empty migration log)")


def check_map(c, doc):
    """BENCH_map.json: the map-service scaling sweep.

    Beyond shape, re-asserts the ISSUE 10 acceptance bars: every
    prefetch-on row has zero steady-state cold-tile stalls while the
    no-prefetch baseline at >= 256 vehicles stalls steadily, demand
    p99 holds the budget at >= 256 vehicles with prefetch on, the
    update loop ends with strictly less map error than a frozen map
    over a transport that compresses, and the triple-run version log
    and summary are bitwise identical over a non-empty log.
    """
    c.number(doc, "horizon_ms", minimum=1)
    budget = c.number(doc, "budget_ms", minimum=0)
    prefetch_rows = 0
    latency_rows = 0
    baseline_steady = 0
    for i, row in enumerate(c.rows(doc, "rows", min_rows=4)):
        ctx = f"rows[{i}]"
        vehicles = c.number(row, "vehicles", ctx, minimum=1)
        prefetch = c.require(row, "prefetch", [bool], ctx)
        frames = c.number(row, "frames", ctx, minimum=1)
        warm = c.number(row, "warm", ctx, minimum=0)
        stalled = c.number(row, "stalled", ctx, minimum=0)
        steady = c.number(row, "steady_stalls", ctx, minimum=0)
        cold = c.number(row, "cold_starts", ctx, minimum=0)
        p99 = c.number(row, "demand_p99_ms", ctx, minimum=0)
        for key in ("prefetch_issued", "prefetch_late",
                    "stale_reads", "hit_rate", "fetch_p99_ms",
                    "stall_p99_ms", "cache_hits", "cache_misses"):
            c.number(row, key, ctx, minimum=0)
        ratio = c.number(row, "compression_ratio", ctx, minimum=0)
        if ratio is not None and ratio <= 1.0:
            c.fail(f"{ctx}: compression_ratio {ratio} <= 1")
        # Frame conservation and the stall split (coasted frames
        # absorb the remainder of warm + stalled).
        if None not in (frames, warm, stalled):
            if warm + stalled > frames:
                c.fail(f"{ctx}: warm {warm} + stalled {stalled} "
                       f"> frames {frames}")
        if None not in (steady, cold, stalled):
            if steady + cold != stalled:
                c.fail(f"{ctx}: steady {steady} + cold {cold} "
                       f"!= stalled {stalled}")
        if None in (vehicles, prefetch, steady, p99, budget):
            continue
        if prefetch:
            prefetch_rows += 1
            # The headline zero bar: pose-driven prefetch leaves no
            # steady-state cold-tile stalls at any fleet size.
            if steady != 0:
                c.fail(f"{ctx}: steady_stalls {steady} != 0 with "
                       "prefetch on")
            if vehicles >= 256:
                latency_rows += 1
                if p99 > budget:
                    c.fail(f"{ctx}: demand_p99_ms {p99} > budget "
                           f"{budget} at {vehicles} vehicles")
        elif vehicles >= 256:
            baseline_steady += steady
    if prefetch_rows == 0:
        c.fail('"rows" has no prefetch-on entry')
    if latency_rows == 0:
        c.fail('"rows" has no prefetch-on entry at >= 256 vehicles')
    if baseline_steady == 0:
        c.fail("no-prefetch baseline at >= 256 vehicles has zero "
               "steady stalls (the zero bar proves nothing)")
    conv = c.require(doc, "convergence", [dict])
    if conv is not None:
        err_on = c.number(conv, "final_err_updates_on",
                          "convergence", minimum=0)
        err_off = c.number(conv, "final_err_updates_off",
                           "convergence", minimum=0)
        if None not in (err_on, err_off) and err_on >= err_off:
            c.fail(f"convergence: final_err_updates_on {err_on} >= "
                   f"final_err_updates_off {err_off}")
        c.number(conv, "peak_err_bits", "convergence", minimum=0)
        for key in ("updates_pushed", "updates_merged"):
            val = c.number(conv, key, "convergence", minimum=0)
            if val is not None and val < 1:
                c.fail(f"convergence.{key} is 0 (the update loop "
                       "never ran)")
        ratio = c.number(conv, "compression_ratio", "convergence",
                         minimum=0)
        if ratio is not None and ratio <= 1.0:
            c.fail(f"convergence.compression_ratio {ratio} <= 1")
        if c.require(conv, "pass", [bool], "convergence") is False:
            c.fail("convergence.pass is false")
    det = c.require(doc, "determinism", [dict])
    if det is not None:
        for key in ("version_log_identical", "summary_identical"):
            val = c.require(det, key, [bool], "determinism")
            if val is False:
                c.fail(f"determinism.{key} is false")
        epochs = c.number(det, "merge_epochs", "determinism",
                          minimum=0)
        if epochs is not None and epochs < 1:
            c.fail("determinism.merge_epochs is 0 (the identity "
                   "check ran over an empty version log)")


CHECKERS = {
    "BENCH_gemm.json": check_gemm,
    "BENCH_fleet.json": check_fleet,
    "BENCH_map.json": check_map,
    "BENCH_serve.json": check_serve,
    "BENCH_quant.json": check_quant,
    "BENCH_pipeline.json": check_pipeline,
}


def check_file(path):
    c = Checker(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        c.fail(str(e))
        return c.errors
    if not isinstance(doc, dict):
        c.fail("top level is not an object")
        return c.errors
    checker = CHECKERS.get(path.name)
    if checker is None:
        c.fail(f"no schema registered for {path.name}; add one to "
               "tools/check_bench_json.py")
        return c.errors
    checker(c, doc)
    return c.errors


def main(argv):
    root = pathlib.Path(__file__).resolve().parent.parent
    if len(argv) > 1:
        paths = [pathlib.Path(a) for a in argv[1:]]
    else:
        paths = sorted(root.glob("BENCH_*.json"))
    if not paths:
        print("check_bench_json: no BENCH_*.json artifacts found",
              file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        errors = check_file(path)
        if errors:
            failures += 1
            for e in errors:
                print(f"FAIL {e}", file=sys.stderr)
        else:
            print(f"OK   {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
