"""End-to-end reconciliation benchmark: one workload, one seed, one report.

Usage, from the repository root::

    python3 e2ebench/run.py --workload emd-grid --seed 1 --seconds 20 --trace 0

Set-up turns the seed into the workload's inputs, builds the protocol
objects and runs one warm-up op on a fixed input; it is repeated and its
median reported as ``setup_s``.  The timed loop then runs ops until they
have taken ``--seconds`` (and at least one pass over the input pool).  Every output is checked
(:mod:`checks`): failed ops are counted, an incorrect output exits 1.
The end-to-end timings are read on the host-speed reference clock of
:mod:`hostclock`; their wall-clock values are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits the
time in two: an untraced half, then a half with the outside-in span
recorder (:mod:`spans`) installed, and reports the per-layer metrics,
the tracing overhead and the recorder's coverage.  Human-readable lines
come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 5

LAYERS = ("lsh", "hashing", "iblt", "protocol", "reconcile", "setsofsets", "server",
          "store", "metric")


def _import_program():
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def host_facts() -> dict:
    import numpy

    from repro.iblt._kernels import resolve_kernel_mode
    from repro.iblt.backend import default_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": default_backend(),
        "kernels": resolve_kernel_mode(),
    }


def tail(latencies: "list[float]") -> "tuple[float, int, int]":
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  Below 40 samples
    that percentile would fall under p75, so the maximum (p100, no
    samples beyond) stands in.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    rank = count - 10 if count >= 40 else count
    return ordered[rank - 1], (100 * rank) // count, count - rank


def setup(cls, seed: int, checker, clock):
    """Set up ``SETUP_REPEATS`` times; return the last workload, the median
    set-up time on ``clock`` and the warm-up outcome."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts from the same collector state
        clock.mark()
        began = time.perf_counter()
        workload = cls()
        workload.setup(seed)
        warm = workload.warm_up()
        ended = time.perf_counter()
        clock.mark()
        times.append(clock.span(began, ended))
        checker.check(warm)  # also pins the warm-up digest across repeats
    return workload, statistics.median(times), warm


def first_pass(samples, pool_size: int) -> list:
    """The outcome of each pool input's first run (deterministic metrics)."""
    first = {}
    for _, outcome in samples:
        if outcome.key < pool_size:
            first.setdefault(outcome.key, outcome)
    return [first[key] for key in sorted(first)]


def end_to_end(workload, result, clock, setup_s: float) -> "tuple[dict, dict]":
    samples, wall = result.samples(clock.span), result.wall(clock.span)
    latencies = [latency for latency, _ in samples]
    tail_s, percentile, beyond = tail(latencies)
    firsts = first_pass(samples, workload.pool_size)
    metrics = {
        "recon_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "recon_ms_tail": (1e3 * tail_s, "ms"),
        "recon_per_s": (len(samples) / wall, "ops/s"),
        "bits_per_recon": (statistics.fmean(o.bits for o in firsts), "bits"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall_latencies = [latency for latency, _ in result.samples()]
    extra = {
        "recon_ms_tail percentile": f"p{percentile} ({beyond} of {len(samples)} samples beyond)",
        "host slowdown (median probe time / PROBE_REF_S)": clock.slowdown,
        "wall-clock recon_ms_p50": 1e3 * statistics.median(wall_latencies),
        "wall-clock recon_ms_tail": 1e3 * tail(wall_latencies)[0],
        "wall-clock recon_per_s": len(samples) / result.wall(),
        "failed_frac": sum(o.failed for o in firsts) / len(firsts),
        "ops": len(samples),
        "pool": workload.pool_size,
    }
    wire = [o.wire_bytes for o in firsts if o.wire_bytes is not None]
    if wire:
        extra["wire_bytes_per_recon"] = statistics.fmean(wire)
    ratios = [o.emd_ratio for o in firsts if o.emd_ratio is not None]
    if ratios:
        extra["emd_ratio"] = statistics.median(ratios)
    return metrics, extra


def per_layer(workload, recorder, traced, untraced, clock) -> dict:
    """Per-op layer metrics from the traced half of the run, in wall
    seconds like the recorder's spans; the deterministic ones come from
    the untraced half's first pass.  The tracing overhead compares the
    two halves on the reference clock, so host drift between them cancels."""
    samples, wall = traced.samples(), traced.wall()
    ops = len(samples)
    self_s, counts = recorder.self_s, recorder.counts

    def stat(name) -> int:
        return sum(o.stats.get(name, 0) for _, o in samples)

    layer_s = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + "."))
               for layer in LAYERS}
    named = sum(layer_s.values())
    sessions = [(lat, o) for lat, o in samples if "frames_lost" in o.stats]
    attempts = stat("attempts")
    serves = counts.get("store.serves", 0)
    decodes = counts.get("iblt.decodes", 0)
    firsts = first_pass(untraced.samples(), workload.pool_size)
    ratios = [o.emd_ratio for o in firsts if o.emd_ratio is not None]
    per_op = lambda value: value / ops

    metrics = {name: (per_op(self_s.get(name, 0.0)), "s/op") for name in (
        "lsh.keys_s", "hashing.prefix_s", "hashing.rows_s", "hashing.keys_s",
        "iblt.build_s", "iblt.subtract_s", "iblt.peel_s",
        "protocol.encode_s", "protocol.parse_s", "protocol.frame_s",
        "reconcile.strata_s", "setsofsets.self_s", "server.workload_s", "server.sketch_s",
        "store.mutate_s", "store.serve_s", "store.put_s", "metric.repair_s",
    )}
    metrics.update({
        "hashing.items": (per_op(counts.get("hashing.items", 0)), "count/op"),
        "iblt.decodes": (per_op(decodes), "count/op"),
        "iblt.decode_ok_ratio": (counts.get("iblt.decodes_ok", 0) / decodes if decodes else 0.0,
                                 "ratio"),
        "iblt.recovered": (per_op(counts.get("iblt.recovered", 0)), "count/op"),
        "protocol.bytes": (per_op(counts.get("protocol.bytes", 0)), "bytes/op"),
        "protocol.frames": (per_op(counts.get("protocol.frames", 0)), "count/op"),
        "reconcile.attempts": (per_op(attempts), "count/op"),
        "reconcile.escalations": (per_op(stat("escalations")), "count/op"),
        "reconcile.strata_fallbacks": (per_op(stat("strata_fallbacks")), "count/op"),
        "reconcile.attempt_ok_ratio": (stat("successes") / attempts if attempts else 0.0,
                                       "ratio"),
        "server.wait_s": (
            statistics.fmean(lat - recorder.own_s.get(o.key, 0.0) for lat, o in sessions)
            if sessions else 0.0, "s/op"),
        "server.frames_lost": (per_op(stat("frames_lost")), "count/op"),
        "server.rerequests": (per_op(stat("rerequests")), "count/op"),
        "server.wire_bytes_per_recon": (
            statistics.fmean(o.wire_bytes for o in firsts) if sessions else 0.0, "bytes"),
        "store.hit_ratio": (stat("store_hits") / serves if serves else 0.0, "ratio"),
        "store.keys_hashed": (per_op(stat("keys_hashed")), "count/op"),
        "stream.syncs": (per_op(stat("syncs")), "count/op"),
        "stream.sync_failures": (per_op(stat("decode_failures")), "count/op"),
        "stream.events_shipped": (per_op(stat("events_shipped")), "count/op"),
        "metric.emd_ratio": (statistics.median(ratios) if ratios else 0.0, "ratio"),
        "core.self_s": (per_op(wall - named), "s/op"),
        "trace.coverage_ratio": (named / wall, "ratio"),
        "trace.overhead_ratio": (
            len(untraced.ops) / untraced.wall(clock.span) / (ops / traced.wall(clock.span)),
            "ratio"),
        "trace.spans": (per_op(recorder.spans), "count/op"),
    })
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (layer_s[layer] / wall, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from checks import IncorrectOutput, OutputChecker, self_test
    from hostclock import HostClock
    from spans import SpanRecorder, op_scope
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    checker = OutputChecker(args.workload)
    clock = HostClock()
    try:
        workload, setup_s, warm = setup(WORKLOADS[args.workload], args.seed, checker, clock)
        self_test(args.workload, warm)
        gc.collect()
        if args.trace:
            untraced = workload.run(args.seconds / 2, op_scope, checker.check, clock)
            with SpanRecorder() as recorder:
                result = workload.run(
                    args.seconds / 2, op_scope, checker.check, clock, full_pass=False
                )
        else:
            result = workload.run(args.seconds, op_scope, checker.check, clock)
    except IncorrectOutput as exc:
        print(f"INCORRECT OUTPUT: {exc}", file=sys.stderr)
        return 1

    samples = result.samples()
    if args.trace:
        metrics = per_layer(workload, recorder, result, untraced, clock)
        extra = {"ops": len(samples)}
    else:
        metrics, extra = end_to_end(workload, result, clock, setup_s)
    pass_digest = sorted(
        (k, v) for k, v in checker.digests.items() if 0 <= k < workload.pool_size
    )
    extra["first_pass_digest"] = hashlib.sha256(json.dumps(pass_digest).encode()).hexdigest()[:16]
    extra.update(host_facts())

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    for name, value in extra.items():
        print(f"# {name}: {value}")
    failed = sum(o.failed for _, o in samples)
    print(json.dumps({
        "correct": True,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
