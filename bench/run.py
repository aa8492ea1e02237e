"""defosc benchmark: one workload, one seed, a closed loop of checked operations.

    python3 bench/run.py --workload tables --seed 1 --seconds 25 --trace 0

One caller issues each operation only after the previous one returned.
References are computed and outputs checked between operations, with the
clock stopped; the loop runs whole periods of the workload until the
operations themselves have taken about --seconds.  Times are reported at
reference machine speed (see speed.py); the result file also keeps them
as measured.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with --trace 1
the same operations run once untraced and once traced, and the per-layer
metrics are reported instead.  A result file with the environment goes to
bench/results/.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy loads; the setting is recorded in results
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
SETUP_CALIBRATIONS = 5
# a run holds at least this many operations, so its 90th percentile has ten
# samples beyond it
MIN_OPERATIONS = 100
# verify.max_margin for a failed zero-tolerance case, whose ratio is infinite
FAILED_EXACT_MARGIN = 1e9


def _import_defosc():
    """Import defosc from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import defosc

    if not Path(defosc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"defosc was found at {defosc.__file__}, not under {ROOT / 'src'}")
    return defosc


def _warm_up(specs) -> None:
    import ops

    for spec in specs:
        try:
            ops.execute(spec, {})
        except Exception:  # a warm-up of an error kind raises by design
            pass


def _setup_probe(workload: str) -> tuple[float, float]:
    """Seconds to import defosc and run one small call of each operation kind,
    and the median speed calibration taken right after."""
    from workloads import warmup_specs

    specs = warmup_specs(workload)
    start = time.perf_counter()
    _import_defosc()
    _warm_up(specs)
    wall = time.perf_counter() - start
    import speed  # imports numpy, so only once the set-up has been timed

    return wall, statistics.median(speed.calibrate() for _ in range(SETUP_CALIBRATIONS))


def _setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Set-up times from SETUP_REPEATS fresh interpreters: at reference speed, and as measured."""
    import speed

    scaled, walls = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        wall, calibration = map(float, proc.stdout.split()[-2:])
        scaled.append(speed.scale(wall, calibration))
        walls.append(wall)
    return scaled, walls


def _blas_threads():
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment(seed: int) -> dict:
    import defosc
    import numpy

    return {
        "defosc_version": defosc.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "closed_loop_callers": 1,
    }


class Record:
    """One operation: its time at reference speed (seconds), as measured (wall), and its check.

    The inputs are kept only for a miss, so that what a run holds grows by
    little more than a few floats per operation and does not move
    peak_rss_mb with the run's length.
    """

    __slots__ = ("kind", "spec", "seconds", "wall", "reason", "defect", "entries", "phi_evals", "bytes_out")

    def __init__(self, spec, seconds, wall, reason, defect, entries=0, phi_evals=0, bytes_out=0):
        self.kind = spec["kind"]
        self.spec = spec if reason is not None else None
        self.seconds = seconds
        self.wall = wall
        self.reason = reason
        self.defect = defect
        self.entries = entries
        self.phi_evals = phi_evals
        self.bytes_out = bytes_out


def run_periods(periods, seconds: float, counts: dict, tracer=None) -> list[Record]:
    """Closed loop over whole periods of (spec, reference) pairs.

    Stops before a period that would end more than half a period past
    `seconds` of operation wall time, once MIN_OPERATIONS have run, so a
    run is a whole number of periods.
    References come with each period and are made outside the clock, and
    every check, and the speed calibration between operations, runs
    outside it too.
    """
    import ops
    import speed

    records = []
    busy = 0.0
    done = 0
    for period in periods:
        if len(records) >= MIN_OPERATIONS and busy + 0.5 * busy / done > seconds:
            break
        for spec, ref in period:
            if tracer is not None:
                tracer.op_id = len(records)
                phi_before = tracer.counters.get("scheme.phi_evals", 0)
            error = outcome = None
            before = speed.calibrate()
            start = time.perf_counter()
            try:
                outcome = ops.execute(spec, counts)
            except Exception as exc:  # the check decides whether this was due
                error = exc
            wall = time.perf_counter() - start
            after = speed.calibrate()
            busy += wall
            reason, defect = ops.check(spec, outcome, error, ref)
            scaled = speed.scale(wall, (before + after) / 2)
            rec = Record(spec, scaled, wall, reason, defect, spec.get("entries", 0))
            if tracer is not None:
                rec.phi_evals = tracer.counters.get("scheme.phi_evals", 0) - phi_before
            if spec["kind"].startswith("cli.") and outcome is not None:
                rec.bytes_out = len(outcome[1].encode())
            records.append(rec)
        done += 1
    return records


def unexpected_misses(records: list[Record]) -> list[Record]:
    """Misses no known defect explains; any one makes the run incorrect."""
    return [r for r in records if r.reason is not None and r.defect is None]


def result_line(records: list[Record], unexpected: list[Record], metrics: dict) -> dict:
    """The last line of stdout.

    `failed` counts the operations that failed: the misses no known defect
    explains, each of which also makes the run incorrect.  A miss a known
    defect explains is a measured inaccuracy of the seed state, not a failed
    operation; it counts in fail_ratio and in the result file, so
    `failed` does not move with how many operations a run has time for.
    """
    return {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.reason is not None and r.defect is None),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }


def stream_periods(workload: str, seed: int, log: list | None = None):
    """Periods of (spec, reference) pairs; each period is also appended to log."""
    from reference import reference
    from workloads import Stream

    stream = Stream(workload, seed)
    while True:
        period = [(spec, reference(spec)) for spec in stream.next_period()]
        if log is not None:
            log.append(period)
        yield period


def summary(records: list[Record]) -> dict:
    by_kind: dict[str, dict] = {}
    for r in records:
        row = by_kind.setdefault(r.kind, {"attempted": 0, "missed": 0, "seconds": 0.0, "defects": {}})
        row["attempted"] += 1
        row["seconds"] += r.seconds
        if r.reason is not None:
            row["missed"] += 1
            key = r.defect or "unexpected"
            row["defects"][key] = row["defects"].get(key, 0) + 1
    misses = [
        {"defect": r.defect, "reason": r.reason, "spec": r.spec} for r in records if r.reason is not None
    ]
    # kind, ms at reference speed, wall-clock ms, met its reference
    latencies = [[r.kind, r.seconds * 1e3, r.wall * 1e3, r.reason is None] for r in records]
    return {"by_kind": by_kind, "misses": misses[:50], "miss_count": len(misses), "operations": latencies}


def harrell_davis(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile of values.

    It weights every order statistic by the Beta(p (n+1), (1-p) (n+1))
    mass of its slot, so it does not jump when the quantile falls at the
    edge of one of the clusters a workload's latencies form, as a single
    order statistic does. The mass of each slot comes from the midpoint
    rule on at least 32 points, and 4096 over all slots; that needs a
    smooth Beta density, p (n+1) >= 1 and (1-p) (n+1) >= 1, which holds
    for n >= 10 at p = 0.9 (a run has at least MIN_OPERATIONS).
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    k = max(32, -(-4096 // n))
    t = (np.arange(k * n) + 0.5) / (k * n)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    mass = np.exp(log_pdf - log_pdf.max()).reshape(n, k).sum(axis=1)
    return float(mass @ x / mass.sum())


def _timings(times: list[float], good: int) -> tuple[float, float, float]:
    """(operations met per second, p50 ms, p90 ms) of per-operation seconds."""
    return good / sum(times), harrell_davis(times, 0.5) * 1e3, harrell_davis(times, 0.9) * 1e3


def end_to_end(records: list[Record], setup: list[float]) -> dict:
    """The end-to-end metrics, each with its unit and sample count; times at reference speed."""
    # read before the quantile estimates allocate arrays that grow with the run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    good = sum(1 for r in records if r.reason is None)
    n = len(records)
    ops_per_s, p50, p90 = _timings([r.seconds for r in records], good)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (ops_per_s, "1/s", n),
        "latency_p50_ms": (p50, "ms", n),
        "latency_p90_ms": (p90, "ms", n),
        "fail_ratio": ((n - good) / n, "ratio", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def wall_clock(records: list[Record], setup_wall: list[float]) -> dict:
    """The timing metrics from wall-clock times as measured, not scaled to reference speed."""
    good = sum(1 for r in records if r.reason is None)
    ops_per_s, p50, p90 = _timings([r.wall for r in records], good)
    return {"setup_s": statistics.median(setup_wall), "ops_per_s": ops_per_s,
            "latency_p50_ms": p50, "latency_p90_ms": p90}


def per_layer(tracer, records: list[Record], counts: dict, untraced_s: float) -> dict:
    from tracing import LAYERS

    m = tracer.layer_metrics()
    c = tracer.counters
    entries = sum(r.entries for r in records)
    table_evals = sum(r.phi_evals for r in records if r.entries)
    quad_results = counts.get("quad_results", 0)
    cli_total = m["cli.total_s"]
    traced_s = sum(r.seconds for r in records)
    units = {"calls": "count", "total_s": "s", "self_s": "s", "errors": "count"}
    out = {f"{lay}.{k}": (m[f"{lay}.{k}"], u) for lay in LAYERS for k, u in units.items()}
    out.update({
        "scheme.phi_evals": (c.get("scheme.phi_evals", 0), "count"),
        "scheme.phi_evals_per_entry": (table_evals / entries if entries else 0.0, "ratio"),
        "series.terms": (c.get("series.terms", 0), "count"),
        "series.terms_per_call": (c.get("series.terms", 0) / max(1, c.get("series.calls", 0)), "ratio"),
        "fock.dim_sum": (c.get("fock.dim_sum", 0), "count"),
        "fock.peak_alloc_mb": (m["fock.peak_alloc_mb"], "MB"),
        "coherent.auto_dim_max": (c.get("coherent.auto_dim_max", 0), "count"),
        "coherent.peak_alloc_mb": (m["coherent.peak_alloc_mb"], "MB"),
        "calculus.integrand_evals": (counts.get("integrand_evals", 0), "count"),
        "calculus.evals_per_result": (counts.get("integrand_evals", 0) / max(1, quad_results), "ratio"),
        "calculus.quad_errors": (m["calculus.quad_errors"], "count"),
        "verify.cases": (c.get("verify.cases", 0), "count"),
        "verify.failed_cases": (c.get("verify.failed_cases", 0), "count"),
        "verify.max_margin": (c.get("verify.max_margin", 0.0), "ratio"),
        "cli.bytes_out": (sum(r.bytes_out for r in records), "bytes"),
        "cli.self_share": (m["cli.self_s"] / cli_total if cli_total else 0.0, "ratio"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s, "ratio"),
    })
    out.update({k: (v, "s") for k, v in m.items() if k.count(".") == 2})
    return out


def _observers(tracer) -> None:
    """Counters read off results at the layer boundaries."""

    def terms(args, kwargs, result):
        tracer.count("series.calls")
        tracer.count("series.terms", result[1].terms_used)

    def dims(args, kwargs, result):
        tracer.count("fock.dim_sum", result.dim)

    def auto_dim(args, kwargs, result):
        if (args[2] if len(args) > 2 else kwargs.get("dim")) is None:
            tracer.high("coherent.auto_dim_max", result.dim)

    def suites(args, kwargs, report):
        for case in report.cases:
            tracer.count("verify.cases")
            tracer.count("verify.failed_cases", 0 if case.passed else 1)
            if case.tolerance > 0:
                margin = case.max_residual / case.tolerance
            else:  # an exact case: any residual at all is a failure
                margin = 0.0 if case.max_residual == 0 else FAILED_EXACT_MARGIN
            tracer.high("verify.max_margin", margin)

    tracer.observe("series.phi_exp_series", terms)
    tracer.observe("fock.build_fock", dims)
    tracer.observe("coherent.coherent_state", auto_dim)
    tracer.observe("verify.run_suite", suites)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        print("%.9f %.9f" % _setup_probe(args.workload))
        return 0

    try:
        _import_defosc()
    except ImportError as exc:
        print(f"cannot import defosc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    setup, setup_wall = _setup_seconds(args.workload)
    from workloads import warmup_specs

    _warm_up(warmup_specs(args.workload))  # lazy set-up is paid before the clock starts
    import speed
    from reference import KNOWN_DEFECTS, TOLERANCES

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    counts: dict = {}
    doc = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
           "environment": environment(args.seed), "setup_samples_s": setup,
           "setup_wall_samples_s": setup_wall, "reference_speed_calibration_s": speed.REFERENCE_S,
           "tolerances": TOLERANCES, "known_defects": KNOWN_DEFECTS}
    if args.trace == 0:
        records = run_periods(stream_periods(args.workload, args.seed), args.seconds, counts)
        metrics = end_to_end(records, setup)
        doc["wall_clock"] = wall_clock(records, setup_wall)
        checked = records
    else:
        from tracing import Tracer

        made: list = []
        first = run_periods(stream_periods(args.workload, args.seed, made), args.seconds / 2, counts)
        untraced_s = sum(r.seconds for r in first)
        counts = {}
        tracer = Tracer()
        _observers(tracer)
        with tracer:
            records = run_periods(made[: len(first) // len(made[0])], math.inf, counts, tracer)
        metrics = per_layer(tracer, records, counts, untraced_s)
        checked = first + records
        spans = results / f"{args.workload}-seed{args.seed}-spans.tsv"
        tracer.write_spans(spans)
        doc["spans_file"] = str(spans.relative_to(ROOT))
        doc["span_count"] = len(tracer.start)

    unexpected = unexpected_misses(checked)
    doc.update({"metrics": {k: {"value": v[0], "unit": v[1], **({"samples": v[2]} if len(v) > 2 else {})}
                            for k, v in metrics.items()},
                "summary": summary(records)})
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)

    for name, v in metrics.items():
        samples = f"  (samples: {v[2]})" if len(v) > 2 else ""
        print(f"{name} = {v[0]:.6g} {v[1]}{samples}")
    if "wall_clock" in doc:
        print("as measured, not scaled to reference speed:",
              ", ".join(f"{k} = {v:.6g}" for k, v in doc["wall_clock"].items()))
    for kind, row in sorted(doc["summary"]["by_kind"].items()):
        if row["missed"]:
            print(f"missed {row['missed']}/{row['attempted']} {kind}: {row['defects']}")
    for r in unexpected[:5]:
        print(f"unexpected miss in {r.kind}: {r.reason}")
    print(json.dumps(result_line(records, unexpected, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
