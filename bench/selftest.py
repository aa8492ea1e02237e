"""Tests of the benchmark itself.  Run with: python3 -m pytest bench/selftest.py"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import defosc  # noqa: E402
import ops  # noqa: E402
from reference import reference  # noqa: E402
from tracing import LAYERS, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Stream, shrink  # noqa: E402


def _outcome(spec):
    try:
        return ops.execute(spec, {}), None
    except Exception as exc:
        return None, exc


def _verdict(spec):
    """(reason, defect) for one run of spec."""
    outcome, error = _outcome(spec)
    return ops.check(spec, outcome, error, reference(spec))


def _check(spec):
    return _verdict(spec)[0]


def _exp_spec(x, fmt="json"):
    return {
        "kind": "cli.exp", "argv": ["exp", "tsallis:q=1.5", repr(x), "--format", fmt],
        "family": ["tsallis", {"q": 1.5}], "x": x, "format": fmt,
    }


EXP_SPEC = _exp_spec(0.7)
# |x| = (1 - 1e-4) R: the series-tail defect spoils series_value here
EDGE_EXP_SPEC = _exp_spec(1.9998)


def test_self_time_of_a_hand_built_span_tree():
    # 0 [0, 10] -> 1 [1, 4], 2 [5, 9] -> 3 [6, 7]
    parents = [-1, 0, 0, 2]
    durations = [10.0, 3.0, 4.0, 1.0]
    assert list(self_times(parents, durations)) == [3.0, 3.0, 3.0, 1.0]


def test_layer_totals_do_not_count_nested_calls_twice():
    t = Tracer()
    spans = [  # name, start, end, parent
        ("cli.main", 0.0, 10.0, -1),
        ("fock.spectrum_report", 1.0, 9.0, 0),
        ("fock.energy_level", 2.0, 3.0, 1),
        ("fock.energy_level", 4.0, 6.0, 1),
        ("scheme.phi_factorial", 7.0, 8.5, 1),
    ]
    for name, start, end, parent in spans:
        t.name_id.append(t._name(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.op.append(0)
        t.failed.append(0)
    m = t.layer_metrics()
    assert m["cli.total_s"] == 10.0 and m["cli.self_s"] == 2.0
    assert m["fock.calls"] == 3
    assert m["fock.total_s"] == 8.0
    assert m["fock.self_s"] == 6.5
    assert m["scheme.total_s"] == m["scheme.self_s"] == 1.5
    assert m["fock.energy_level.self_s"] == 3.0


def _module_state():
    mods = [defosc] + [getattr(defosc, name) for name in LAYERS]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_tracer_restores_every_original():
    before = _module_state()
    tracer = Tracer()
    with tracer:
        assert defosc.coherent.build_fock is not before[("defosc.fock", "build_fock")]
        assert defosc.cli.phi is defosc.scheme.phi
        for spec in Stream("ladder", 3).next_period()[:12]:
            _outcome(shrink(spec))
    after = _module_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {tracer.names[i] for i in tracer.name_id}
    # build_fock is reached through defosc.coherent as well as defosc.fock
    assert "fock.build_fock" in names and "coherent.eigen_residual" in names
    assert tracer.counters["scheme.phi_evals"] > 0


def test_checker_catches_a_small_perturbation_of_the_series(monkeypatch):
    assert _check(EXP_SPEC) is None
    original = defosc.series.phi_exp_series

    def perturbed(*args, **kwargs):
        value, diag = original(*args, **kwargs)
        return value * (1.0 + 1e-8), diag

    monkeypatch.setattr(defosc.series, "phi_exp_series", perturbed)
    assert "series_value" in _check(EXP_SPEC)


def test_checker_catches_a_wrong_exception_kind(monkeypatch):
    cli_spec = {"kind": "cli.error", "argv": ["exp", "tsallis:q=1.5", "2.5"], "expect": [2, "divergence-error"]}
    lib_spec = {"kind": "series.divergence", "family": ["tsallis", {"q": 1.5}], "x": 2.5}
    assert _check(cli_spec) is None and _check(lib_spec) is None

    def wrong(scheme, x, policy=None):
        raise ValueError("not a divergence")

    monkeypatch.setattr(defosc.series, "phi_exp_series", wrong)
    assert "domain-error" in _check(cli_spec)
    assert "ValueError" in _check(lib_spec)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_inputs(workload):
    def rounds(seed):
        stream = Stream(workload, seed)
        return [stream.next_period() for _ in range(3)]

    assert rounds(5) == rounds(5)
    assert rounds(5) != rounds(6)


def _scale_series(monkeypatch, factor):
    original = defosc.series.phi_exp_series

    def scaled(*args, **kwargs):
        value, diag = original(*args, **kwargs)
        return value * factor, diag

    monkeypatch.setattr(defosc.series, "phi_exp_series", scaled)


def test_seed_state_edge_miss_is_excused_as_the_series_tail():
    reason, defect = _verdict(EDGE_EXP_SPEC)
    assert "series_value" in reason and defect == "series-tail"


def test_a_crash_on_a_near_edge_exp_makes_the_run_incorrect(monkeypatch):
    import run

    def crash(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(defosc.series, "phi_exp_series", crash)
    period = [(EDGE_EXP_SPEC, reference(EDGE_EXP_SPEC))]
    records = run.run_periods(iter([period]), 0.0, {})
    assert records[0].reason is not None and records[0].defect is None
    assert run.unexpected_misses(records) == records
    line = run.result_line(records, run.unexpected_misses(records), {})
    assert line["correct"] is False and line["failed"] == 1


def test_a_known_defect_miss_counts_in_fail_ratio_but_not_as_failed():
    import run

    period = [(EDGE_EXP_SPEC, reference(EDGE_EXP_SPEC)), (EXP_SPEC, reference(EXP_SPEC))]
    records = run.run_periods(iter([period]), 0.0, {})
    assert records[0].defect == "series-tail" and records[1].reason is None
    metrics = run.end_to_end(records, [1.0])
    assert metrics["fail_ratio"][0] == 0.5
    line = run.result_line(records, run.unexpected_misses(records), metrics)
    assert line["correct"] is True and line["attempted"] == 2 and line["failed"] == 0


def test_a_wrong_closed_value_near_the_edge_is_not_excused(monkeypatch):
    original = defosc.series.tsallis_exp_closed
    monkeypatch.setattr(defosc.series, "tsallis_exp_closed", lambda q, x: original(q, x) * (1 + 1e-6))
    reason, defect = _verdict(EDGE_EXP_SPEC)
    assert "closed_value" in reason and defect is None


def test_a_series_error_beyond_the_tail_bound_is_not_excused(monkeypatch):
    _scale_series(monkeypatch, 1.0 + 1e-4)
    reason, defect = _verdict(EDGE_EXP_SPEC)
    assert "series_value" in reason and defect is None


def test_coherent_state_excuse_needs_every_field_consistent(monkeypatch):
    # mu at fill 0.95 builds its normalizer from the series; automatic dim 800
    spec = {"kind": "coherent.state", "family": ["mu", {"mu": 0.5}], "fill": 0.95,
            "alpha": [math.sqrt(0.95 * 2.0), 0.0]}
    reason, defect = _verdict(spec)
    assert reason is None or defect == "series-tail"
    original = defosc.coherent.expected_n
    monkeypatch.setattr(defosc.coherent, "expected_n", lambda state: original(state) * (1 + 1e-6))
    reason, defect = _verdict(spec)
    assert "expected_n" in reason and defect is None


def test_quadrature_raising_or_far_off_is_not_excused(monkeypatch):
    spec = {"kind": "calculus.quadrature", "shape": "kink", "q": 1.5, "x": 1.0, "u0": 0.5}
    want = reference(spec)["value"]
    reason, defect = _verdict(spec)
    assert reason is None or defect == "quadrature-blind-spot"

    monkeypatch.setattr(defosc.calculus, "tsallis_derivative_quadrature", lambda f, x, q: want + 1.0)
    reason, defect = _verdict(spec)
    assert "D F(x)" in reason and defect is None

    def crash(f, x, q):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(defosc.calculus, "tsallis_derivative_quadrature", crash)
    reason, defect = _verdict(spec)
    assert "ZeroDivisionError" in reason and defect is None


def test_times_are_scaled_by_the_calibrations_around_each_operation(monkeypatch):
    import run
    import speed

    # the machine runs at half the reference speed before the operation
    # and at a quarter after it
    calibrations = iter([2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S])
    monkeypatch.setattr(speed, "calibrate", lambda: next(calibrations))
    period = [(EXP_SPEC, reference(EXP_SPEC))]
    (rec,) = run.run_periods(iter([period]), 0.0, {})
    assert rec.reason is None
    assert rec.seconds == pytest.approx(rec.wall / 3)


def test_harrell_davis_matches_exact_beta_weights():
    import mpmath
    import run

    # at least 10 values, so that both Beta parameters are at least 1 (a
    # run holds at least 100 operations)
    values = [3.0, 1.0, 40.0, 2.0, 7.0, 5.0, 11.0, 13.0, 2.5, 90.0, 6.0, 4.0]
    n = len(values)
    for p in (0.5, 0.9):
        a, b = p * (n + 1), (1 - p) * (n + 1)
        weights = [mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True) for i in range(n)]
        exact = float(sum(w * v for w, v in zip(weights, sorted(values))))
        # the midpoint rule is good to 1e-4 here and to 2e-6 at 100 values
        assert run.harrell_davis(values, p) == pytest.approx(exact, rel=1e-4)
    assert run.harrell_davis([4.0] * 9, 0.9) == pytest.approx(4.0)
