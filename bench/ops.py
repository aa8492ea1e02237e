"""Running one operation spec against defosc, and checking what came back.

Every call goes through a module attribute (``cli.main``,
``fock.build_fock``), never a name bound at import, so the tracer's
wrappers see it.  ``check`` returns a short reason for a miss (None for a
correct outcome) and the known defect that explains the miss, if one does.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from defosc import calculus, cli, coherent, fock, scheme, series
from reference import (
    QUADRATURE_BLIND_SPOT_ERROR,
    descriptor,
    rel,
    series_error_bound,
    series_tail_error,
    suspected_defect,
    tol,
)


class Counting:
    """Integrand evaluations made through a SampledFunction the benchmark built."""

    def __init__(self):
        self.evals = 0

    def wrap(self, fn):
        def counted(u):
            self.evals += 1
            return fn(u)

        return counted


def _quadrature_function(spec, counter: Counting):
    u0 = spec["u0"]
    if spec["shape"] == "step":
        f = lambda u: max(0.0, u - u0)
        fprime = lambda u: 1.0 if u > u0 else 0.0
    else:
        f = lambda u: math.copysign(0.5 * (u - u0) ** 2, u - u0)
        fprime = lambda u: abs(u - u0)
    return calculus.SampledFunction(eval=counter.wrap(f), deriv=counter.wrap(fprime))


def execute(spec: dict, counts: dict):
    """Run the operation; returns its raw outcome, or raises what the program raised.

    Integrand evaluations of benchmark-built functions are added to
    counts["integrand_evals"], and the values they produced to
    counts["quad_results"].
    """
    kind = spec["kind"]
    if kind.startswith("cli."):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(spec["argv"]))
        return code, out.getvalue(), err.getvalue()
    if kind == "calculus.quadrature":
        counter = Counting()
        f = _quadrature_function(spec, counter)
        try:
            value = calculus.tsallis_derivative_quadrature(f, spec["x"], spec["q"])
        finally:
            counts["integrand_evals"] = counts.get("integrand_evals", 0) + counter.evals
        counts["quad_results"] = counts.get("quad_results", 0) + 1
        return value
    sch = scheme.parse_scheme(descriptor(*spec["family"]))
    if kind == "series.divergence":
        return series.phi_exp_series(sch, spec["x"])
    if kind == "coherent.state":
        state = coherent.coherent_state(sch, complex(*spec["alpha"]))
        return state, coherent.eigen_residual(state), coherent.expected_n(state)
    triple = fock.build_fock(sch, spec["dim"])
    if kind == "fock.build_fock":
        return triple
    if kind == "fock.commutator_residual":
        return fock.commutator_residual(triple)
    if kind == "fock.hamiltonian":
        return fock.hamiltonian(triple)
    if kind == "fock.state_from_vacuum":
        return fock.state_from_vacuum(triple, spec["n"])
    raise ValueError(f"unknown operation kind {kind!r}")


# --- parsing CLI output --------------------------------------------------------


def _cell(text):
    if text in ("", "-"):
        return None
    if text in ("true", "pass"):
        return True
    if text in ("false", "FAIL"):
        return False
    try:
        return float(text)
    except ValueError:
        return text


def _value(v):
    if isinstance(v, str):
        return _cell(v) if v in ("inf", "-inf", "nan") else v
    if isinstance(v, dict) and set(v) == {"re", "im"}:
        return complex(_value(v["re"]), _value(v["im"]))
    return v


def _lines(text: str, start: int, end: int):
    """The lines of text[start:end], one at a time, without splitting the whole."""
    while start < end:
        stop = text.find("\n", start, end)
        stop = end if stop < 0 else stop
        yield text[start:stop]
        start = stop + 1


def _columns(header, rows, keep):
    """Columns of cells from an iterable of split rows; rows outside keep stay None."""
    columns = {h: [] for h in header}
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {i} has {len(row)} cells, the header {len(header)}")
        wanted = keep is None or i in keep
        for h, cell in zip(header, row):
            columns[h].append(_cell(cell) if wanted else None)
    return columns


def parse(fmt: str, out: str, err: str, keep: set | None = None) -> tuple[dict, dict]:
    """(scalars, columns) of a CLI document in any of the three formats.

    With keep, a set of row indices, only those rows are converted and the
    other cells are None, so a 10^5-row document is not held twice.
    """
    if fmt == "json":
        results = json.loads(out)["results"]
        scalars = {k: _value(v) for k, v in results.items() if not isinstance(v, list)}
        columns = {
            k: [_value(x) if keep is None or i in keep else None for i, x in enumerate(v)]
            for k, v in results.items() if isinstance(v, list)
        }
        return scalars, columns
    if fmt == "csv":
        rows = csv.reader(_lines(out, 0, len(out)))
        columns = _columns(next(rows), rows, keep)
        scalars = {}
        for line in err.splitlines():
            scalars.update(json.loads(line).get("summary", {}))
        return {k: _value(v) for k, v in scalars.items()}, columns
    # table: blocks split by blank lines; scalars in the second of three or
    # more, the table in the last
    end = len(out)
    while end and out[end - 1] == "\n":
        end -= 1
    first, last = out.find("\n\n", 0, end), out.rfind("\n\n", 0, end)
    scalars = {}
    if first != last:
        for line in _lines(out, first + 2, out.find("\n\n", first + 2, end)):
            key, value = line.split()
            scalars[key] = _cell(value)
    lines = _lines(out, last + 2 if last >= 0 else 0, end)
    header = next(lines).split()
    return scalars, _columns(header, (line.split() for line in lines), keep)


# --- checks --------------------------------------------------------------------


def _near(got, want, tolerance: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return rel(float(got), want) <= tolerance


def _compare(label, got, want, tolerance):
    if _near(got, want, tolerance):
        return None
    return f"{label}: got {got!r}, want {want!r} (tol {tolerance:g})"


def _cli_failure(outcome) -> str | None:
    code, _, err = outcome
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    return None


def _check_numbers(spec, outcome, ref):
    fmt = spec["format"]
    _, cols = parse(fmt, outcome[1], outcome[2])
    fact_key = "log_phi_factorial" if spec["log"] else "phi_factorial"
    if len(cols.get("n", ())) != spec["n_max"] + 1:
        return f"expected {spec['n_max'] + 1} rows"
    for key, name in (("phi", "phi"), ("fact", fact_key), ("f", "nonlinearity_f")):
        t = tol(f"cli.numbers {name}", fmt)
        for n, (got, want) in enumerate(zip(cols[name], ref[key])):
            reason = _compare(f"{name}[{n}]", got, want, t)
            if reason:
                return reason
    return None


def _check_spectrum(spec, outcome, ref):
    fmt = spec["format"]
    scalars, cols = parse(fmt, outcome[1], outcome[2], keep=set(ref["idx"]) | set(ref["gap"]))
    levels = cols.get("levels", cols.get("level"))
    gaps = cols.get("gaps", cols.get("gap"))
    if levels is None or len(levels) != spec["n_max"] + 1:
        return f"expected {spec['n_max'] + 1} levels"
    for n in ref["idx"]:
        reason = _compare(f"level[{n}]", levels[n], ref["level"][n], tol("cli.spectrum level", fmt))
        if reason is None and n in ref["gap"]:
            reason = _compare(f"gap[{n}]", gaps[n], ref["gap"][n], tol("cli.spectrum gap", fmt))
        if reason:
            return reason
    t = tol("cli.spectrum band_top", fmt)
    return _compare("band_top", scalars.get("band_top"), ref["band_top"], t) or _compare(
        "band_width", scalars.get("band_width"), ref["band_width"], t
    )


def _exp_results(spec, outcome):
    scalars, cols = parse(spec["format"], outcome[1], outcome[2])
    if spec["format"] == "json":
        return scalars
    return {k: v[0] for k, v in cols.items()}


def _check_exp(spec, outcome, ref):
    got = _exp_results(spec, outcome)
    fmt = spec["format"]
    # closed_value first: no known defect touches it
    if "closed_value" in ref:
        reason = _compare("closed_value", got.get("closed_value"), ref["closed_value"],
                          tol("cli.exp closed_value", fmt))
        if reason:
            return reason, None
    value, want = got.get("series_value"), ref["series_value"]
    reason = _compare("series_value", value, want, tol("cli.exp series_value", fmt))
    suspect = suspected_defect(spec, ref)
    if reason and suspect and _near(value, want, series_error_bound(spec, ref)):
        return reason, suspect
    return reason, None


def _check_derive(spec, outcome, ref):
    _, cols = parse(spec["format"], outcome[1], outcome[2])
    key = "cli.derive quadrature" if spec["family"][0] == "tsallis" else "cli.derive quotient"
    got = cols.get("numeric", [])
    if len(got) != len(ref["numeric"]):
        return f"expected {len(ref['numeric'])} points"
    for x, g, w in zip(spec["xs"], got, ref["numeric"]):
        reason = _compare(f"D f({x})", g, w, tol(key, spec["format"]))
        if reason:
            return reason
    return None


def _check_coherent_values(fmt, dim, norm_const, tail_mass, residual, mean, vector, ref):
    if dim != ref["dim"]:
        return f"dim {dim}, want {ref['dim']}"
    reason = (
        _compare("norm_const", norm_const, ref["norm_const"], tol("coherent norm_const", fmt))
        or _compare("tail_mass", tail_mass, ref["tail_mass"], tol("coherent tail_mass", fmt))
        or _compare("expected_n", mean, ref["expected_n"], tol("coherent expected_n", fmt))
    )
    if reason:
        return reason
    if not residual <= tol("coherent eigen_residual"):
        return f"eigen_residual {residual!r} above {tol('coherent eigen_residual'):g}"
    t = tol("coherent vector", fmt)
    for n in ref["idx"]:
        want = ref["vector"][n]
        reason = _compare(f"re v[{n}]", vector[n].real, want.real, t) or _compare(
            f"im v[{n}]", vector[n].imag, want.imag, t
        )
        if reason:
            return reason
    return None


def _check_cli_coherent(spec, outcome, ref):
    fmt = spec["format"]
    scalars, cols = parse(fmt, outcome[1], outcome[2])
    re_ = cols.get("vector_real", cols.get("coeff_real"))
    im_ = cols.get("vector_imag", cols.get("coeff_imag"))
    vector = [complex(a, b) for a, b in zip(re_, im_)]
    return _coherent_verdict(spec, fmt, (
        int(scalars["dim"]), scalars["norm_const"], scalars["tail_mass"],
        scalars["eigen_residual"], scalars["expected_n"], vector,
    ), ref)


def _check_coherent_state(spec, outcome, ref):
    state, residual, mean = outcome
    values = (state.dim, state.norm_const, state.tail_mass, residual, mean, state.vector())
    return _coherent_verdict(spec, "json", values, ref)


def _coherent_verdict(spec, fmt, values, ref):
    """Check a coherent state; the series-tail defect may spoil its normalizer and nothing else.

    Such a miss is excused only if the normalizer is off by at most the
    tail bound and every field matches once the reference is rescaled to
    the norm_const returned.
    """
    reason = _check_coherent_values(fmt, *values, ref)
    norm_const = values[1]
    if reason is None or suspected_defect(spec, ref) is None or not isinstance(norm_const, float):
        return reason, None
    # norm_const is 1 / sqrt(e_phi), so s^2 - 1 is the normalizer's relative error
    s = norm_const / ref["norm_const"]
    if not abs(s * s - 1.0) <= series_tail_error(spec["fill"]):
        return reason, None
    scaled = dict(
        ref,
        norm_const=norm_const,
        tail_mass=max(0.0, 1.0 - s * s * (1.0 - ref["tail_mass"])),
        expected_n=ref["expected_n"] * s * s,
        vector={n: v * s for n, v in ref["vector"].items()},
    )
    return reason, "series-tail" if _check_coherent_values(fmt, *values, scaled) is None else None


def _check_fock(spec, outcome, ref):
    kind = spec["kind"]
    t = ref["tol"]
    if kind == "fock.build_fock":
        a = outcome.a
        if a.shape != (spec["dim"], spec["dim"]):
            return f"shape {a.shape}"
        for k, want in ref["sqrt_phi"].items():
            reason = _compare(f"a[{k - 1},{k}]", float(a[k - 1, k]), want, tol(kind))
            if reason:
                return reason
            if outcome.a_dagger[k, k - 1] != a[k - 1, k] or outcome.n_op[k, k] != k:
                return f"a+ or N wrong at {k}"
        return None
    if kind == "fock.commutator_residual":
        return None if outcome <= t else f"residual {outcome!r} above {t:g}"
    if kind == "fock.hamiltonian":
        off = float(np.max(np.abs(outcome - np.diag(np.diag(outcome)))))
        if off > t:
            return f"off-diagonal {off!r} above {t:g}"
        for n, want in ref["level"].items():
            if not abs(outcome[n, n] - want) <= t:
                return f"H[{n},{n}] = {outcome[n, n]!r}, want {want!r} (tol {t:g})"
        return None
    # state_from_vacuum: |n> is the n-th unit vector
    n = spec["n"]
    err = max(abs(float(outcome[n]) - 1.0), abs(float(np.linalg.norm(outcome)) - 1.0))
    return None if err <= tol(kind) else f"|n> off the unit vector by {err!r}"


def _check_quadrature(spec, outcome, ref):
    reason = _compare("D F(x)", outcome, ref["value"], tol("calculus.quadrature"))
    if reason and _near(outcome, ref["value"], QUADRATURE_BLIND_SPOT_ERROR):
        return reason, "quadrature-blind-spot"
    return reason, None


def _check_verify(spec, outcome, ref):
    _, cols = parse(spec["format"], outcome[1], outcome[2])
    if spec["format"] == "json":
        cases = [c for s in json.loads(outcome[1])["results"]["suites"] for c in s["cases"]]
        rows = [(c["name"], _value(c["max_residual"]), c["tolerance"], c["passed"]) for c in cases]
    else:
        rows = list(zip(cols["case"], cols["max_residual"], cols["tolerance"], cols["status"]))
    if not rows:
        return "no cases reported"
    for name, residual, tolerance, passed in rows:
        if passed is not True or not residual <= tolerance:
            return f"case {name}: residual {residual!r}, tolerance {tolerance!r}"
    return _cli_failure(outcome)


def _check_error(spec, outcome):
    code, out, err = outcome
    want_code, want_kind = spec["expect"]
    lines = err.strip().splitlines()
    got_kind = json.loads(lines[-1]).get("error") if lines else None
    if code != want_code or got_kind != want_kind or out:
        return f"exit {code} with {got_kind!r}, want exit {want_code} with {want_kind!r}"
    return None


_CLI_CHECKS = {
    "cli.numbers": _check_numbers,
    "cli.spectrum": _check_spectrum,
    "cli.exp": _check_exp,
    "cli.derive": _check_derive,
    "cli.coherent": _check_cli_coherent,
}

_LIB_CHECKS = {
    "coherent.state": _check_coherent_state,
    "fock.build_fock": _check_fock,
    "fock.commutator_residual": _check_fock,
    "fock.hamiltonian": _check_fock,
    "fock.state_from_vacuum": _check_fock,
    "calculus.quadrature": _check_quadrature,
}

def _documented_error(kind: str, ref: dict):
    """The exception an operation may raise in place of a result, if any."""
    if kind == "calculus.quadrature":
        return calculus.QuadratureError  # an honest refusal is a correct outcome
    if kind == "series.divergence":
        return series.DivergenceError
    if kind == "fock.state_from_vacuum" and ref["overflow"]:
        return OverflowError
    return None


def check(spec: dict, outcome, error: BaseException | None, ref: dict) -> tuple[str | None, str | None]:
    """(reason, defect): reason is None when the outcome matches the reference,
    else what went wrong; defect names the known defect that explains the
    miss, or is None.  Only _check_exp, _coherent_verdict and
    _check_quadrature excuse a miss, and only a numeric one.
    """
    kind = spec["kind"]
    expected = _documented_error(kind, ref)
    if error is not None:
        if expected is None or type(error) is not expected:
            return f"raised {type(error).__name__}: {str(error)[:200]}", None
        if kind == "series.divergence" and rel(error.radius, ref["radius"]) > 1e-15:
            return f"radius {error.radius!r}, want {ref['radius']!r}", None
        return None, None
    if expected is not None and kind != "calculus.quadrature":
        return f"returned {type(outcome).__name__} where {expected.__name__} was due", None
    try:
        if kind in _LIB_CHECKS:
            verdict = _LIB_CHECKS[kind](spec, outcome, ref)
        elif kind == "cli.error":
            verdict = _check_error(spec, outcome)
        elif kind == "cli.verify":
            verdict = _check_verify(spec, outcome, ref)
        else:
            verdict = _cli_failure(outcome) or _CLI_CHECKS[kind](spec, outcome, ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", None
    return verdict if isinstance(verdict, tuple) else (verdict, None)
