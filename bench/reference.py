"""Reference values, computed outside the timed region, and the tolerances they are held to.

Rational families (boson, tsallis, mu) are evaluated exactly with
fractions.Fraction; qosc, symq and pq, the closed-form exponentials and the
quadrature integrals use mpmath at 50 digits.  Nothing here calls defosc.

Each tolerance is the one the library's own verify case uses for the same
identity (named beside it) and follows that case's convention: the
difference is divided by max(|got|, |want|, 1).
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import mpmath

EPS = sys.float_info.epsilon
FLOAT_MAX = sys.float_info.max

TOLERANCES = {
    "cli.numbers phi": (1e-12, "coefficient-ratio"),
    "cli.numbers phi_factorial": (1e-12, "borges-recurrence"),
    "cli.numbers log_phi_factorial": (1e-12, "borges-recurrence"),
    "cli.numbers nonlinearity_f": (1e-12, "coefficient-ratio"),
    "cli.spectrum level": (1e-12, "combined-rational-form"),
    "cli.spectrum gap": (1e-10, "gap-closed-form"),
    "cli.spectrum band_top": (1e-12, "band-top-limit"),
    "cli.exp series_value": (1e-10, "series-closed-agreement"),
    "cli.exp closed_value": (1e-12, "exp-log-roundtrip"),
    "cli.derive quadrature": (1e-9, "tsallis-quadrature-eigenfunction"),
    "cli.derive quotient": (1e-10, "monomial-law-families"),
    "calculus.quadrature": (1e-9, "tsallis-quadrature-monomial"),
    "fock.build_fock": (1e-12, "commutator-identity"),
    "fock.commutator_residual": (1e-12, "focus-commutator, scaled by 32 eps max phi"),
    "fock.hamiltonian": (1e-12, "hamiltonian-diagonal, scaled by 32 eps max phi"),
    "fock.state_from_vacuum": (1e-12, "state-from-vacuum-unit-norm"),
    "coherent eigen_residual": (1e-12, "eigenvector-residual"),
    "coherent norm_const": (1e-10, "normalization-deficit"),
    "coherent tail_mass": (1e-10, "normalization-deficit"),
    "coherent expected_n": (1e-10, "expected-n-closed"),
    "coherent vector": (1e-10, "f-oscillator-route"),
}

# table cells print 12 significant digits, so a table can carry no more
TABLE_FLOOR = 1e-11

# Misses the package is known to make at this benchmark's seed state; they
# count in fail_ratio like any other miss, but do not make a run incorrect.
# Each excuses only a numeric miss on the fields named, of at most the size
# named; a raise, an exit code, a missing row or any other field is unexpected.
KNOWN_DEFECTS = {
    "series-tail": "phi_exp_series stops on |t_n| <= rel_tol |S| and ignores a tail of about "
                   "t_n / (1 - r); hits exp and the series-built coherent normalizer at >= 0.9 "
                   "of the radius. Excuses: exp series_value, or a coherent state whose fields "
                   "all match once the reference is rescaled to its norm_const; error at most "
                   "10 rel_tol fill / (1 - fill)",
    "series-cancellation": "alternating sums whose terms dwarf the result (sum |t_n| >= 100 |S|) "
                           "lose digits to cancellation, and still report converged. Excuses: exp "
                           "series_value off by at most eps sum |t_n| / max(|S|, 1) plus the tail "
                           "bound",
    "quadrature-blind-spot": "refinement never splits the main panels, so a kink or a step "
                             "in F' passes the abs_tol test with a wrong value. Excuses: a returned "
                             "value off by at most 0.05 (seed state: at most 0.012 in 1208 calls)",
}

# phi_exp_series' default stop rule, |t_n| <= SERIES_REL_TOL |S|
SERIES_REL_TOL = 1e-12
QUADRATURE_BLIND_SPOT_ERROR = 0.05


def tol(key: str, fmt: str | None = None) -> float:
    value = TOLERANCES[key][0]
    return max(value, TABLE_FLOOR) if fmt == "table" else value


def rel(got: float, want: float) -> float:
    """The verify convention: |got - want| / max(|got|, |want|, 1)."""
    if got == want:
        return 0.0
    if math.isinf(got) or math.isinf(want) or math.isnan(got) or math.isnan(want):
        return math.inf
    return abs(got - want) / max(abs(got), abs(want), 1.0)


def suspected_defect(spec: dict, ref: dict) -> str | None:
    """The known-defect class an operation's input falls in, if any.

    Falling in a class only allows a miss to be excused; the check decides
    whether the miss it found is the one the class describes.
    """
    kind = spec["kind"]
    if kind == "calculus.quadrature":
        return "quadrature-blind-spot"
    if kind == "cli.exp":
        if spec["x"] < 0 and ref["kappa"] >= 100:
            return "series-cancellation"
        r = radius(*spec["family"])
        if math.isfinite(r) and abs(spec["x"]) >= 0.9 * r:
            return "series-tail"
    if kind in ("cli.coherent", "coherent.state"):
        # tsallis and boson normalizers use closed forms, the rest the series
        if spec["family"][0] not in ("tsallis", "boson") and spec["fill"] >= 0.9:
            return "series-tail"
    return None


def series_tail_error(fill: float) -> float:
    """Ten times the relative tail phi_exp_series drops at |x| = fill R.

    The sum stops at |t_n| <= rel_tol |S| with terms shrinking by about
    fill per step, so the dropped tail is about rel_tol fill / (1 - fill);
    the seed state stays within 1.15 times that.
    """
    return 10.0 * SERIES_REL_TOL * fill / (1.0 - fill) if fill > 0 else 0.0


def series_error_bound(spec: dict, ref: dict) -> float:
    """The largest series_value error a series defect explains for a cli.exp input."""
    r = radius(*spec["family"])
    fill = abs(spec["x"]) / r if math.isfinite(r) else 0.0
    s = abs(ref["series_value"])
    # rounding in a sum of terms totalling kappa |S| (seed state: at most 0.07 of this)
    cancellation = EPS * ref["kappa"] * s / max(s, 1.0)
    return series_tail_error(fill) + cancellation


# --- exact family values ------------------------------------------------------


def radius(kind: str, params: dict) -> float:
    """Float radius as the library computes it; the support edge for tsallis q < 1."""
    if kind == "tsallis":
        q = params["q"]
        return 1.0 / (q - 1.0) if q > 1.0 else 1.0 / (1.0 - q)
    if kind == "mu":
        return 1.0 / params["mu"]
    if kind in ("qosc", "pq") and params.get("p", 1.0) == 1.0 and params["q"] < 1.0:
        return 1.0 / (1.0 - params["q"])
    return math.inf


def descriptor(kind: str, params: dict) -> str:
    """The scheme text the CLI and parse_scheme take, with round-tripping floats."""
    if not params:
        return kind
    return kind + ":" + ",".join(f"{k}={float(v)!r}" for k, v in params.items())


def exact_phi(kind: str, params: dict, n: int, exact: bool = True):
    """phi(n) as a Fraction (rational families) or a 50-digit mpf.

    With exact=False the rational families are evaluated in mpf as well,
    which is faster where a long running product is formed anyway.
    Raises ZeroDivisionError at a tsallis pole.
    """
    num = Fraction if exact else mpmath.mpf
    if n == 0:
        return num(0)
    if kind == "boson":
        return num(n)
    if kind == "tsallis":
        den = 1 + (num(params["q"]) - 1) * (n - 1)
        return num(n) / den
    if kind == "mu":
        return num(n) / (1 + num(params["mu"]) * n)
    q = mpmath.mpf(params["q"])
    if kind == "qosc":
        return (1 - q**n) / (1 - q)
    if kind == "symq":
        return (q**-n - q**n) / (1 / q - q)
    if kind == "pq":
        p = mpmath.mpf(params["p"])
        return (p**n - q**n) / (p - q)
    raise ValueError(kind)


def mp(v):
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpf(v)


def to_float(v) -> float | None:
    """Nearest float, or None where the float range cannot hold it."""
    v = mp(v) if isinstance(v, Fraction) else v
    if abs(v) > FLOAT_MAX:
        return None
    return float(v)


def factorial_float_limit(kind: str, params: dict, n_max: int) -> int:
    """Largest n <= n_max whose running products phi(1)...phi(j) all fit a float."""
    with mpmath.workdps(50):
        acc = mpmath.mpf(1)
        for n in range(1, n_max + 1):
            try:
                acc *= exact_phi(kind, params, n, exact=False)
            except ZeroDivisionError:
                return n - 1
            if abs(acc) > FLOAT_MAX:
                return n - 1
    return n_max


def probe_indices(n_max: int, seed: int, count: int = 48) -> list[int]:
    """The first 16 and last 4 indices plus `count` seeded ones from 0..n_max."""
    picked = set(range(min(16, n_max + 1))) | set(range(max(0, n_max - 3), n_max + 1))
    picked |= set(random.Random(seed).sample(range(n_max + 1), min(count, n_max + 1)))
    return sorted(picked)


def e_phi(kind: str, params: dict, x):
    """The deformed exponential sum x^n / phi(n)! at 50 digits."""
    x = mpmath.mpf(x)
    if kind == "boson":
        return mpmath.exp(x)
    if kind == "tsallis":
        q = mpmath.mpf(params["q"])
        return (1 + (1 - q) * x) ** (1 / (1 - q))
    if kind == "mu":
        mu = mpmath.mpf(params["mu"])
        return (1 - mu * x) ** (-(1 + 1 / mu))
    if kind in ("qosc", "pq") and params.get("p", 1.0) == 1.0:
        # q-binomial theorem: sum x^n / [n]_q! = 1 / ((1-q) x; q)_inf
        q = mpmath.mpf(params["q"])
        return 1 / mpmath.qp((1 - q) * x, q)
    total, term, n = mpmath.mpf(1), mpmath.mpf(1), 0
    while abs(term) > mpmath.mpf(10) ** -60 * abs(total):
        n += 1
        term *= x / mp(exact_phi(kind, params, n))
        total += term
    return total


# --- references by operation kind --------------------------------------------


def reference(spec: dict) -> dict:
    with mpmath.workdps(50):
        return _REFERENCES[spec["kind"]](spec)


def _ref_numbers(spec):
    kind, params = spec["family"]
    phis, facts, fs = [], [], []
    acc = mpmath.mpf(1) if not spec["log"] else mpmath.mpf(0)
    broken = False  # the running product hit a pole, left the range, or (log) a factor <= 0
    for n in range(spec["n_max"] + 1):
        try:
            v = exact_phi(kind, params, n)
        except ZeroDivisionError:
            v = None
        phis.append(None if v is None else to_float(v))
        if phis[-1] is None:
            v = None
        if n == 0:
            facts.append(0.0 if spec["log"] else 1.0)
            fs.append(None)
            continue
        if v is None:
            broken = True
        elif not broken:
            if spec["log"]:
                if v <= 0:
                    broken = True
                else:
                    acc += mpmath.log(mp(v))
            else:
                acc *= mp(v)
                broken = abs(acc) > FLOAT_MAX
        facts.append(None if broken else float(acc))
        fs.append(None if v is None or v < 0 else float(mpmath.sqrt(mp(v) / n)))
    return {"phi": phis, "fact": facts, "f": fs}


def _level(kind, params, n):
    return (mp(exact_phi(kind, params, n + 1)) + mp(exact_phi(kind, params, n))) / 2


def _ref_spectrum(spec):
    kind, params = spec["family"]
    n_max = spec["n_max"]
    idx = probe_indices(n_max, spec["probe"])
    levels = {n: _level(kind, params, n) for n in set(idx) | {i + 1 for i in idx if i < n_max} | {1}}
    if kind == "tsallis":
        top = 1 / (mp(Fraction(params["q"])) - 1)
    elif kind == "mu":
        top = 1 / mp(Fraction(params["mu"]))
    elif kind == "qosc" and params["q"] < 1.0:
        top = 1 / (1 - mpmath.mpf(params["q"]))
    else:
        top = mpmath.inf
    return {
        "idx": idx,
        "level": {n: float(levels[n]) for n in idx},
        "gap": {n: float(levels[n + 1] - levels[n]) for n in idx if n < n_max},
        "band_top": float(top),
        "band_width": float(top - levels[1]),
    }


def _ref_exp(spec):
    kind, params = spec["family"]
    value = e_phi(kind, params, spec["x"])
    # sum |t_n| / |S|: how much the terms of an alternating sum dwarf it
    kappa = float(e_phi(kind, params, abs(spec["x"])) / abs(value)) if value else math.inf
    value = float(value)
    out = {"series_value": value, "kappa": kappa}
    if kind == "tsallis":
        out["closed_value"] = value
    return out


def _derivative(kind, params, function, x):
    x = mpmath.mpf(x)
    if "tsallis-exp" in function:
        k = mpmath.mpf(function["tsallis-exp"])
        return k * e_phi("tsallis", params, k * x)
    if "monomial" in function:
        coeffs = [0.0] * function["monomial"] + [1.0]
    else:
        coeffs = function["series"]
    return sum(
        mpmath.mpf(c) * mp(exact_phi(kind, params, n)) * x ** (n - 1)
        for n, c in enumerate(coeffs)
        if n >= 1
    )


def _ref_derive(spec):
    kind, params = spec["family"]
    return {"numeric": [float(_derivative(kind, params, spec["function"], x)) for x in spec["xs"]]}


def _coherent_ref(kind, params, alpha, dim, probe):
    a = mpmath.mpc(*alpha)
    y = abs(a) ** 2
    phase = a / abs(a)
    norm2 = 1 / e_phi(kind, params, y)
    weight = mpmath.mpf(1)  # |alpha|^(2n) / phi(n)!
    mass = mean = mpmath.mpf(0)
    idx = probe_indices(dim - 1, probe)
    want = set(idx)
    vec = {}
    for n in range(dim):
        if n:
            weight = weight * y / exact_phi(kind, params, n, exact=False)
        mass += weight
        mean += n * weight
        if n in want:
            vec[n] = complex(phase**n * mpmath.sqrt(weight * norm2))
    return {
        "dim": dim,
        "norm_const": float(mpmath.sqrt(norm2)),
        "tail_mass": float(max(0, 1 - mass * norm2)),
        "expected_n": float(mean * norm2),
        "idx": idx,
        "vector": vec,
    }


def _ref_cli_coherent(spec):
    kind, params = spec["family"]
    return _coherent_ref(kind, params, spec["alpha"], spec["dim"], spec.get("probe", 0))


def auto_dim(kind: str, params: dict, alpha) -> int:
    """The cutoff coherent_state documents for dim=None, in the same float steps."""
    fill = abs(complex(*alpha)) ** 2 / radius(kind, params)
    return max(64, math.ceil(40.0 / (1.0 - fill)))


def _ref_coherent_state(spec):
    kind, params = spec["family"]
    return _coherent_ref(kind, params, spec["alpha"], auto_dim(kind, params, spec["alpha"]), 0)


def _ref_fock(spec):
    kind, params = spec["family"]
    dim = spec["dim"]
    idx = probe_indices(dim - 1, spec["probe"])
    # every family the ladder draws is nondecreasing in n
    top = mp(exact_phi(kind, params, dim - 1))
    out = {
        "idx": idx,
        "tol": max(1e-12, 32.0 * EPS * float(top)),
        "sqrt_phi": {k: float(mpmath.sqrt(mp(exact_phi(kind, params, k)))) for k in idx if k},
        "level": {n: float(_level(kind, params, n)) for n in idx if n < dim - 1},
    }
    if "n" in spec:
        out["overflow"] = factorial_float_limit(kind, params, spec["n"]) < spec["n"]
    return out


def _ref_quadrature(spec):
    q, x, u0 = (mpmath.mpf(spec[k]) for k in ("q", "x", "u0"))
    beta = q - 1
    if spec["shape"] == "step":
        fprime = lambda u: 1 if u > u0 else 0
    else:
        fprime = lambda u: abs(u - u0)
    t0 = (u0 / x) ** (1 / beta)
    return {"value": float(mpmath.quad(lambda t: fprime(t**beta * x), [0, t0, 1]))}


def _ref_divergence(spec):
    return {"radius": radius(*spec["family"])}


def _ref_none(spec):
    return {}


_REFERENCES = {
    "cli.numbers": _ref_numbers,
    "cli.spectrum": _ref_spectrum,
    "cli.exp": _ref_exp,
    "cli.derive": _ref_derive,
    "cli.coherent": _ref_cli_coherent,
    "coherent.state": _ref_coherent_state,
    "fock.build_fock": _ref_fock,
    "fock.commutator_residual": _ref_fock,
    "fock.hamiltonian": _ref_fock,
    "fock.state_from_vacuum": _ref_fock,
    "calculus.quadrature": _ref_quadrature,
    "series.divergence": _ref_divergence,
    "cli.verify": _ref_none,
    "cli.error": _ref_none,
}
