"""Deformed derivatives, antiderivatives, and the phi-weighted inner product.

Difference-quotient derivatives::

    jackson     (f(x) - f(qx)) / ((1-q) x)
    symmetric   (f(x/q) - f(qx)) / ((1/q - q) x)
    (p,q)       (f(px) - f(qx)) / ((p-q) x)

The tsallis-deformed derivative has no difference quotient.  It acts on
monomials as x^n -> [n]_(q-1) x^(n-1) with [n]_(q-1) = n/(1+(q-1)(n-1)),
has e_q(kx) as eigenfunction with eigenvalue k, and is computed either on
series coefficients or through the quadrature

    D F(x) = int_0^1 F'(t^(q-1) x) dt,

the chain-cancelled form of int_0^1 t^(1-q) d/dx[F(t^(q-1) x)] dt, which
keeps the integrand finite at t = 0.  Two operator candidates were
rejected during design and are recorded here: (1 + (1-q) x d/dx) also has
e_q as an eigenfunction but sends x^n to x^n(1 + (1-q)n)-type combinations
instead of the monomial law above; the formal resolvent
(1 + (q-1) x d/dx)^(-1) d/dx only acts through a series expansion.

The inner product pairing the derivative with multiplication by x is

    <f, g> = sum_n conj(f_n) g_n phi(n)!,

under which xi_n = x^n / sqrt(phi(n)!) is orthonormal and
<e_phi(a x), e_phi(a x)> = e_phi(|a|^2).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .scheme import DeformationScheme, phi, tsallis
from .series import PowerSeries

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "SampledFunction",
    "sampled_from_series",
    "jackson_derivative",
    "symmetric_derivative",
    "pq_derivative",
    "tsallis_derivative_series",
    "tsallis_derivative_quadrature",
    "tsallis_integral_series",
    "derivative_on_series",
    "bargmann_inner_product",
]

# step for the central-difference fallback; error balances at eps^(2/3)
_FD_STEP = sys.float_info.epsilon ** (1.0 / 3.0)
_FALLBACK_TOL = 1e-6


class QuadratureError(RuntimeError):
    """Refinement stopped before successive estimates settled."""

    def __init__(self, message: str, estimates: tuple[float, float]):
        super().__init__(message)
        self.estimates = estimates


@dataclass(frozen=True)
class QuadratureSpec:
    base_nodes: int = 32
    abs_tol: float = 1e-10
    max_refinements: int = 12

    def __post_init__(self):
        if self.base_nodes < 2:
            raise ValueError(f"base_nodes >= 2 required, got {self.base_nodes}")
        if not (0.0 < self.abs_tol < 1.0):
            raise ValueError(f"abs_tol must lie in (0, 1), got {self.abs_tol}")
        if self.max_refinements < 1:
            raise ValueError(f"max_refinements >= 1 required, got {self.max_refinements}")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class SampledFunction:
    """Black-box real function, optionally with its exact derivative.

    Without deriv, derivative() falls back to a central difference with
    step eps^(1/3) max(1, |x|); consumers relax their tolerances to 1e-6
    when that happens.
    """

    eval: Callable[[float], float]
    deriv: Callable[[float], float] | None = None

    def derivative(self, x: float) -> float:
        if self.deriv is not None:
            return self.deriv(x)
        h = _FD_STEP * max(1.0, abs(x))
        return (self.eval(x + h) - self.eval(x - h)) / (2.0 * h)


def sampled_from_series(s: PowerSeries) -> SampledFunction:
    """Wrap a polynomial as a SampledFunction with its exact derivative."""
    dcoeffs = [n * c for n, c in enumerate(s.coeffs)][1:] or [0.0]
    d = PowerSeries(dcoeffs)
    return SampledFunction(eval=lambda x: s(x), deriv=lambda x: d(x))


def _check_point(x: float) -> float:
    x = float(x)
    if x == 0.0:
        raise ValueError(
            "x = 0: the difference quotient is undefined there; "
            "apply the series form for polynomial input"
        )
    return x


def jackson_derivative(f: SampledFunction, x: float, q: float) -> float:
    """(f(x) - f(qx)) / ((1-q) x); sends x^n to (1-q^n)/(1-q) x^(n-1)."""
    q = float(q)
    if not (q > 0.0) or q == 1.0:
        raise ValueError(f"jackson derivative needs q > 0, q != 1, got {q}")
    x = _check_point(x)
    return (f.eval(x) - f.eval(q * x)) / ((1.0 - q) * x)


def symmetric_derivative(f: SampledFunction, x: float, q: float) -> float:
    """(f(x/q) - f(qx)) / ((1/q - q) x)."""
    q = float(q)
    if not (q > 0.0) or q == 1.0:
        raise ValueError(f"symmetric derivative needs q > 0, q != 1, got {q}")
    x = _check_point(x)
    return (f.eval(x / q) - f.eval(q * x)) / ((1.0 / q - q) * x)


def pq_derivative(f: SampledFunction, x: float, p: float, q: float) -> float:
    """(f(px) - f(qx)) / ((p-q) x)."""
    p = float(p)
    q = float(q)
    if p == q:
        raise ValueError(f"(p,q) derivative needs p != q, got p = q = {p}")
    x = _check_point(x)
    return (f.eval(p * x) - f.eval(q * x)) / ((p - q) * x)


def tsallis_derivative_series(s: PowerSeries, q: float) -> PowerSeries:
    """Coefficient map c_n -> [n]_(q-1) c_n at power n-1."""
    sch = tsallis(q)
    out = []
    for n in range(1, len(s.coeffs)):
        c = s.coeffs[n]
        out.append(0.0 if c == 0 else c * phi(sch, n))
    return PowerSeries(out or [0.0])


def tsallis_integral_series(s: PowerSeries, q: float) -> PowerSeries:
    """Coefficient map c_n -> c_n / [n+1]_(q-1) at power n+1; constant 0."""
    sch = tsallis(q)
    out: list[complex | float] = [0.0]
    for n, c in enumerate(s.coeffs):
        if c == 0:
            out.append(0.0)
            continue
        try:
            out.append(c / phi(sch, n + 1))
        except ZeroDivisionError:
            out.append(0.0)  # pole in phi: the antiderivative coefficient vanishes
    return PowerSeries(out)


def derivative_on_series(s: PowerSeries, scheme: DeformationScheme) -> PowerSeries:
    """Generic scheme derivative on coefficients: c_n -> phi(n) c_n at n-1.

    For polynomial input this coincides with the matching difference
    quotient of the scheme (and with the tsallis quadrature form).
    """
    out = []
    for n in range(1, len(s.coeffs)):
        c = s.coeffs[n]
        out.append(0.0 if c == 0 else c * phi(scheme, n))
    return PowerSeries(out or [0.0])


@functools.lru_cache(maxsize=8)
def _gauss_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = np.polynomial.legendre.leggauss(n)
    return tuple(float(v) for v in x), tuple(float(v) for v in w)


def _panel_sum(g, lo: float, hi: float, rule) -> float:
    xs, ws = rule
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return half * sum(w * g(mid + half * x) for x, w in zip(xs, ws))


def _graded_estimate(g, n_panels: int, rule) -> float:
    # panels [2^-(j+1), 2^-j] shrink geometrically toward t = 0, where the
    # integrand's t^(q-1) inner power makes derivatives blow up
    total = 0.0
    hi = 1.0
    for _ in range(n_panels):
        lo = 0.5 * hi
        total += _panel_sum(g, lo, hi, rule)
        hi = lo
    total += _panel_sum(g, 0.0, hi, rule)
    return total


def tsallis_derivative_quadrature(
    f: SampledFunction, x: float, q: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Quadrature form int_0^1 F'(t^(q-1) x) dt for q in [1, 2].

    Refines a graded composite Gauss-Legendre estimate (panel count doubling
    each round) until two successive values agree within quad.abs_tol, or
    1e-6 when F' comes from the finite-difference fallback.  At q = 1 the
    plain derivative is returned.  For q < 1 use the series form.
    """
    q = float(q)
    x = float(x)
    if not (1.0 <= q <= 2.0):
        raise ValueError(f"quadrature form needs q in [1, 2], got {q}; the series form covers other q")
    if q == 1.0:
        return f.derivative(x)
    tol = quad.abs_tol if f.deriv is not None else max(quad.abs_tol, _FALLBACK_TOL)
    beta = q - 1.0
    g = lambda t: f.derivative((t**beta) * x)
    rule = _gauss_rule(quad.base_nodes)
    previous = _graded_estimate(g, 8, rule)
    pair = (previous, previous)
    for k in range(1, quad.max_refinements + 1):
        current = _graded_estimate(g, 8 << k, rule)
        if abs(current - previous) < tol:
            return current
        pair = (previous, current)
        previous = current
    raise QuadratureError(
        f"estimates did not settle below {tol}: last two {pair[0]!r}, {pair[1]!r}",
        estimates=pair,
    )


def bargmann_inner_product(
    f: PowerSeries, g: PowerSeries, scheme: DeformationScheme
) -> complex:
    """<f, g> = sum conj(f_n) g_n phi(n)! over the shared coefficient range."""
    n_max = min(f.order, g.order)
    total = 0.0 + 0.0j
    fact = 1.0
    for n in range(n_max + 1):
        if n > 0:
            fact *= phi(scheme, n)
            if math.isinf(fact):
                raise OverflowError(
                    f"phi factorial exceeds the float range at n = {n}; "
                    "rescale the series or shorten it"
                )
        a = f.coeffs[n]
        b = g.coeffs[n]
        if a != 0 and b != 0:
            conj_a = a.conjugate() if isinstance(a, complex) else a
            total += conj_a * b * fact
    return complex(total)
