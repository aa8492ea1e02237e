"""Deformed coherent states: right eigenvectors of the lowering operator.

The state for amplitude alpha expands on the number basis as

    |alpha> = N(|alpha|^2)^(-1/2) sum_n alpha^n / sqrt(phi(n)!) |n>,
    N(y) = e_phi(y),

and exists whenever |alpha|^2 sits strictly inside the convergence disk of
e_phi.  At q = 2 (tsallis) the normalizer collapses to sqrt(1 - |alpha|^2)
and the coefficients to plain powers of alpha.

Work and memory grow linearly with the cutoff dim: the coefficients are a
running product and eigen_residual applies a through its superdiagonal
vector, never as a dense dim x dim matrix.  The cutoff is capped at MAX_DIM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import ladder_vector
from .scheme import DeformationScheme, phi, tsallis
from .series import phi_exp_series, radius_of_convergence, tsallis_exp_closed

__all__ = [
    "MAX_DIM",
    "CoherentState",
    "coherent_state",
    "eigen_residual",
    "f_coherent_coefficients",
    "expected_n",
]

# Largest cutoff coherent_state accepts, auto-chosen or explicit.  The auto
# rule ceil(40 / (1 - fill)) grows without bound as fill -> 1 and reaches
# the cap at fill = 0.9996; a state at the cap holds 1e5 coefficients, a
# few MB.
MAX_DIM = 100_000


@dataclass(frozen=True)
class CoherentState:
    scheme: DeformationScheme
    alpha: complex
    dim: int
    coefficients: tuple[complex, ...]  # alpha^n / sqrt(phi(n)!), not normalized
    norm_const: float

    def vector(self) -> np.ndarray:
        """Normalized truncated coefficient vector."""
        return self.norm_const * np.asarray(self.coefficients)

    @property
    def tail_mass(self) -> float:
        """Probability mass lost to the cutoff: 1 - sum |<n|alpha>|^2."""
        v = self.vector()
        return max(0.0, 1.0 - float(np.sum(np.abs(v) ** 2)))


def _phi_exp_value(scheme: DeformationScheme, y: float) -> float:
    # closed forms where they exist: they are exact at the q = 2 point,
    # which the normalization identity norm^2 + |alpha|^2 = 1 relies on
    if scheme.kind == "tsallis":
        return tsallis_exp_closed(scheme.q, y)
    if scheme.kind == "boson":
        return math.exp(y)
    value, _ = phi_exp_series(scheme, y)
    return float(value.real) if isinstance(value, complex) else float(value)


def coherent_state(
    scheme: DeformationScheme, alpha: complex, dim: int | None = None
) -> CoherentState:
    """Construct the truncated coherent state for amplitude alpha.

    dim defaults to max(64, ceil(40 / (1 - fill))) with fill = |alpha|^2/radius,
    growing the cutoff as alpha approaches the edge of the disk.  Any dim,
    chosen or given, above MAX_DIM raises ValueError before a coefficient
    is built.  Cost is O(dim) time and memory.
    """
    alpha = complex(alpha)
    radius = radius_of_convergence(scheme)
    y = abs(alpha) ** 2
    if y >= radius:
        raise ValueError(
            f"|alpha|^2 = {y} is not inside the convergence disk (radius {radius}); "
            "the normalizer e_phi(|alpha|^2) diverges"
        )
    fill = y / radius if math.isfinite(radius) else 0.0
    if dim is None:
        dim = max(64, math.ceil(40.0 / (1.0 - fill)))
    if dim > MAX_DIM:
        raise ValueError(
            f"cutoff dim {dim} exceeds MAX_DIM = {MAX_DIM} at fill |alpha|^2/radius = {fill!r}"
        )
    if dim < 4:
        raise ValueError(f"dim >= 4 required, got {dim}")
    coeffs = [1.0 + 0.0j]
    for n in range(1, dim):
        f = phi(scheme, n)
        if f <= 0.0:
            raise ValueError(f"phi({n}) = {f} <= 0: coherent expansion undefined")
        coeffs.append(coeffs[-1] * (alpha / math.sqrt(f)))
    norm_const = 1.0 / math.sqrt(_phi_exp_value(scheme, y))
    return CoherentState(scheme, alpha, dim, tuple(coeffs), norm_const)


def eigen_residual(state: CoherentState) -> float:
    """Max |(a v - alpha v)_n| over n <= dim/2, where truncation cannot reach.

    The upper half of the vector is left out on purpose: the defect of the
    cutoff sits entirely in the last entry, so the lower half measures how
    well the eigenvalue relation itself holds.
    """
    m = state.dim // 2 + 1
    s = ladder_vector(state.scheme, state.dim)
    v = state.vector()
    w = s[:m] * v[1 : m + 1] - state.alpha * v[:m]
    return float(np.max(np.abs(w)))


def f_coherent_coefficients(q: float, alpha: complex, dim: int) -> tuple[complex, ...]:
    """Tsallis coherent coefficients routed through the boson basis.

    Entry n is sqrt(Q_{n-1}) alpha^n / sqrt(n!) with
    Q_{n-1} = prod_{j<n} (1 + (q-1) j); algebraically identical to
    alpha^n / sqrt(phi_T(n)!), but built from the undeformed factorial and
    the Q product, which makes it an independent route for cross-checks.
    """
    scheme = tsallis(q)
    alpha = complex(alpha)
    y = abs(alpha) ** 2
    radius = radius_of_convergence(scheme)
    if y >= radius:
        raise ValueError(
            f"|alpha|^2 = {y} is not inside the convergence disk (radius {radius})"
        )
    if dim < 1:
        raise ValueError("dim >= 1 required")
    out = [1.0 + 0.0j]
    for n in range(1, dim):
        out.append(out[-1] * alpha * math.sqrt((1.0 + (q - 1.0) * (n - 1)) / n))
    return tuple(out)


def expected_n(state: CoherentState) -> float:
    """Mean occupation sum n |<n|alpha>|^2 over the truncated vector.

    No tail correction is applied; state.tail_mass reports what the cutoff
    dropped.
    """
    v = state.vector()
    return float(np.sum(np.arange(state.dim) * np.abs(v) ** 2))
