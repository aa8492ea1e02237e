"""Truncated Fock-space operators and the oscillator spectrum.

On the number basis |0>, ..., |D-1> the lowering operator has a single
superdiagonal, a[n, n+1] = sqrt(phi(n+1)), and the raising operator is its
transpose.  Every ladder operation here reads that superdiagonal as the
vector s = ladder_vector(scheme, D) and costs O(D): the commutator diagonal
s^2 - shift(s^2), the hamiltonian diagonal (s^2|0 + 0|s^2)/2 and |n> as the
product s[0] ... s[n-1] placed at index n.  No D x D matrix is multiplied.

build_fock still returns the dense read-only a, a+ = a.T and N, and
hamiltonian still returns a D x D ndarray, for callers that want matrices;
each costs O(D^2) memory.  H = (a a+ + a+ a)/2 is diagonal with
E_n = (phi(n+1) + phi(n))/2; its last entry is truncation-polluted because
phi(D) is cut off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scheme import DeformationScheme, phi, phi_factorial

__all__ = [
    "FockTriple",
    "SpectrumReport",
    "build_fock",
    "commutator_residual",
    "energy_level",
    "spectrum_report",
    "hamiltonian",
    "ladder_vector",
    "state_from_vacuum",
]


@dataclass(frozen=True)
class FockTriple:
    """Lowering, raising, and number operators on a D-dimensional cutoff."""

    dim: int
    a: np.ndarray
    a_dagger: np.ndarray
    n_op: np.ndarray
    scheme: DeformationScheme


def ladder_vector(scheme: DeformationScheme, dim: int) -> np.ndarray:
    """s[k] = sqrt(phi(k+1)) for k < dim-1: the superdiagonal of a on a dim cutoff."""
    if dim < 2:
        raise ValueError(f"dim >= 2 required, got {dim}")
    vals = []
    for k in range(1, dim):
        v = phi(scheme, k)
        if v < 0.0:
            raise ValueError(f"phi({k}) = {v} < 0: no real ladder representation")
        vals.append(v)
    return np.sqrt(vals)


def build_fock(scheme: DeformationScheme, dim: int) -> FockTriple:
    """Dense read-only a, a+ = a.T and N on a dim cutoff, built from ladder_vector."""
    a = np.diag(ladder_vector(scheme, dim), 1)
    n_op = np.diag(np.arange(dim, dtype=float))
    a.flags.writeable = False
    n_op.flags.writeable = False
    return FockTriple(dim, a, a.T, n_op, scheme)


def commutator_residual(triple: FockTriple) -> float:
    """Max |(a a+ - a+ a) - diag(phi(n+1) - phi(n))| over the leading block.

    The last row and column are excluded: the truncated a a+ cannot see
    phi(D).  The result scales with the rounding unit of the largest phi in
    range, so fast-growing schemes at large D report larger residuals.
    Both products are diagonal, so only s^2 - shift(s^2) is formed: O(D).
    """
    sq = np.square(np.diagonal(triple.a, 1))
    comm = sq - np.concatenate(([0.0], sq[:-1]))
    expect = np.diff([phi(triple.scheme, n) for n in range(triple.dim)])
    return float(np.max(np.abs(comm - expect)))


def energy_level(scheme: DeformationScheme, n: int) -> float:
    """E_n = (phi(n+1) + phi(n))/2."""
    return 0.5 * (phi(scheme, n + 1) + phi(scheme, n))


def _phi_limit(scheme: DeformationScheme) -> float:
    """lim phi(n) for n -> inf; inf when unbounded, nan when no limit exists."""
    k = scheme.kind
    if k == "boson":
        return math.inf
    if k == "tsallis":
        return math.inf if scheme.q == 1.0 else 1.0 / (scheme.q - 1.0)
    if k == "mu":
        return math.inf if scheme.mu == 0.0 else 1.0 / scheme.mu
    if k == "qosc":
        return 1.0 / (1.0 - scheme.q) if scheme.q < 1.0 else math.inf
    if k == "symq":
        return math.inf
    if k == "pq":
        p, q = scheme.p, scheme.q
        m = max(abs(p), abs(q))
        if m > 1.0:
            return math.inf
        if m < 1.0:
            return 0.0
        if p == 1.0 and abs(q) < 1.0:
            return 1.0 / (1.0 - q)
        if q == 1.0 and abs(p) < 1.0:
            return 1.0 / (1.0 - p)
        return math.nan  # a -1 base keeps oscillating
    return math.nan


@dataclass(frozen=True)
class SpectrumReport:
    levels: tuple[float, ...]
    gaps: tuple[float, ...]
    band_top: float
    band_width: float


def spectrum_report(scheme: DeformationScheme, n_max: int) -> SpectrumReport:
    """Levels E_0..E_n_max, their gaps, and the band limit lim E_n.

    band_width is band_top - E_1, the room left above the first excited
    level; it is inf for unbounded schemes.
    """
    if n_max < 1:
        raise ValueError(f"n_max >= 1 required, got {n_max}")
    levels = tuple(energy_level(scheme, n) for n in range(n_max + 1))
    gaps = tuple(b - a for a, b in zip(levels, levels[1:]))
    top = _phi_limit(scheme)
    return SpectrumReport(levels, gaps, top, top - levels[1])


def hamiltonian(triple: FockTriple) -> np.ndarray:
    """H = (a a+ + a+ a)/2 as a D x D ndarray; entry [D-1, D-1] is truncation-polluted.

    Only the diagonal (s^2|0 + 0|s^2)/2 is computed; the dense return costs
    O(D^2) memory and no matrix product.
    """
    sq = np.square(np.diagonal(triple.a, 1))
    return np.diag(0.5 * (np.concatenate((sq, [0.0])) + np.concatenate(([0.0], sq))))


def state_from_vacuum(triple: FockTriple, n: int) -> np.ndarray:
    """|n> = (a+)^n |0> / sqrt(phi(n)!) as a length-D coefficient vector.

    (a+)^n |0> is s[0] s[1] ... s[n-1] at index n, multiplied in that order.
    The normalizer phi(n)! is formed first, so an n past the float range
    raises OverflowError before any vector entry is computed.
    """
    if not 0 <= n < triple.dim:
        raise ValueError(f"n = {n} lies outside the truncated space (dim {triple.dim})")
    norm = math.sqrt(phi_factorial(triple.scheme, n))
    v = np.zeros(triple.dim)
    v[n] = math.prod(np.diagonal(triple.a, 1)[:n].tolist())
    return v / norm
