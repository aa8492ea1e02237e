from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from defosc.fock import (
    build_fock,
    commutator_residual,
    energy_level,
    hamiltonian,
    ladder_vector,
    spectrum_report,
    state_from_vacuum,
)
from defosc.scheme import (
    boson,
    custom_phi,
    mu_oscillator,
    phi,
    phi_factorial,
    pq,
    q_oscillator,
    symmetric_q,
    tsallis,
)
from defosc.verify import _CUSTOM_TABLE, _battery

BATTERY = [
    boson(),
    q_oscillator(1.05),
    symmetric_q(1.05),
    pq(1.02, 0.98),
    tsallis(1.5),
    tsallis(2.0),
    mu_oscillator(0.3),
    custom_phi([0.0, 1.0, 2.5, 3.5, 4.1, 4.4, 4.6, 4.7]),
]


def test_build_fock_structure():
    t = build_fock(tsallis(1.5), 5)
    assert t.a.shape == (5, 5)
    for n in range(4):
        assert t.a[n, n + 1] == math.sqrt(phi(tsallis(1.5), n + 1))
    # everything off the superdiagonal is zero
    mask = np.ones((5, 5), dtype=bool)
    mask[np.arange(4), np.arange(1, 5)] = False
    assert not t.a[mask].any()
    assert np.array_equal(t.a_dagger, t.a.T)
    assert np.array_equal(t.n_op, np.diag(np.arange(5.0)))


def test_build_fock_matrices_are_read_only():
    t = build_fock(boson(), 4)
    with pytest.raises(ValueError):
        t.a[0, 1] = 9.0
    with pytest.raises(ValueError):
        t.a_dagger[1, 0] = 9.0


def test_build_fock_rejects_small_dim():
    with pytest.raises(ValueError):
        build_fock(boson(), 1)


def test_build_fock_rejects_negative_phi():
    # phi(2) = p + q = -1.5 for this pair
    with pytest.raises(ValueError, match=r"phi\(2\)"):
        build_fock(pq(-2.0, 0.5), 4)


@pytest.mark.parametrize("scheme", BATTERY, ids=lambda s: s.descriptor())
def test_commutator_matches_phi_difference(scheme):
    t = build_fock(scheme, len(scheme.table) if scheme.kind == "custom" else 32)
    assert commutator_residual(t) < 1e-12


def test_commutator_residual_tracks_float_spacing():
    # phi grows like 2^n here, so by D = 16 the working values sit near
    # 4.4e4 where one ulp is 7.3e-12; demand 1e-11, not 1e-12
    t = build_fock(pq(0.5, 2.0), 16)
    assert commutator_residual(t) < 1e-11


def test_energy_levels():
    assert energy_level(boson(), 0) == 0.5
    assert energy_level(boson(), 7) == 7.5
    assert energy_level(tsallis(1.5), 0) == 0.5
    assert energy_level(tsallis(1.5), 1) == pytest.approx(7.0 / 6.0, rel=1e-15)
    assert energy_level(mu_oscillator(1.0), 0) == 0.25


def test_spectrum_report_boson():
    rep = spectrum_report(boson(), 6)
    assert rep.levels == tuple(n + 0.5 for n in range(7))
    assert rep.gaps == (1.0,) * 6
    assert rep.band_top == math.inf
    assert rep.band_width == math.inf


def test_spectrum_report_tsallis():
    rep = spectrum_report(tsallis(1.5), 4)
    assert rep.band_top == 2.0
    assert rep.band_width == pytest.approx(2.0 - 7.0 / 6.0, rel=1e-15)
    assert all(g > 0 for g in rep.gaps)
    # gaps shrink toward the band edge
    assert all(b < a for a, b in zip(rep.gaps, rep.gaps[1:]))


@pytest.mark.parametrize(
    "scheme,top",
    [
        (q_oscillator(0.5), 2.0),
        (q_oscillator(2.0), math.inf),
        (mu_oscillator(0.4), 2.5),
        (symmetric_q(1.2), math.inf),
        (pq(0.5, 0.25), 0.0),
        (pq(1.0, 0.5), 2.0),
        (tsallis(2.0), 1.0),
    ],
)
def test_band_top_by_family(scheme, top):
    assert spectrum_report(scheme, 2).band_top == top


def test_band_top_undefined_cases():
    # oscillating base: no limit
    assert math.isnan(spectrum_report(pq(-1.0, 0.5), 2).band_top)
    assert math.isnan(spectrum_report(pq(1.0, -1.0), 2).band_top)
    assert math.isnan(spectrum_report(custom_phi([0.0, 1.0, 2.0]), 1).band_top)


def test_spectrum_report_rejects_small_n():
    with pytest.raises(ValueError):
        spectrum_report(boson(), 0)


def test_hamiltonian_diagonal_and_corner():
    s = boson()
    h = hamiltonian(build_fock(s, 6))
    assert np.allclose(np.diag(h), [0.5, 1.5, 2.5, 3.5, 4.5, 2.5])
    # the corner sees only phi(5)/2 because phi(6) is cut off
    assert h[5, 5] == pytest.approx(2.5, rel=1e-15)
    assert np.allclose(h, np.diag(np.diag(h)))


def test_hamiltonian_matches_energy_level_in_bulk():
    s = tsallis(1.7)
    t = build_fock(s, 12)
    h = hamiltonian(t)
    for n in range(11):
        assert h[n, n] == pytest.approx(energy_level(s, n), rel=1e-14)


def test_state_from_vacuum_is_basis_vector():
    t = build_fock(tsallis(1.5), 8)
    for n in range(8):
        v = state_from_vacuum(t, n)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert v[n] == pytest.approx(1.0, abs=1e-12)


def test_state_from_vacuum_range():
    t = build_fock(boson(), 4)
    with pytest.raises(ValueError):
        state_from_vacuum(t, 4)
    with pytest.raises(ValueError):
        state_from_vacuum(t, -1)


def test_state_from_vacuum_overflow_raises_before_any_float_warning():
    # phi(n)! leaves the float range near n = 47; the vector entry would
    # overflow too, so the normalizer must be checked first
    t = build_fock(q_oscillator(1.9), 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"float range at n = \d+"):
            state_from_vacuum(t, 900)


# the verify battery at every cutoff, and the custom table up to its length
DENSE_GRID = [(s, d) for s in _battery() for d in (2, 3, 16, 64)] + [
    (custom_phi(_CUSTOM_TABLE), d) for d in (2, 3, len(_CUSTOM_TABLE))
]


@pytest.mark.parametrize(
    "scheme,dim", DENSE_GRID, ids=[f"{s.descriptor()}-D{d}" for s, d in DENSE_GRID]
)
def test_ladder_kernels_equal_dense_products(scheme, dim):
    # the dense matrix products are the reference the O(D) kernels replace;
    # both must agree to the last bit
    t = build_fock(scheme, dim)
    a, ad = t.a, t.a.T
    assert np.array_equal(ladder_vector(scheme, dim), np.diagonal(a, 1))
    comm = (a @ ad - ad @ a)[: dim - 1, : dim - 1]
    expect = np.diag([phi(scheme, n + 1) - phi(scheme, n) for n in range(dim - 1)])
    assert commutator_residual(t) == float(np.max(np.abs(comm - expect)))
    assert np.array_equal(hamiltonian(t), 0.5 * (a @ ad + ad @ a))
    v = np.zeros(dim)
    v[0] = 1.0
    for n in range(dim):
        assert np.array_equal(state_from_vacuum(t, n), v / math.sqrt(phi_factorial(scheme, n)))
        v = ad @ v
