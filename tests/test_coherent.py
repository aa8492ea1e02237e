from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from defosc.coherent import (
    coherent_state,
    eigen_residual,
    expected_n,
    f_coherent_coefficients,
)
from defosc.fock import build_fock
from defosc.scheme import boson, phi_factorial, tsallis
from defosc.series import radius_of_convergence, tsallis_exp_closed
from defosc.verify import _battery


def test_coefficients_match_direct_formula():
    s = tsallis(1.5)
    st = coherent_state(s, 0.7, dim=12)
    for n in range(12):
        want = 0.7**n / math.sqrt(phi_factorial(s, n))
        assert st.coefficients[n] == pytest.approx(want, rel=1e-13)


def test_norm_const_is_inverse_sqrt_of_series():
    s = tsallis(1.3)
    st = coherent_state(s, 0.9, dim=64)
    want = 1.0 / math.sqrt(tsallis_exp_closed(1.3, 0.81))
    assert st.norm_const == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("mod", [0.1, 0.5, 0.9, 0.99])
def test_q2_normalizer_closed_form(mod):
    # at q = 2 the normalizer is exactly sqrt(1 - |alpha|^2)
    st = coherent_state(tsallis(2.0), mod, dim=32)
    assert abs(st.norm_const - math.sqrt(1.0 - mod * mod)) < 1e-14


def test_q2_occupation_distribution_is_geometric():
    mod = 0.6
    y = mod * mod
    st = coherent_state(tsallis(2.0), mod, dim=64)
    p = np.abs(st.vector()) ** 2
    for n in range(20):
        assert p[n] == pytest.approx((1.0 - y) * y**n, rel=1e-12)


def test_default_dim_rule():
    assert coherent_state(boson(), 1.0).dim == 64
    # y/radius = 1/2 exactly -> ceil(40 / 0.5) = 80
    assert coherent_state(tsallis(1.5), 1.0).dim == 80
    # close to the disk edge: y/radius = 1.96/2 = 0.98 -> ceil(40 / 0.02) = 2000
    assert coherent_state(tsallis(1.5), 1.4).dim == 2000
    # far inside, the 64 floor wins
    assert coherent_state(tsallis(1.5), 0.5, dim=None).dim == 64
    # fill 0.999 stays below the MAX_DIM cap
    assert coherent_state(tsallis(1.5), 1.4135).dim == 39649


def test_divergence_outside_disk():
    with pytest.raises(ValueError, match="radius"):
        coherent_state(tsallis(1.5), 1.5)  # y = 2.25 > 2
    with pytest.raises(ValueError, match="radius"):
        coherent_state(tsallis(2.0), 1.0)  # y = 1 hits the edge


def test_dim_floor():
    with pytest.raises(ValueError):
        coherent_state(boson(), 0.5, dim=3)


@pytest.mark.parametrize("q", [1.3, 1.5, 2.0])
@pytest.mark.parametrize("frac", [0.3, 0.6, 0.8])
def test_eigenvector_residual_small(q, frac):
    alpha = frac / math.sqrt(q - 1.0)
    st = coherent_state(tsallis(q), alpha, dim=64)
    assert eigen_residual(st) < 1e-8


def test_eigenvector_residual_complex_amplitude():
    alpha = 0.5 * cmath.exp(1.0j * 0.8)
    st = coherent_state(tsallis(1.5), alpha, dim=64)
    assert eigen_residual(st) < 1e-10


def test_residual_window_excludes_truncation_defect():
    # the full action a v - alpha v has its defect in the last entry; the
    # reported residual must not see it
    st = coherent_state(tsallis(1.5), 1.2, dim=24)
    triple = build_fock(st.scheme, st.dim)
    v = st.vector()
    w = np.abs(triple.a @ v - st.alpha * v)
    assert w[-1] > 1e-4
    assert eigen_residual(st) < 1e-9


# coherent states need a convergence disk, which custom tables lack
DENSE_GRID = [(s, d) for s in _battery() for d in (4, 16, 64)]


@pytest.mark.parametrize(
    "scheme,dim", DENSE_GRID, ids=[f"{s.descriptor()}-D{d}" for s, d in DENSE_GRID]
)
def test_eigen_residual_equals_dense_product(scheme, dim):
    radius = radius_of_convergence(scheme)
    mod = 0.8 * math.sqrt(radius) if math.isfinite(radius) else 1.5
    st = coherent_state(scheme, cmath.rect(mod, 0.8), dim)
    v = st.vector()
    w = build_fock(scheme, dim).a @ v - st.alpha * v
    assert eigen_residual(st) == float(np.max(np.abs(w[: dim // 2 + 1])))


def test_eigen_residual_memory_is_linear_in_dim():
    # a dense complex ladder at this cutoff would take 256 MB
    st = coherent_state(tsallis(1.5), 1.4, dim=4001)
    tracemalloc.start()
    try:
        eigen_residual(st)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_residual_stable_under_dim_growth():
    a = eigen_residual(coherent_state(tsallis(1.5), 0.8, dim=48))
    b = eigen_residual(coherent_state(tsallis(1.5), 0.8, dim=96))
    assert a < 1e-12 and b < 1e-12


def test_tail_mass():
    st = coherent_state(tsallis(1.5), 0.5, dim=64)
    assert 0.0 <= st.tail_mass < 1e-12
    # small cutoff leaves visible mass outside
    st2 = coherent_state(tsallis(1.5), 1.3, dim=8)
    assert st2.tail_mass > 1e-3


def test_expected_n_boson_equals_y():
    st = coherent_state(boson(), 1.2, dim=96)
    assert expected_n(st) == pytest.approx(1.44, rel=1e-12)


def test_expected_n_q2_closed_form():
    # geometric distribution mean y/(1-y)
    y = 0.49
    st = coherent_state(tsallis(2.0), 0.7, dim=512)
    assert expected_n(st) == pytest.approx(y / (1.0 - y), rel=1e-10)


def test_f_route_matches_direct_coefficients():
    s = tsallis(1.4)
    alpha = 0.8 * cmath.exp(0.3j)
    direct = coherent_state(s, alpha, dim=32).coefficients
    via_f = f_coherent_coefficients(1.4, alpha, 32)
    for n in range(32):
        assert via_f[n] == pytest.approx(direct[n], rel=1e-12)


def test_f_route_validation():
    with pytest.raises(ValueError, match="radius"):
        f_coherent_coefficients(1.5, 1.5, 8)
    with pytest.raises(ValueError):
        f_coherent_coefficients(1.5, 0.5, 0)


def test_vacuum_limit():
    # alpha -> 0 concentrates everything on |0>
    st = coherent_state(tsallis(1.5), 1e-8, dim=8)
    v = st.vector()
    assert abs(v[0] - 1.0) < 1e-15
    assert abs(v[1]) < 2e-8
