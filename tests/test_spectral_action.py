"""Closed-form multiplier analysis: the propagator multiplier h_t, its
period constants, and the time-average lower bounds."""

import math

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from hyplab import selberg, spectral_action
from hyplab.errors import BoundNotReached, QuadratureFailure
from hyplab.selberg import disc_kernel, selberg_forward
from hyplab.spectral_action import (SpectralInterval, h_t_closed, h_t_grid,
                                    lipschitz_bound, c_of_s,
                                    verify_period_bound,
                                    time_avg_lower_bound, chain_lower_bound)


def test_interval_validation():
    with pytest.raises(ValueError):
        SpectralInterval(0.0, 1.0)
    with pytest.raises(ValueError):
        SpectralInterval(2.0, 1.0)
    I = SpectralInterval(1.0, 2.0)
    grid = I.s_grid(64)
    assert grid[0] == pytest.approx(1.0) and grid[-1] == pytest.approx(2.0)
    assert np.all(np.diff(grid) > 0)


def test_h_t_closed_frozen_values():
    assert h_t_closed(1.0, 1.0) == pytest.approx(2.339772838623207,
                                                 abs=1e-10)
    # s -> 0 limit: average of 1 over the disc with the cosh weight
    assert h_t_closed(1.0, 1e-12) == pytest.approx(2.6620466951419703,
                                                   abs=1e-10)
    with pytest.raises(ValueError):
        h_t_closed(0.0, 1.0)


def test_h_t_grid_matches_adaptive():
    # the transform of the disc kernel is an independent integral: the
    # Abel step, then the Fourier step, each with its own rule
    t = np.array([0.5, 1.0, 2.0, 3.0, 3.0])
    s = np.array([0.5, 1.0, 2.0, 0.7, 4.0])
    got = h_t_grid(t, s)
    want = np.array([selberg_forward(disc_kernel(ti)).eval(si)
                     for ti, si in zip(t, s)])
    assert np.max(np.abs(got - want)) < 1e-9


def test_starved_rules_raise_quadrature_failure(monkeypatch):
    # h_t's rule with 8 nodes where 128 are asked for (16 for the check)
    monkeypatch.setattr(spectral_action, "_gl",
                        lambda n: selberg._gauss_legendre(n // 16))
    with pytest.raises(QuadratureFailure, match="h_t at t=3.0, s=4.0"):
        h_t_grid([1.0, 3.0], [4.0, 4.0])
    # QUADPACK held to one subinterval cannot meet its budget
    with pytest.warns(IntegrationWarning), \
            pytest.raises(QuadratureFailure, match="starved quadrature"):
        selberg._quad(lambda v: math.cos(40.0 * v), 0.0, 1.0, "starved",
                      limit=1)


def c_of_s_by_parts(s):
    """c(s) via the integration-by-parts identity
    c(s) = -(1/(4 s^2)) Int_0^{2 pi} sin(x) e^{(x-2pi)/s}
           / sqrt(1 - e^{(x-2pi)/s}) dx,
    an independent quadrature oracle for ``c_of_s``."""
    # absorb the inverse-sqrt endpoint with x = 2 pi - w^2
    def integrand(w):
        x = 2.0 * math.pi - w * w
        e = math.exp(-w * w / s)
        return math.sin(x) * e / math.sqrt(-math.expm1(-w * w / s)) * 2.0 * w

    val = selberg._quad(integrand, 0.0, math.sqrt(2.0 * math.pi),
                        f"c(s) by parts at s={s}", epsabs=1e-13,
                        epsrel=1e-11, limit=400)
    return -val / (4.0 * s * s)


def test_period_constant_two_quadratures_agree():
    for s in (0.7, 1.0, 2.0, 3.0):
        assert c_of_s(s) == pytest.approx(c_of_s_by_parts(s), abs=1e-9)


def test_period_constant_frozen_values():
    assert c_of_s(1.0) == pytest.approx(0.17383053861960807, abs=1e-10)
    assert c_of_s(2.0) == pytest.approx(0.0840832830377152, abs=1e-10)
    with pytest.raises(ValueError):
        c_of_s(0.0)


def test_multiplier_at_periods_below_minus_2c():
    # at the period times the multiplier sits at a k-independent trough
    # strictly below -2 c(s)
    s = 1.5
    c = c_of_s(s)
    h_k = [h_t_closed(2.0 * math.pi * k / s, s) for k in (5, 20, 60)]
    assert all(h < -2.0 * c for h in h_k)
    assert max(h_k) - min(h_k) < 1e-9


def test_verify_period_bound_small():
    I = SpectralInterval(1.0, 2.0)
    c_I, k0 = verify_period_bound(I, k_max=12, grid_n=16)
    assert c_I > 0.0
    assert 1 <= k0 <= 12
    with pytest.raises(ValueError):
        verify_period_bound(I, k_max=5)


def test_time_avg_lower_bound_positive():
    I = SpectralInterval(1.0, 2.0)
    val, s_min = time_avg_lower_bound(I, T=20.0, grid_n=8)
    assert val > 0.0
    assert 1.0 <= s_min <= 2.0
    with pytest.raises(ValueError):
        time_avg_lower_bound(I, T=-1.0)


def test_lipschitz_bound_positive_and_range_check():
    I = SpectralInterval(1.0, 2.0)
    L = lipschitz_bound(I.s_grid(8), (1.5, 3.0), n_t=4)
    assert L > 0.0
    with pytest.raises(ValueError):
        lipschitz_bound(I.s_grid(8), (0.5, 3.0))


def test_chain_lower_bound_structure():
    I = SpectralInterval(1.0, 2.0)
    val, info = chain_lower_bound(I, T=400.0, k_max=12)
    assert info["c_I"] > 0.0 and info["lipschitz"] > 0.0
    assert info["J_len"] > 0.0
    # the chain bound is weaker than the directly computed average
    direct, _ = time_avg_lower_bound(I, T=400.0, grid_n=8)
    assert val <= direct
