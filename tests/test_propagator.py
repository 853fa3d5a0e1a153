"""The disc-averaging propagator: lens geometry, Monte Carlo kernel
estimates, the midpoint change of variables, and the Hilbert-Schmidt
estimator against an exact reference."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from hyplab.fuchsian import dirichlet_domain
from hyplab.geom import (Point, ball_volume, polar_from, sample_ball_complex,
                         _dist_c, _SAMPLE_BLOCK)
from hyplab.propagator import (MCEstimate, Observable, const_observable,
                               lens_halfwidth,
                               apply_Pt, kernel_PtaPt, intersection_volume,
                               pythagoras_check, midpoint_change_of_var_check,
                               ergodic_average_decay, hs_norm_estimate,
                               lens_volume)
from hyplab.selberg import spherical_oracle


def test_lens_halfwidth_closed_form():
    for t, r in ((2.0, 1.0), (3.0, 2.5), (1.0, 0.0)):
        rho = lens_halfwidth(t, r)
        assert math.cosh(rho) == pytest.approx(
            math.cosh(t) / math.cosh(0.5 * r), rel=1e-12)
    # r = 2t: degenerate lens
    assert lens_halfwidth(1.0, 2.0) == pytest.approx(
        math.acosh(math.cosh(1.0) / math.cosh(1.0)), abs=1e-9)
    with pytest.raises(ValueError):
        lens_halfwidth(1.0, 3.0)
    with pytest.raises(ValueError):
        lens_halfwidth(1.0, -0.1)


def test_pythagoras_relation_geometric():
    for t, r in ((2.0, 1.2), (3.0, 1.2), (4.0, 2.0)):
        assert pythagoras_check(t, r) < 1e-9


def _fermi_lens(t, r):
    """4 Int_0^L sinh(arccosh(cosh t / cosh(s + r/2))) ds, L = t - r/2,
    the lens area in Fermi coordinates along the axis through the two
    centers.  s = L (1 - v^2) removes the square-root endpoint, and
    cosh t / cosh(s + r/2) - 1 is written as a product of sinh values."""
    L = t - 0.5 * r

    def f(v):
        s = L * (1.0 - v * v)
        x1 = (2.0 * math.sinh(0.5 * (t + s + 0.5 * r))
              * math.sinh(0.5 * L * v * v) / math.cosh(s + 0.5 * r))
        return math.sqrt(x1 * (x1 + 2.0)) * 2.0 * L * v

    return 4.0 * integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13,
                                limit=200)[0]


@pytest.mark.parametrize("t", [0.3, 1.0, 2.0, 5.0, 8.0])
def test_lens_volume_matches_fermi_quadrature(t):
    for r in np.linspace(0.0, 2.0 * t - 0.1, 15):
        assert lens_volume(t, r) == pytest.approx(_fermi_lens(t, r),
                                                  rel=1e-12)


def test_lens_volume_limits_and_monte_carlo():
    for t in (0.5, 2.0, 6.0):
        assert lens_volume(t, 0.0) == pytest.approx(ball_volume(t),
                                                    rel=1e-12)
        assert lens_volume(t, 2.0 * t) == 0.0
    # r > t, where the midpoint ball serves thin lenses
    for t, r in ((2.0, 3.9), (2.0, 3.0), (1.0, 1.9)):
        est = intersection_volume(t, r, n=200_000, seed=17)
        assert abs(est.value - lens_volume(t, r)) <= 4.0 * est.error


def test_lens_guards_and_the_one_sample_estimate():
    """Beyond separation 2t the kernel is exactly zero; at r = 2t the
    lens is flagged degenerate; one sample gives no error bar."""
    z = Point(0.0, 1.0)
    far = kernel_PtaPt(const_observable(1.0), z, polar_from(z, 0.3, 4.5),
                       2.0, 100, 0)
    assert (far.value, far.error, far.extras) == (0.0, 0.0,
                                                  {"acceptance": 0.0})
    edge = intersection_volume(1.0, 2.0, 100, 0)
    assert (edge.value, edge.error, edge.extras) == (
        0.0, 0.0, {"degenerate": True, "acceptance": 0.0})
    with pytest.raises(ValueError, match="two samples"):
        MCEstimate.of(np.ones(1), 1.0)


def test_hs_main_term_matches_exact_reference(cyclic_group):
    """For a = 1 the time-averaged kernel is radial,
    K_T(r) = (1/T) Int_{r/2}^T lens_volume(t, r) / cosh t dt, so the main
    term is Vol(D) 2 pi Int_0^{2T} K_T(r)^2 sinh r dr.  Seeds 8 and 9
    drew too few small separations, where K_T^2 peaks, before the
    separation was stratified."""
    T = 2.0

    def K(r):
        return integrate.quad(lambda t: lens_volume(t, r) / math.cosh(t),
                              0.5 * r, T, epsabs=1e-13)[0] / T

    exact = dirichlet_domain(cyclic_group)[0] * 2.0 * math.pi * integrate.quad(
        lambda r: K(r) ** 2 * math.sinh(r), 0.0, 2.0 * T, epsabs=1e-12)[0]
    assert exact == pytest.approx(420.78459, abs=1e-5)
    for seed in (0, 8, 9):
        main, _ = hs_norm_estimate(cyclic_group, const_observable(1.0), T,
                                   1.5, n=4000, seed=seed)
        assert abs(main.value - exact) <= 4.0 * main.error


def test_apply_pt_constant_exact():
    # on constants the propagator multiplies by Vol(B_t)/sqrt(cosh t)
    t = 1.5
    est = apply_Pt(const_observable(2.0), Point(0.0, 1.0), t, 200, seed=1)
    expect = 2.0 * ball_volume(t) / math.sqrt(math.cosh(t))
    assert est.value == pytest.approx(expect, rel=1e-12)
    assert est.error == 0.0


def test_apply_pt_linearity_shared_seed():
    z = Point(0.2, 1.3)
    u = Observable(eval=lambda p: p.real, sup_bound=10.0)
    v = Observable(eval=lambda p: p.imag, sup_bound=10.0)
    uv = Observable(eval=lambda p: 2.0 * p.real - 3.0 * p.imag,
                    sup_bound=50.0)
    a = apply_Pt(u, z, 1.0, 5000, seed=7).value
    b = apply_Pt(v, z, 1.0, 5000, seed=7).value
    c = apply_Pt(uv, z, 1.0, 5000, seed=7).value
    assert c == pytest.approx(2.0 * a - 3.0 * b, rel=1e-10)


def test_apply_pt_blocks_are_one_evaluation():
    """Evaluating the observable block by block changes no value."""
    z, t, n = Point(0.1, 0.8), 2.0, 2 * _SAMPLE_BLOCK + 7
    u = Observable(eval=lambda p: np.cos(p.real) / p.imag, sup_bound=1e3)
    vals = u.eval(sample_ball_complex(z, t, n, 3))
    scale = ball_volume(t) / math.sqrt(math.cosh(t))
    est = apply_Pt(u, z, t, n, seed=3)
    assert est.value == scale * float(vals.mean())
    assert est.error == scale * float(vals.std(ddof=1)) / math.sqrt(n)


def test_apply_pt_is_thread_count_independent(on_cores):
    phi = spherical_oracle(1.0, 9.0)
    u = Observable(eval=lambda p: phi(_dist_c(p, 1j)), sup_bound=1.0)
    args = (u, Point(0.0, 1.0), 2.0, 2 * _SAMPLE_BLOCK + 7, 5)
    threaded = on_cores(2, apply_Pt, *args)
    serial = on_cores(1, apply_Pt, *args)
    assert (threaded.value, threaded.error) == (serial.value, serial.error)


def test_apply_pt_passes_on_an_error_of_the_second_block(on_cores):
    err = ValueError("second block")

    def eval_(p):
        if next(calls) == 1:
            raise err
        return np.ones(len(p))

    for k in (1, 2):
        calls = itertools.count()
        with pytest.raises(ValueError) as info:
            on_cores(k, apply_Pt, Observable(eval=eval_, sup_bound=1.0),
                     Point(0.0, 1.0), 1.0, 2 * _SAMPLE_BLOCK + 7, 5)
        assert info.value is err


def test_kernel_vanishes_beyond_support():
    z = Point(0.0, 1.0)
    w = polar_from(z, 0.3, 2.5)
    est = kernel_PtaPt(const_observable(1.0), z, w, t=1.0, n=100, seed=0)
    assert est.value == 0.0 and est.error == 0.0


def test_kernel_at_coincident_centers():
    # K(z, z) for a = 1 is Vol(B_t)/cosh t exactly; MC within 4 sigma
    t = 1.0
    z = Point(0.0, 1.0)
    est = kernel_PtaPt(const_observable(1.0), z, z, t, n=40_000, seed=3)
    expect = ball_volume(t) / math.cosh(t)
    assert abs(est.value - expect) <= 4.0 * est.error


def test_intersection_volume_limits():
    t = 1.5
    full = intersection_volume(t, 0.0, n=40_000, seed=5)
    assert abs(full.value - ball_volume(t)) <= 4.0 * full.error + 1e-9
    # monotone decreasing in separation (up to MC noise)
    vols = [intersection_volume(t, r, n=20_000, seed=6).value
            for r in (0.0, 1.0, 2.0, 2.9)]
    assert all(a > b for a, b in zip(vols, vols[1:]))
    with pytest.raises(ValueError):
        intersection_volume(1.0, 3.0, n=10, seed=0)


def test_midpoint_change_of_variables_quick(cyclic_group):
    def f(mc, theta, r):
        return np.exp(-np.asarray(r))

    lhs, rhs = midpoint_change_of_var_check(f, R=2.0, G=cyclic_group,
                                            n=20_000, seed=11)
    sigma = math.hypot(lhs.error, rhs.error)
    assert abs(lhs.value - rhs.value) <= 4.0 * sigma


def test_ergodic_average_decay_shrinks(cyclic_group):
    a = Observable(eval=lambda zc: np.sign(np.real(zc)), sup_bound=1.0)
    rows = ergodic_average_decay(cyclic_group, a, t_list=(2.0, 4.0),
                                 r=1.0, n=60, seed=3)
    rows = list(rows)
    assert len(rows) == 2
    # lens averages of a mean-zero observable decay as the lens grows
    assert rows[1][2] < rows[0][2]
    with pytest.raises(ValueError):
        ergodic_average_decay(cyclic_group, a, t_list=(0.4,), r=1.0,
                              n=10, seed=0)


def test_validation_errors():
    z = Point(0.0, 1.0)
    with pytest.raises(ValueError):
        apply_Pt(const_observable(1.0), z, -1.0, 10, seed=0)
    with pytest.raises(ValueError):
        kernel_PtaPt(const_observable(1.0), z, z, 0.0, 10, seed=0)
