"""The disc-averaging propagator: lens geometry, Monte Carlo kernel
estimates, and the midpoint change of variables."""

import math

import numpy as np
import pytest

from hyplab.geom import Point, ball_volume, polar_from, sample_ball_complex
from hyplab.propagator import (Observable, const_observable, lens_halfwidth,
                               apply_Pt, _EVAL_BLOCK, kernel_PtaPt, intersection_volume,
                               pythagoras_check, midpoint_change_of_var_check,
                               ergodic_average_decay)


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
    z, t, n = Point(0.1, 0.8), 2.0, 2 * _EVAL_BLOCK + 7
    u = Observable(eval=lambda p: np.cos(p.real) / p.imag, sup_bound=1e3)
    vals = u.eval(sample_ball_complex(z, t, n, 3))
    scale = ball_volume(t) / math.sqrt(math.cosh(t))
    est = apply_Pt(u, z, t, n, seed=3)
    assert est.value == scale * float(vals.mean())
    assert est.error == scale * float(vals.std(ddof=1)) / math.sqrt(n)


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
                                 r=1.0, n=60, seed=3, n_inner=300)
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
