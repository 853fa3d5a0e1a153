"""Trace-side machinery: Weyl density, certified geometric sums,
exponential-sum fits, and the synthetic cylinder spectra."""

import math

import numpy as np
import pytest

from hyplab.fuchsian import (dirichlet_domain, group_ball, _displacement,
                             _domain_samples)
from hyplab.propagator import MCEstimate
from hyplab.selberg import heat_kernel
from hyplab.trace import (EigenData, load_eigendata, save_eigendata,
                          weyl_density, lattice_count_bound, geometric_side,
                          geometric_side_domain_integral,
                          heat_trace_spectral, exp_sum_fit, smoothed_window,
                          eigencount_estimate)
from hyplab.synthetic import (radial_mode_eigenvalues, cylinder_spectrum,
                              winding_displacement, cylinder_geometric_side,
                              flat_mesh_eigendata)


def test_weyl_density_frozen_indicator():
    val = weyl_density(lambda lam: 1.0 if 1.25 <= lam <= 4.25 else 0.0, 3.0)
    assert val == pytest.approx(0.23862322861879692, abs=1e-9)
    # tanh < 1: bounded above by the flat high-energy density
    assert val < (4.25 - 1.25) / (4.0 * math.pi)
    # and approaches it from below at higher energy
    hi = weyl_density(lambda lam: 1.0 if 9.0 <= lam <= 12.0 else 0.0, 4.0)
    assert hi < 3.0 / (4.0 * math.pi)
    assert hi == pytest.approx(3.0 / (4.0 * math.pi), rel=1e-7)


def test_lattice_count_bound_monotone():
    ell = 2.0
    vals = [lattice_count_bound(R, ell) for R in (1.0, 2.0, 4.0)]
    assert vals[0] < vals[1] < vals[2]


def test_eigendata_roundtrip(tmp_path):
    E = flat_mesh_eigendata(20, 6, volume=3.0, seed=1)
    path = tmp_path / "eig.json"
    save_eigendata(E, path)
    E2 = load_eigendata(path)
    assert E2.volume == E.volume
    assert np.allclose(E2.eigenvalues, E.eigenvalues)
    assert np.allclose(E2.mesh_values, E.mesh_values)
    assert E2.has_mesh


def test_heat_trace_spectral():
    evs = np.array([0.0, 1.0, 2.5, 40.0])
    E = EigenData(volume=10.0, eigenvalues=evs)
    val, tail = heat_trace_spectral(E, 1.0)
    assert val == pytest.approx(float(np.exp(-evs).sum()), rel=1e-14)
    assert tail > 0.0
    with pytest.raises(ValueError):
        heat_trace_spectral(E, 0.0)


def test_geometric_side_cyclic(cyclic_group):
    from hyplab.geom import Point
    from hyplab.selberg import heat_kernel
    value, tail = geometric_side(cyclic_group, Point(0.0, 1.0), t=1.0,
                                 R=7.0)
    # displacements are 2|k|: compare against the direct sum
    direct = sum(2.0 * heat_kernel(1.0, 2.0 * k) for k in (1, 2, 3))
    assert value == pytest.approx(direct, rel=1e-10)
    omitted = sum(2.0 * heat_kernel(1.0, 2.0 * k) for k in range(4, 20))
    assert omitted <= tail < 1e-3


def _cyclic_winding_integral(t, R, keep):
    """Integral of Sum_{k != 0, keep(d_k)} p_t(d_k) over the domain
    {|s| < 1, cosh s cosh rho <= cosh 3} of cyclic_L2 truncated to
    B(z0, 3), by the winding law sinh(d_k/2) = sinh(k) cosh(rho) in
    Fermi coordinates (s, rho) with area element cosh rho ds drho.  The
    integrand jumps where d_k = R."""
    from scipy import integrate
    from hyplab.selberg import heat_kernel

    def across(rho):  # the winding sum at distance rho from the axis
        d = 2.0 * np.arcsinh(np.sinh(np.arange(1, 13)) * math.cosh(rho))
        return 2.0 * float(heat_kernel(t, d[keep(d)]).sum()) * math.cosh(rho)

    kinks = [math.acosh(math.sinh(0.5 * R) / math.sinh(k)) for k in (1, 2)]

    def along(s):  # the integral across the axis at s
        rho_max = math.acosh(math.cosh(3.0) / math.cosh(s))
        return 2.0 * integrate.quad(
            across, 0.0, rho_max, points=[r for r in kinks if r < rho_max],
            epsabs=1e-13, limit=200)[0]

    return integrate.quad(along, -1.0, 1.0, epsabs=1e-12)[0]


def test_geometric_side_domain_integral_cyclic(cyclic_group):
    """Against the winding law, counting g^k and g^-k while d_k <= R."""
    t, R, n, seed = 1.0, 6.0, 100_000, 11
    exact = _cyclic_winding_integral(t, R, lambda d: d <= R)
    assert exact == pytest.approx(0.13973693, abs=1e-8)
    value, err, tail = geometric_side_domain_integral(cyclic_group, t, R, n,
                                                      seed)
    assert abs(value - exact) <= 4.0 * err
    # the cyclic tail bound covers the heat mass beyond R, and is not the
    # packing bound's 0.130
    omitted = _cyclic_winding_integral(t, R, lambda d: d > R)
    assert omitted == pytest.approx(1.4e-5, rel=0.05)
    assert omitted <= tail < 1e-3


def test_geometric_side_domain_integral_runs_in_blocks(bolza_group,
                                                       on_cores):
    """Blocks of 65536 // 80 points against the 80-element Bolza ball
    give the estimate of the whole (80, n) array bit for bit, on one
    core and on two."""
    G, t, R, n, seed = bolza_group, 0.5, 1.0, 2000, 2
    vol_D, radius = dirichlet_domain(G)
    ball = group_ball(G, G.base_point, R + 2.0 * radius)
    assert len(ball) == 80
    disp = _displacement(ball.matrices(), _domain_samples(G, n, seed))
    whole = MCEstimate.of(
        np.where(disp <= R, heat_kernel(t, disp), 0.0).sum(axis=0), vol_D)
    for cores in (1, 2):
        value, err, _ = on_cores(cores, geometric_side_domain_integral, G, t,
                                 R, n, seed)
        assert (value, err) == (whole.value, whole.error)


def test_exp_sum_fit_quality():
    f = lambda x: math.exp(-2.0 * x)
    approx = exp_sum_fit(f, K=12, domain=(0.0, 5.0))
    assert approx.sup_error < 1e-5
    # Sum_k a_k e^{-(t_k+1) x} reproduces f on the fit domain
    for x in (0.0, 1.0, 4.0):
        fx = approx.coefficients @ np.exp(-(approx.rates + 1.0) * x)
        assert fx == pytest.approx(f(x), abs=1e-5)
    with pytest.raises(ValueError):
        exp_sum_fit(f, K=4, domain=(1.0, 5.0))


def test_exp_sum_fit_k_zero():
    approx = exp_sum_fit(lambda x: math.exp(-x), K=0, domain=(0.0, 3.0))
    assert approx.sup_error == pytest.approx(1.0, rel=1e-10)


def test_smoothed_window_shape():
    f = smoothed_window(1.0, 2.0, eps=0.1)
    assert f(1.5) == 1.0
    assert f(0.8) == 0.0 and f(2.3) == 0.0
    assert 0.0 < f(0.95) < 1.0
    assert f(0.95) == pytest.approx(0.5)


def test_radial_modes_neumann_structure():
    # nu = 0: constant mode at eigenvalue 0, all modes nonnegative,
    # ascending
    ev = radial_mode_eigenvalues(0.0, 4.0, n_grid=800, lam_max=20.0)
    assert ev[0] == pytest.approx(0.0, abs=1e-8)
    assert np.all(np.diff(ev) >= 0.0)
    # nu > 0 lifts the bottom eigenvalue
    ev1 = radial_mode_eigenvalues(2.0, 4.0, n_grid=800, lam_max=20.0)
    assert ev1[0] > 1e-3


@pytest.mark.parametrize("lam_max", [5.25, 60.0, 120.0])
def test_radial_modes_range_solve_is_the_full_solve(lam_max):
    """Bisection on (-1, lam_max] against the full spectrum cut at
    lam_max, at nu = 0, halfway and at the last circular mode of the
    L = 2 cylinder that cylinder_spectrum solves."""
    L, W, n_grid = 2.0, 4.0, 1500
    # cylinder_spectrum stops at the first nu = 2 pi n / L with
    # nu^2 / cosh^2 W > lam_max
    n_last = math.floor(math.sqrt(lam_max) * math.cosh(W) * L
                        / (2.0 * math.pi))
    for n in (0, n_last // 2, n_last):
        nu = 2.0 * math.pi * n / L
        full = radial_mode_eigenvalues(nu, W, n_grid, lam_max=None)
        full = full[full <= lam_max]
        kept = radial_mode_eigenvalues(nu, W, n_grid, lam_max=lam_max)
        assert len(kept) == len(full)
        assert len(kept) > 1 or n > 0  # nu = 0 keeps several modes
        np.testing.assert_allclose(kept, full, rtol=0.0, atol=1e-9)


def test_radial_modes_empty_and_full_ranges(monkeypatch):
    W, nu = 4.0, 3.0
    # the operator is at least nu^2 / cosh^2 W
    below = 0.99 * nu * nu / math.cosh(W) ** 2
    assert len(radial_mode_eigenvalues(nu, W, 800, lam_max=below)) == 0
    assert len(radial_mode_eigenvalues(0.0, W, 800, lam_max=None)) == 800

    def no_solve(*args, **kwargs):
        raise AssertionError("LAPACK reached")

    monkeypatch.setattr("hyplab.synthetic.eigh_tridiagonal", no_solve)
    assert len(radial_mode_eigenvalues(0.0, W, 800, lam_max=-0.5)) == 0


def test_cylinder_spectrum_structure():
    L, W = 2.0, 4.0
    E = cylinder_spectrum(L, W, lam_max=10.0, degree=2, n_grid=600)
    assert E.volume == pytest.approx(2.0 * 2.0 * L * math.sinh(W))
    assert E.eigenvalues[0] == 0.0
    assert np.all(np.diff(E.eigenvalues) >= 0.0)
    assert np.all(E.eigenvalues <= 10.0)
    # the degree-m cover has at least as dense a spectrum
    E1 = cylinder_spectrum(L, W, lam_max=10.0, degree=1, n_grid=600)
    assert len(E.eigenvalues) >= len(E1.eigenvalues)


def test_winding_displacement_law():
    # sinh(d/2) = sinh(kL/2) cosh(rho)
    d = float(winding_displacement(3.0, 1.2))
    assert math.sinh(0.5 * d) == pytest.approx(
        math.sinh(1.5) * math.cosh(1.2), rel=1e-12)
    # rho = 0: displacement equals the translation length
    assert float(winding_displacement(3.0, 0.0)) == pytest.approx(3.0)


def test_cylinder_geometric_side_positive_decreasing():
    g1 = cylinder_geometric_side(2.0, 4.0, t=0.5, degree=1)
    g2 = cylinder_geometric_side(2.0, 4.0, t=0.25, degree=1)
    assert g1 > 0.0
    # shorter diffusion time reaches the core windings less
    assert g2 < g1


def test_flat_mesh_eigendata_orthonormal():
    E = flat_mesh_eigendata(60, 20, volume=2.0, seed=5)
    assert E.gram_deviation() < 1e-10
    assert E.has_mesh


def test_eigencount_exact_with_data(cyclic_group):
    E = cylinder_spectrum(2.0, 4.0, lam_max=6.0, degree=1, n_grid=600)
    est, weyl = eigencount_estimate(E, (1.25, 4.25))
    exact = int(np.count_nonzero((E.eigenvalues >= 1.25)
                                 & (E.eigenvalues <= 4.25)))
    assert est == exact
    assert weyl > 0.0
    with pytest.raises(ValueError, match="eigen-data"):
        eigencount_estimate(None, (1.25, 4.25))
