"""End-to-end acceptance suite: twelve quantitative criteria covering
every constructive ingredient, each reporting one pass/fail line.

Run with ``pytest -v`` (one PASSED/FAILED line per criterion) or with
``-s`` for the printed numeric summaries.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import roots_legendre

from hyplab import selberg
from hyplab.geom import Point, ball_volume, polar_from, hyp_dist
from hyplab.fuchsian import (builtin_group, group_ball, dirichlet_mask,
                             dirichlet_domain, systole)
from hyplab.selberg import (RadialKernel, disc_kernel, heat_multiplier,
                            selberg_forward, selberg_inverse,
                            spherical_oracle, heat_kernel,
                            heat_kernel_mass, heat_bound_constant)
from hyplab.propagator import (Observable, apply_Pt, intersection_volume,
                               pythagoras_check,
                               midpoint_change_of_var_check)
from hyplab.spectral_action import (SpectralInterval, h_t_closed,
                                    lipschitz_bound, verify_period_bound,
                                    time_avg_lower_bound)
from hyplab.trace import (heat_trace_spectral, lattice_count_bound,
                          weyl_density, eigencount_estimate)
from hyplab.synthetic import (cylinder_spectrum, cylinder_geometric_side,
                              flat_mesh_eigendata)
from hyplab.qe import qe_variance
from hyplab.cli import run as cli_run


def report(num, name, detail):
    print(f"\ncriterion {num:2d} ({name}): PASS  [{detail}]")


# ------------------------------------------------------------------ 1
def test_criterion_01_selberg_roundtrip():
    """Forward/inverse transform roundtrips on three kernels, sup error
    <= 1e-5, under 30 s."""
    t0 = time.time()
    # (a) jump kernel (disc), compared in multiplier space on the
    # guaranteed band |s| <= band/2
    h = selberg_forward(disc_kernel(1.0))
    k2 = selberg_inverse(h, band=8.0, roundtrip_check=False)
    h2 = selberg_forward(k2, error_budget=1e-6)
    err_disc = max(abs(h2(s) - h(s)) for s in np.linspace(0.0, 4.0, 60))
    # (b) heat multiplier: inverse then forward
    hm = heat_multiplier(1.0)
    kh = selberg_inverse(hm, band=2.0 * (math.sqrt(46.0) + 1.0),
                         roundtrip_check=True)
    hf = selberg_forward(kh)
    err_heat = max(abs(hf(s) - hm(s)) for s in np.linspace(0.0, 3.0, 30))
    # (c) smooth bump, compared in kernel space
    kb = RadialKernel(
        eval=lambda r: np.clip(1.0 - (np.asarray(r) / 2.0) ** 2,
                               0.0, None) ** 6,
        support=2.0)
    kb2 = selberg_inverse(selberg_forward(kb), band=20.0,
                          roundtrip_check=False)
    rho = np.linspace(0.0, 2.5, 60)
    err_bump = float(np.max(np.abs(
        np.array([kb2.eval(r) for r in rho]) - np.asarray(kb.eval(rho)))))
    elapsed = time.time() - t0
    assert err_disc <= 1e-5
    assert err_heat <= 1e-5
    assert err_bump <= 1e-5
    assert elapsed < 30.0
    report(1, "selberg roundtrip",
           f"disc {err_disc:.1e}, heat {err_heat:.1e}, "
           f"bump {err_bump:.1e}, {elapsed:.1f}s")


# ------------------------------------------------------------------ 2
def test_criterion_02_eigen_identity():
    """Monte Carlo propagator applied to a radial eigenfunction
    reproduces multiplication by h_t(s) to 1e-3 relative on the 3x3
    grid, under 2 min.

    Sample counts are sized per grid point from the empirical Monte
    Carlo variance so the 1-sigma error sits at 3x margin or better
    below the tolerance; seeds are fixed, so the run is reproducible.
    """
    t0 = time.time()
    z0 = Point(0.0, 1.0)
    z0c = z0.as_complex

    def dist_c(p, q):
        return np.arccosh(1.0 + (np.abs(p - q) ** 2)
                          / (2.0 * p.imag * q.imag))

    n_samples = {(1.0, 0.5): 400_000, (2.0, 0.5): 800_000,
                 (3.0, 0.5): 1_600_000, (1.0, 1.0): 800_000,
                 (2.0, 1.0): 3_200_000, (3.0, 1.0): 48_000_000,
                 (1.0, 2.0): 3_200_000, (2.0, 2.0): 400_000_000,
                 (3.0, 2.0): 120_000_000}
    chunk = 4_000_000
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        phi = spherical_oracle(s, 9.0)
        u = Observable(
            eval=lambda zc, phi=phi: phi(
                dist_c(zc, np.full(np.shape(zc), z0c))),
            sup_bound=1.0)
        for t in (1.0, 2.0, 3.0):
            n_tot = n_samples[(t, s)]
            k = max(1, math.ceil(n_tot / chunk))
            vals = [apply_Pt(u, z0, t, n_tot // k,
                             seed=hash((t, s, j)) % 2 ** 31).value
                    for j in range(k)]
            est = float(np.mean(vals))
            h = h_t_closed(t, s)
            rel = abs(est - h) / abs(h)
            worst = max(worst, rel)
            assert rel <= 1e-3, f"t={t}, s={s}: relative error {rel:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(2, "eigen-identity", f"worst rel {worst:.1e}, {elapsed:.0f}s")


# ------------------------------------------------------------------ 3
def test_criterion_03_cross_formula():
    """The closed-form propagator multiplier agrees with the transform
    of the disc kernel to 1e-6 on a 10x10 (t, s) grid."""
    worst = 0.0
    for t in np.linspace(0.5, 3.0, 10):
        h = selberg_forward(disc_kernel(float(t)))
        for s in np.linspace(0.1, 4.0, 10):
            worst = max(worst, abs(h(float(s))
                                   - h_t_closed(float(t), float(s))))
    assert worst <= 1e-6
    report(3, "cross-formula multiplier", f"sup {worst:.1e} on 10x10")


# ------------------------------------------------------------------ 4
def test_criterion_04_spectral_action_constants():
    """On I = [1, 2]: c_I > 0, a period index k0 <= 50 exists, and the
    time-averaged square multiplier is positive and stable in T."""
    I = SpectralInterval(1.0, 2.0)
    c_I, k0 = verify_period_bound(I, k_max=50, grid_n=64)
    assert c_I > 0.0
    assert k0 <= 50
    avgs = {}
    for T in (50.0, 100.0, 200.0):
        val, _ = time_avg_lower_bound(I, T, grid_n=16)
        assert val > 0.0
        avgs[T] = val
    variation = abs(avgs[200.0] - avgs[100.0]) / avgs[100.0]
    assert variation <= 0.20
    report(4, "spectral-action constants",
           f"c_I {c_I:.4f}, k0 {k0}, avg(200) {avgs[200.0]:.4f}, "
           f"variation {variation:.1%}")


# ------------------------------------------------------------------ 5
def test_criterion_05_lipschitz_uniformity():
    """The empirical Lipschitz constant of t -> h_t(s) is stable within
    10% under grid doubling and step halving."""
    I = SpectralInterval(1.0, 2.0)
    base = lipschitz_bound(I.s_grid(16), (1.1, 3.0), delta=1e-4, n_t=8)
    denser = lipschitz_bound(I.s_grid(32), (1.1, 3.0), delta=1e-4, n_t=16)
    halved = lipschitz_bound(I.s_grid(16), (1.1, 3.0), delta=5e-5, n_t=8)
    assert abs(denser - base) / base <= 0.10
    assert abs(halved - base) / base <= 0.10
    report(5, "lipschitz uniformity",
           f"base {base:.4f}, denser {denser:.4f}, halved {halved:.4f}")


# ------------------------------------------------------------------ 6
def test_criterion_06_heat_kernel():
    """Positivity on [0, 6], unit mass to 1e-6, finite Gaussian-bound
    constants, and a semigroup spot-check at 1e-4 by deterministic 2-D
    quadrature."""
    details = []
    for t in (0.5, 1.0, 2.0):
        rho = np.linspace(0.0, 6.0, 2001)
        assert np.min(heat_kernel(t, rho)) > 0.0
        mass_err = abs(heat_kernel_mass(t) - 1.0)
        assert mass_err <= 1e-6
        C = heat_bound_constant(t)
        assert np.isfinite(C) and C > 0.0
        details.append(f"t={t}: mass err {mass_err:.1e}")
    # semigroup: p_{t1+t2}(d(z,w)) = Int p_t1(d(z,u)) p_t2(d(u,w)) du
    t1 = t2 = 0.5
    z = Point(0.0, 1.0)
    w = polar_from(z, 0.3, 0.7)
    xr, wr = roots_legendre(400)
    xa, wa = roots_legendre(200)
    r_nodes, r_wts = 4.0 * (xr + 1.0), 4.0 * wr
    a_nodes, a_wts = math.pi * (xa + 1.0), math.pi * wa
    total = 0.0
    for ri, rwi in zip(r_nodes, r_wts):
        us = [polar_from(z, ai, ri) for ai in a_nodes]
        d2 = np.array([hyp_dist(u, w) for u in us])
        inner = float(a_wts @ heat_kernel(t2, d2))
        total += rwi * inner * heat_kernel(t1, ri) * math.sinh(ri)
    defect = abs(total - heat_kernel(t1 + t2, hyp_dist(z, w)))
    assert defect <= 1e-4
    report(6, "heat kernel",
           "; ".join(details) + f"; semigroup defect {defect:.1e}")


# ------------------------------------------------------------------ 7
def test_criterion_07_midpoint_change_of_variables(bolza_group):
    """Both midpoint-integral estimators agree within 3 sigma for 5
    randomized invariant test functions at 1e5 samples each."""
    rng = np.random.default_rng(424242)
    worst = 0.0
    for trial in range(5):
        c = rng.uniform(0.5, 2.0, size=3)
        a = rng.uniform(0.5, 1.5)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        freq = int(rng.integers(1, 4))

        def f(mc, theta, r, c=c, a=a, phase=phase, freq=freq):
            mc, theta, r = map(np.asarray, (mc, theta, r))
            return (c[0] * np.exp(-a * r)
                    + c[1] * np.cos(freq * theta + phase) ** 2
                    * np.exp(-r)
                    + c[2] * np.abs(np.imag(mc)) * np.exp(-r * r))

        lhs, rhs = midpoint_change_of_var_check(
            f, R=2.0, G=bolza_group, n=100_000, seed=1000 + trial)
        sigma = math.hypot(lhs.error, rhs.error)
        n_sigma = abs(lhs.value - rhs.value) / sigma
        worst = max(worst, n_sigma)
        assert n_sigma <= 3.0, f"trial {trial}: {n_sigma:.2f} sigma"
    report(7, "midpoint change of variables",
           f"worst deviation {worst:.2f} sigma over 5 trials")


# ------------------------------------------------------------------ 8
def test_criterion_08_lens_volume_asymptotics():
    """log lens volume grows with slope 1 in (t - r/2); the half-width
    relation is verified geometrically to 1e-9."""
    r = 1.0
    ts = np.array([3.0, 4.0, 5.0, 6.0])
    logs = []
    for t in ts:
        est = intersection_volume(float(t), r, n=200_000, seed=31)
        logs.append(math.log(est.value))
    slope = float(np.polyfit(ts - 0.5 * r, logs, 1)[0])
    assert 0.9 <= slope <= 1.1
    worst_pyth = max(pythagoras_check(t, rr)
                     for t in (2.0, 3.0, 4.0) for rr in (0.8, 1.6))
    assert worst_pyth <= 1e-9
    report(8, "lens asymptotics",
           f"slope {slope:.3f}, pythagoras defect {worst_pyth:.1e}")


# ------------------------------------------------------------------ 9
def test_criterion_09_group_enumeration(cyclic_group, bolza_group):
    """Exact cyclic ball contents, the lattice count bound, and unit
    tiling mass of the octagon Dirichlet domain."""
    # cyclic: powers g^k with displacement 2|k|
    ball = group_ball(cyclic_group, cyclic_group.base_point, 9.0)
    disp = np.sort(ball.displacements())
    assert np.allclose(disp, np.repeat([2.0, 4.0, 6.0, 8.0], 2),
                       atol=1e-9)
    # lattice bound never violated
    for G, ell in ((cyclic_group, 2.0),
                   (bolza_group, systole(bolza_group, 4.0))):
        for R in (2.0, 4.0, 6.0):
            assert len(group_ball(G, G.base_point, R)) \
                <= lattice_count_bound(R, ell)
    # tiling: each sampled point lies in exactly one domain translate
    from hyplab.geom import sample_ball_complex
    G = bolza_group
    zc = sample_ball_complex(G.base_point, 2.0, 400, seed=17)
    mats = [np.eye(2).reshape(-1)]
    tiling_ball = group_ball(G, G.base_point, 5.5)
    mats.extend(tiling_ball.matrices())
    mats = np.asarray(mats)
    counts = np.zeros(len(zc))
    z0c = G.base_point.as_complex
    radius = dirichlet_domain(G)[1]
    for a, b, c, d in mats:
        w = (a * zc + b) / (c * zc + d)
        # only translates inside the covering ball can lie in the domain
        near = np.arccosh(1.0 + np.abs(w - z0c) ** 2
                          / (2.0 * w.imag * G.base_point.y)) \
            <= radius + 1e-9
        if near.any():
            counts[near] += dirichlet_mask(G, w[near])
    mass = float(counts.mean())
    err = float(counts.std(ddof=1)) / math.sqrt(len(zc))
    assert abs(mass - 1.0) <= max(4.0 * err, 1e-6)
    report(9, "group enumeration",
           f"cyclic ball exact, tiling mass {mass:.6f} +- {err:.1e}")


# ------------------------------------------------------------------ 10
def test_criterion_10_pretrace_consistency(cyclic_group):
    """Synthetic cylinder spectra: spectral and geometric heat traces
    agree (in cover-difference form, which cancels the shared
    discretization bias) within certified error; counts are exact and
    approach the Weyl density with the cover degree."""
    L, W, n_grid = 2.0, 4.0, 1500
    details = []
    for t in (0.5, 1.0):
        lam_max = 60.0 / t if t < 1.0 else 60.0
        sides = {}
        for m in (1, 2):
            E = cylinder_spectrum(L, W, lam_max, degree=m, n_grid=n_grid)
            S, tail = heat_trace_spectral(E, t)
            G = cylinder_geometric_side(L, W, t, degree=m)
            sides[m] = (S, G, tail)
        diff_spectral = sides[2][0] - 2.0 * sides[1][0]
        diff_geometric = sides[2][1] - 2.0 * sides[1][1]
        certified = sides[1][2] + sides[2][2] + 5e-5
        assert abs(diff_spectral - diff_geometric) <= certified
        details.append(
            f"t={t}: diff {abs(diff_spectral - diff_geometric):.1e}")
    # exact counts through the estimator interface
    E1 = cylinder_spectrum(L, W, 6.0, degree=1, n_grid=600)
    est, _ = eigencount_estimate(E1, (1.25, 4.25))
    exact = int(np.count_nonzero((E1.eigenvalues >= 1.25)
                                 & (E1.eigenvalues <= 4.25)))
    assert est == exact
    # Weyl trend over cover degrees
    wd = weyl_density(lambda lam: 1.0 if 1.25 <= lam <= 4.25 else 0.0, 3.0)
    gaps = []
    for m in (1, 2, 4):
        E = cylinder_spectrum(L, W, 4.75, degree=m, n_grid=n_grid)
        N = int(np.count_nonzero((E.eigenvalues >= 1.25)
                                 & (E.eigenvalues <= 4.25)))
        gaps.append(abs(N / E.volume - wd))
    assert gaps[0] > gaps[1] > gaps[2]
    report(10, "pretrace consistency",
           "; ".join(details) + f"; weyl gaps {gaps[0]:.3f} > "
           f"{gaps[1]:.3f} > {gaps[2]:.3f}")


# ------------------------------------------------------------------ 11
def test_criterion_11_qe_statistic():
    """Variance statistic: brute-force equivalence to 1e-12, exact zero
    on constants, shift invariance to 1e-10."""
    E = flat_mesh_eigendata(50, 18, volume=2.0, seed=7, lam_scale=4.0)
    a = np.sin(3.0 * E.mesh_points[:, 0]) + 0.25
    rep = qe_variance(E, a, (0.3, 4.0))
    W = E.mesh_weights
    mean_a = float((W * a).sum() / W.sum())
    brute = sum(
        (float((W * a * E.mesh_values[j] ** 2).sum()) - mean_a) ** 2
        for j, lam in enumerate(E.eigenvalues) if 0.3 <= lam <= 4.0)
    err_brute = abs(rep.variance_sum - brute)
    assert err_brute <= 1e-12
    rep_const = qe_variance(E, np.full(50, 2.0), (0.0, 10.0))
    assert rep_const.variance_sum <= 1e-12
    err_shift = abs(qe_variance(E, a + 7.0, (0.0, 10.0)).variance_sum
                    - qe_variance(E, a, (0.0, 10.0)).variance_sum)
    assert err_shift <= 1e-10
    report(11, "qe statistic",
           f"brute diff {err_brute:.1e}, const {rep_const.variance_sum:.1e},"
           f" shift diff {err_shift:.1e}")


# ------------------------------------------------------------------ 12
def test_criterion_12_cli_determinism(tmp_path):
    """Reruns with the same seed produce byte-identical CSV bodies."""
    bodies = []
    for name in ("ball1", "ball2", "ball3"):
        out = tmp_path / name
        assert cli_run(["group", "ball", "--group", "bolza", "--radius",
                        "5", "--seed", "11", "--out", str(out)]) == 0
        bodies.append((out / "group_ball.csv").read_bytes())
    assert bodies[0] == bodies[1] == bodies[2]
    fwd_bodies = []
    for name in ("f1", "f2"):
        out = tmp_path / name
        assert cli_run(["selberg", "forward", "--kernel", "disc", "--t",
                        "1", "--seed", "5", "--out", str(out)]) == 0
        fwd_bodies.append((out / "multiplier_h.csv").read_bytes())
    assert fwd_bodies[0] == fwd_bodies[1]
    report(12, "cli determinism",
           f"{len(bodies[0])}-byte ball CSV identical across reruns")
