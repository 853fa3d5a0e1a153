"""The radial-kernel / multiplier transform pair, the heat kernel, and
the radial eigenfunction oracle."""

import inspect
import math
import sys
from concurrent.futures import ThreadPoolExecutor, wait
from importlib import resources

import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import CubicSpline
from scipy.special import roots_legendre

from hyplab.errors import BandTooSmall, OdeFailure
from hyplab import geom, selberg
from hyplab.selberg import (RadialKernel, abel_transform, selberg_forward,
                            selberg_inverse, disc_kernel, heat_multiplier,
                            heat_kernel, heat_kernel_mass,
                            heat_bound_constant, spherical_oracle,
                            _abel_gl, _gauss_legendre, _gl)
from hyplab.spectral_action import h_t_closed
from hyplab.trace import weyl_density


def closed_abel_disc(t, u):
    """Closed form of the Abel transform of the renormalized disc
    kernel: 2 sqrt(2) sqrt(cosh t - cosh u) / sqrt(cosh t)."""
    return 2.0 * math.sqrt(2.0) * math.sqrt(math.cosh(t) - math.cosh(u)) \
        / math.sqrt(math.cosh(t))


def test_gauss_legendre_rules_are_exact_on_polynomials():
    """Int_0^1 x^k dx = 1/(k+1) to 1e-14: up to k = 2n - 1 for the
    n-node rule, and up to k = 127 for composite 64-node panels."""
    for n in range(1, 65):
        for x, w in (_gauss_legendre(n), _gl(n)):
            for k in range(2 * n):
                assert abs(w @ x ** k - 1.0 / (k + 1)) <= 1e-14
    x, w = _gl(300)
    assert len(x) >= 300
    for k in range(128):
        assert abs(w @ x ** k - 1.0 / (k + 1)) <= 1e-14
    # the cached arrays are shared, so callers cannot write to them
    with pytest.raises(ValueError):
        x[0] = 0.0
    # composite rules are cached by panel count, not by n
    assert _gl(300) is _gl(320)


def test_gauss_legendre_table_is_roots_legendre():
    """Every rule up to 256 nodes is read from the table, and it and the
    computed rules past it are SciPy's rule mapped to [0, 1], bit for
    bit, in read-only arrays."""
    _gauss_legendre.cache_clear()
    before = dict(selberg._gl_counts)
    for n in [*range(1, 257), 257, 640]:
        x, w = roots_legendre(n)
        nodes, wts = _gauss_legendre(n)
        assert np.array_equal(nodes, 0.5 * (x + 1.0))
        assert np.array_equal(wts, 0.5 * w)
        assert not (nodes.flags.writeable or wts.flags.writeable)
    counts = {k: v - before[k] for k, v in selberg._gl_counts.items()}
    assert counts["table_rules"] == 256 and counts["computed_rules"] == 2
    assert counts["computed_s"] > 0.0
    # there is no empty rule in the table
    with pytest.raises(ValueError):
        _gauss_legendre(0)


def test_gauss_legendre_counts_lose_no_read():
    # the block pool's threads read rules at once; each read is counted
    before = selberg._gl_counts["table_rules"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(lambda: [_gauss_legendre.__wrapped__(64)
                                            for _ in range(2000)])
                       for _ in range(8)]
            assert not wait(futures, timeout=60).not_done
    finally:
        sys.setswitchinterval(interval)
    assert all(len(f.result()) == 2000 for f in futures)
    assert selberg._gl_counts["table_rules"] - before == 8 * 2000


def test_gauss_legendre_table_ships_with_the_package():
    # pyproject.toml's package-data carries it into an installed copy
    assert resources.files("hyplab.data").joinpath(
        "gauss_legendre.npy").is_file()


def test_abel_transform_disc_closed_form():
    k = disc_kernel(1.0)
    for u in (0.0, 0.25, 0.5, 0.9):
        assert abel_transform(k, u) == \
            pytest.approx(closed_abel_disc(1.0, u), abs=1e-9)
    # vanishes beyond the support
    assert abel_transform(k, 1.5) == 0.0


def test_abel_transform_frozen_value():
    # independent closed-form anchor at u = 0, t = 1
    assert abel_transform(disc_kernel(1.0), 0.0) == \
        pytest.approx(1.6779647823148487, abs=1e-10)


def test_forward_disc_matches_closed_multiplier():
    h = selberg_forward(disc_kernel(1.0))
    for s in (0.0, 0.5, 1.0, 2.0, 4.0):
        assert h(s) == pytest.approx(h_t_closed(1.0, max(s, 1e-12)),
                                     abs=1e-10)
    # frozen anchor
    assert h(1.0) == pytest.approx(2.339772838623207, abs=1e-9)


def test_multiplier_even():
    h = selberg_forward(disc_kernel(1.0))
    assert h(1.3) == pytest.approx(h(-1.3), abs=1e-13)


def test_inverse_recovers_smooth_kernel():
    kb = RadialKernel(
        eval=lambda r: np.clip(1.0 - (np.asarray(r) / 2.0) ** 2,
                               0.0, None) ** 6,
        support=2.0)
    h = selberg_forward(kb)
    k2 = selberg_inverse(h, band=20.0, roundtrip_check=False)
    rho = np.linspace(0.0, 2.5, 60)
    got = np.array([k2.eval(r) for r in rho])
    want = np.asarray(kb.eval(rho))
    assert np.max(np.abs(got - want)) < 1e-5


def test_inverse_band_too_small_raises():
    with pytest.raises(BandTooSmall):
        selberg_inverse(heat_multiplier(1.0), band=1.5,
                        roundtrip_check=True)


def test_disc_kernel_validation():
    with pytest.raises(ValueError):
        disc_kernel(0.0)
    with pytest.raises(ValueError):
        heat_kernel(-1.0, 0.5)


def test_heat_kernel_frozen_values():
    assert heat_kernel(1.0, 0.0) == pytest.approx(0.05753575520741119,
                                                  abs=1e-8)
    assert heat_kernel(0.5, 1.0) == pytest.approx(0.07572675264373613,
                                                  abs=1e-8)


def test_heat_cache_eviction_keeps_profiles(monkeypatch):
    monkeypatch.setattr(selberg, "_heat_cache", {})
    monkeypatch.setattr(selberg, "_HEAT_CACHE_SIZE", 2)
    rho = np.linspace(0.0, 3.0, 31)
    first = selberg._heat_profile(0.7)[0](rho)
    for t in (0.8, 0.9):
        selberg._heat_profile(t)
    assert list(selberg._heat_cache) == [0.8, 0.9]  # oldest went first
    again = selberg._heat_profile(0.7)[0](rho)
    assert list(selberg._heat_cache) == [0.9, 0.7]
    assert np.array_equal(first, again)


def test_heat_kernel_mass_and_positivity():
    assert abs(heat_kernel_mass(1.0) - 1.0) < 1e-6
    rho = np.linspace(0.0, 6.0, 801)
    assert np.min(heat_kernel(1.0, rho)) > 0.0


def mckean_pair(t):
    """g'(u) / sinh(u) for McKean's closed-form pair function of the heat
    kernel, g_t(u) = e^{-t/4} e^{-u^2/4t} / sqrt(4 pi t)."""
    def f(u):
        g = math.exp(-0.25 * t) * np.exp(-u * u / (4.0 * t)) \
            / math.sqrt(4.0 * math.pi * t)
        return -u / (2.0 * t) * g / np.sinh(u)
    return f


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_heat_kernel_is_mckeans_closed_form(t):
    """p_t = -A[g_t' / sinh] / (sqrt(2) pi) with McKean's exact pair
    function, the Abel integral taken by the module's own rule at twice
    its nodes; g_t is below 1e-80 past u = 40."""
    rho = np.linspace(0.0, 6.0, 61)
    exact = -_abel_gl(mckean_pair(t), 40.0, rho, 48, 64, 2.0) \
        / (math.sqrt(2.0) * math.pi)
    assert np.allclose(heat_kernel(t, rho), exact, rtol=1e-7, atol=0.0)


def test_heat_kernel_plancherel():
    # p_t(0) equals the Weyl-density average of e^{-t lambda}
    for t in (0.5, 1.0):
        lhs = heat_kernel(t, 0.0)
        rhs = weyl_density(lambda lam: math.exp(-t * lam),
                           math.sqrt(46.0 / t) + 2.0)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_heat_bound_constant_finite():
    C = heat_bound_constant(1.0)
    assert np.isfinite(C) and C > 0.0
    # it is an upper bound on the stated range
    rho = np.linspace(0.0, 6.0, 501)
    assert np.all(heat_kernel(1.0, rho) <= C * np.exp(-rho ** 2) + 1e-15)


def test_spherical_oracle_normalization():
    phi = spherical_oracle(1.0, 6.0)
    assert phi(0.0) == pytest.approx(1.0, abs=1e-10)
    assert abs(phi(5.0)) < 1.0


def test_spherical_oracle_eigen_identity():
    """Central oracle: 2 pi Int k(rho) phi_s(rho) sinh rho d rho equals
    the multiplier h(s) of the kernel."""
    for t, s in ((1.0, 0.5), (2.0, 2.0)):
        phi = spherical_oracle(s, 6.0)
        k = disc_kernel(t)
        val, _ = integrate.quad(
            lambda r: float(k.eval(r)) * float(phi(r))
            * 2.0 * math.pi * math.sinh(r), 0.0, t, limit=200)
        assert val == pytest.approx(h_t_closed(t, s), rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("knots", [
    np.linspace(0.0, 9.0, 3001),
    np.concatenate(([0.0], np.linspace(1e-3, 9.0, 4001)))],
    ids=["linspace", "oracle-grid"])
def test_spline_is_scipys_cubic_spline(knots):
    """The arithmetic interval lookup of _Spline reproduces CubicSpline
    bit for bit on both knot layouts in use, at the knots, one ulp
    either side of them (where the index needs its step down or its step
    up), outside the table and at NaN.  A read-only r is accepted and
    never written, and a 0-d r gives a NumPy float."""
    y = np.cos(1.7 * knots) * np.exp(-0.3 * knots)
    ours, scipys = selberg._Spline(knots, y), CubicSpline(knots, y)
    r = np.concatenate([
        np.random.default_rng(5).uniform(-1.0, 10.0, 50_000), knots,
        np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        [0.0, -0.0, 1e-300, -50.0, 50.0, np.nan]])
    last = len(knots) - 2
    k = np.floor((r - knots[1]) * (last / (knots[-1] - knots[1])))
    i = np.fmin(np.fmax(k, -1.0), last - 1.0).astype(np.intp) + 1
    steps = [r[(r < knots[i]) & (i > 0)], r[(r >= knots[i + 1]) & (i < last)]]
    assert all(step.size for step in steps)
    kept = r.copy()
    r.flags.writeable = False
    assert np.array_equal(ours(r), scipys(r), equal_nan=True)
    assert np.array_equal(r, kept, equal_nan=True)
    r2 = np.stack([r, r[::-1]])
    assert np.array_equal(ours(r2), scipys(r2), equal_nan=True)
    for x in [0.7, *steps[0][:10], *steps[1][:10]]:
        value = ours(np.asarray(x))
        assert type(value) is np.float64 and value == scipys(x)
    assert type(ours(0.7)) is np.float64
    # the oracle evaluates through its _Spline
    phi = spherical_oracle(1.5, 9.0)
    assert np.array_equal(phi(r), phi._spline(r), equal_nan=True)
    with pytest.raises(ValueError, match="uniform"):
        selberg._Spline(knots ** 2, y)


def test_cached_splines_are_read_only():
    """The cached heat profile, a forward transform's splines and its
    per-rule cache cannot be written through."""
    spline = selberg._heat_profile(1.0)[0]
    h = selberg_forward(disc_kernel(1.0))
    h(0.5)
    rule = inspect.getclosurevars(
        inspect.getclosurevars(h.eval).nonlocals["_h_gl"]).nonlocals["_rule"]
    arrays = [spline.x, spline.c, *rule(3200)]
    assert rule.cache_info().hits >= 1
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0


def _abel_gl_scalar(f, S, x, near, density, n_scale=1.0):
    """The one-point Abel rule that the batched ``_abel_gl`` replaced,
    kept here as its reference."""
    cx = math.cosh(x)
    split = min(x + 1.0, S)
    v_split = math.sqrt(math.cosh(split) - cx)
    nodes, wts = _gl(int(near * n_scale))
    v = v_split * nodes
    total = 2.0 * v_split * float(wts @ f(np.arccosh(cx + v * v)))
    if split < S:
        nodes, wts = _gl(min(16384, int(max(64, density * (S - split))
                                        * n_scale)))
        y = split + (S - split) * nodes
        total += (S - split) * float(
            wts @ (f(y) * np.sinh(y) / np.sqrt(np.cosh(y) - cx)))
    return total


@pytest.mark.parametrize("threads", [1, 2])
def test_batched_abel_rule_is_the_one_point_rule(monkeypatch, threads):
    """The batched Abel rule and the array-valued inverse kernel equal
    their one-point results bit for bit, for x below S - 1, between
    S - 1 and S, at S and (for the kernel) past the support, for 0-d,
    1-d and 2-d input, on the block pool and on one thread."""
    monkeypatch.setattr(geom, "_threads", lambda: threads)
    S = 3.0
    grid = np.linspace(0.0, S, 2001)
    f = selberg._Spline(grid, np.exp(-grid) * np.cos(3.0 * grid))
    # 240 points in blocks of 65536 // 640 = 102 and 65536 // 960 = 68
    # points, with plain rules and composite panels (over 256 nodes)
    x = np.concatenate([np.linspace(0.0, S - 1.0, 120, endpoint=False),
                        np.linspace(S - 1.0, S, 120)])
    for n_scale in (1.0, 1.5):
        want = np.array([_abel_gl_scalar(f, S, xi, 48, 320, n_scale)
                         for xi in x])
        got = selberg._abel_gl(f, S, x, 48, 320, n_scale)
        assert np.array_equal(got, want)
        assert np.array_equal(
            selberg._abel_gl(f, S, x.reshape(12, 20), 48, 320, n_scale),
            want.reshape(12, 20))
        one = selberg._abel_gl(f, S, x[7], 48, 320, n_scale)
        assert isinstance(one, float) and one == want[7]
    k = selberg_inverse(heat_multiplier(1.0), band=16.0,
                        roundtrip_check=False)
    rho = np.linspace(0.0, 1.25 * k.support, 500)  # a fifth past it
    got = k.eval(rho)
    want = np.array([float(k.eval(float(r))) for r in rho])
    assert np.array_equal(got, want)
    assert np.all(got[rho >= k.support] == 0.0)
    assert np.array_equal(k.eval(rho.reshape(20, 25)), want.reshape(20, 25))
    assert k.eval(-rho[3]) == want[3]


def test_spherical_oracle_range_validation():
    with pytest.raises(ValueError):
        spherical_oracle(1.0, 20.0)
