"""Upper-half-plane geometry: metric axioms, polar coordinates and ball
sampling."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hyplab import geom
from hyplab.geom import (Point, MobiusElement, mobius_apply, hyp_dist,
                         ball_volume, polar_from, polar_to,
                         sample_ball_complex, _mobius_batch, _canonical_batch,
                         _dist_c, _polar_batch, _blockwise, _ball_map,
                         _SAMPLE_BLOCK, TWO_PI)
from hyplab.propagator import const_observable

# bounded coordinate ranges keep cosh arguments well inside double range
coords = st.floats(-5.0, 5.0)
heights = st.floats(0.05, 20.0)
angles = st.floats(0.0, 2.0 * math.pi - 1e-9)
radii = st.floats(1e-3, 5.0)


def points():
    return st.builds(Point, coords, heights)


def mobius_elements():
    """Random PSL(2, R) elements as translation * dilation * rotation."""

    def build(x, a, phi):
        trans = MobiusElement(1.0, x, 0.0, 1.0)
        dil = MobiusElement(math.exp(a / 2.0), 0.0, 0.0, math.exp(-a / 2.0))
        c, s = math.cos(phi), math.sin(phi)
        rot = MobiusElement(c, -s, s, c) if abs(c) > 1e-6 \
            else MobiusElement(0.0, -1.0, 1.0, 0.0)
        return trans @ dil @ rot

    return st.builds(build, coords, st.floats(-2.0, 2.0), angles)


def test_point_validation():
    with pytest.raises(ValueError):
        Point(0.0, 0.0)
    with pytest.raises(ValueError):
        Point(1.0, -1.0)


def test_known_distance_values():
    # d(i, i e^r) = r along the imaginary axis
    for r in (0.25, 1.0, 3.0):
        assert hyp_dist(Point(0, 1), Point(0, math.exp(r))) == \
            pytest.approx(r, abs=1e-12)
    # d(i, 1 + i): cosh d = 1 + |z - w|^2 / (2 y y') = 3/2
    assert hyp_dist(Point(0, 1), Point(1, 1)) == \
        pytest.approx(math.acosh(1.5), abs=1e-12)


@given(points(), points())
def test_distance_symmetry_and_positivity(z, w):
    d = hyp_dist(z, w)
    assert d >= 0.0
    assert d == pytest.approx(hyp_dist(w, z), abs=1e-10)
    assert hyp_dist(z, z) <= 1e-7


@given(points(), points(), points())
def test_triangle_inequality(z, w, v):
    assert hyp_dist(z, w) <= hyp_dist(z, v) + hyp_dist(v, w) + 1e-8


@given(st.lists(mobius_elements(), min_size=1, max_size=4),
       st.lists(points(), min_size=1, max_size=4))
def test_mobius_batch_is_the_scalar_action(gs, zs):
    mats = np.array([g.entries for g in gs])
    zc = np.array([z.as_complex for z in zs])
    # elementwise on the same NumPy scalars, so the same complex division
    expected = np.array([[g.apply_complex(z) for z in zc] for g in gs])
    assert np.array_equal(_mobius_batch(mats, zc), expected)


@given(st.lists(st.tuples(mobius_elements(), st.floats(0.1, 10.0),
                          st.sampled_from([1.0, -1.0])),
                min_size=1, max_size=6))
def test_canonical_batch_is_the_constructor(rows):
    # scaled, sign-flipped copies of unit-determinant matrices, plus rows
    # whose leading entries are at or below the 1e-12 sign cutoff
    raw = [tuple(lam * sign * e for e in g.entries) for g, lam, sign in rows]
    raw += [(0.0, -2.0, 0.5, 3.0), (-1e-13, -1.0, 1.0, 0.5),
            (1e-12, -1.0, 1.0, -0.0), (-0.0, 1.0, -1.0, 0.0)]
    got = _canonical_batch(np.array(raw))
    expected = np.array([MobiusElement(*r).entries for r in raw])
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_canonical_batch_rejects_what_the_constructor_rejects():
    for row in [(1.0, 2.0, 2.0, 1.0), (0.0, 0.0, 0.0, 0.0)]:
        with pytest.raises(ValueError):
            MobiusElement(*row)
        with pytest.raises(ValueError):
            _canonical_batch(np.array([(1.0, 0.0, 0.0, 1.0), row]))


@given(mobius_elements(), points(), points())
def test_mobius_isometry(g, z, w):
    gz, gw = mobius_apply(g, z), mobius_apply(g, w)
    assert hyp_dist(gz, gw) == pytest.approx(hyp_dist(z, w),
                                             abs=1e-8, rel=1e-8)


@given(mobius_elements(), mobius_elements(), points())
def test_mobius_composition(g, h, z):
    lhs = mobius_apply(g @ h, z)
    rhs = mobius_apply(g, mobius_apply(h, z))
    assert lhs.as_complex == pytest.approx(rhs.as_complex, abs=1e-9)


@given(mobius_elements())
def test_mobius_inverse(g):
    assert np.abs(np.subtract((g @ g.inverse()).entries,
                              (1.0, 0.0, 0.0, 1.0))).max() <= 1e-9


def test_ball_volume_oracle():
    # 2 pi (cosh r - 1); small-r Euclidean limit pi r^2
    assert ball_volume(0.0) == 0.0
    assert ball_volume(1.0) == pytest.approx(
        2.0 * math.pi * (math.cosh(1.0) - 1.0), rel=1e-15)
    r = 1e-4
    assert ball_volume(r) == pytest.approx(math.pi * r * r, rel=1e-7)
    with pytest.raises(ValueError):
        ball_volume(-1.0)


@given(points(), angles, radii)
def test_polar_roundtrip(z0, theta, r):
    z = polar_from(z0, theta, r)
    theta2, r2 = polar_to(z0, z)
    assert r2 == pytest.approx(r, abs=1e-8)
    dtheta = (theta2 - theta) % (2.0 * math.pi)
    assert min(dtheta, 2.0 * math.pi - dtheta) < 1e-6


@given(points(), angles, radii)
def test_polar_distance(z0, theta, r):
    assert hyp_dist(z0, polar_from(z0, theta, r)) == \
        pytest.approx(r, abs=1e-8)
    # theta = 0 points straight up
    up = polar_from(z0, 0.0, r)
    assert up.x == z0.x and up.y > z0.y


@settings(max_examples=25)
@given(st.lists(st.tuples(points(), angles, radii), min_size=1, max_size=8))
# a point where NumPy's 0-d x ** 2 and x * x round differently
@example([(Point(0.0, 1.0), 2.7797060971363576, 3.1844622123314874)])
def test_polar_batch_broadcasts_over_centres(rows):
    """Array centres give each point bit for bit what polar_from gives,
    at distance r from its own centre."""
    z0c = np.array([z0.as_complex for z0, _, _ in rows])
    theta = np.array([theta for _, theta, _ in rows])
    r = np.array([r for _, _, r in rows])
    zb = _polar_batch(z0c, theta, r)
    assert zb.shape == z0c.shape
    for (z0, th, rk), z in zip(rows, zb):
        assert z == polar_from(z0, th, rk).as_complex
    assert np.allclose(_dist_c(z0c, zb), r, rtol=0.0, atol=1e-8)


def test_sample_ball_reproducible_and_in_ball():
    z0 = Point(0.3, 2.0)
    a = sample_ball_complex(z0, 2.0, 500, seed=11)
    b = sample_ball_complex(z0, 2.0, 500, seed=11)
    assert np.array_equal(a, b)
    pts = sample_ball_complex(z0, 2.0, 200, seed=4)
    assert all(hyp_dist(z0, Point.from_complex(p)) <= 2.0 + 1e-9
               for p in pts)


B = _SAMPLE_BLOCK


def test_sample_ball_blocks_are_one_batch(on_cores):
    """Blocking is invisible: on one core and on two, across ragged last
    blocks, the points equal one _polar_batch call on one serial
    default_rng(seed) draw, radii first, then angles.  Blocks that jump
    ahead in the stream draw the same numbers because a float64 draw
    takes exactly one PCG64 step."""
    z0, R, seed = Point(-0.4, 0.7), 3.0, 21
    for n in (1, B - 1, B, B + 1, 2 * B + 7):
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        theta = TWO_PI * rng.random(n)
        rho = np.arccosh(1.0 + u * (math.cosh(R) - 1.0))
        expect = _polar_batch(z0.as_complex, theta, rho)
        for cores in (1, 2):
            assert np.array_equal(
                on_cores(cores, sample_ball_complex, z0, R, n, seed), expect)


def test_ball_map_holds_no_draw(on_cores):
    """P_t's sampling map holds no n-point draw: doubling n from 8 to 16
    blocks raises its traced peak by the output's growth alone, below
    1.5 times it (a map holding its two n-point draws grows 3 times)."""
    eval_ = const_observable(1.0).eval

    def peak(n):
        tracemalloc.start()
        try:
            on_cores(1, _ball_map, Point(0.0, 1.0), 1.0, n, 5, eval_)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = 8 * B
    assert peak(2 * n) - peak(n) < 1.5 * 8 * n


def test_blockwise_runs_every_block_once_on_the_pool(on_cores):
    """Every block runs once, off the calling thread, and a block that
    calls _blockwise again runs its own blocks inline."""
    runs, nested = [], []

    def block(blk):
        runs.append((blk.start, blk.stop, threading.current_thread()))
        _blockwise(lambda inner: nested.append(inner.start), 3, 1)

    B = _SAMPLE_BLOCK
    on_cores(2, _blockwise, block, 2 * B + 7)
    assert sorted((lo, hi) for lo, hi, _ in runs) == [
        (0, B), (B, 2 * B), (2 * B, 3 * B)]
    assert threading.current_thread() not in {th for _, _, th in runs}
    assert sorted(nested) == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_blockwise_starts_no_pool_for_one_block_or_one_core(
        monkeypatch, on_cores):
    monkeypatch.setattr(geom, "_pool", None)
    on_cores(2, sample_ball_complex, Point(0.0, 1.0), 1.0, _SAMPLE_BLOCK, 3)
    on_cores(2, _blockwise, lambda blk: None, 0)
    on_cores(1, sample_ball_complex, Point(0.0, 1.0), 1.0,
             2 * _SAMPLE_BLOCK + 7, 3)
    assert geom._pool is None


def test_blockwise_raises_the_first_failing_block(on_cores):
    errors = [ValueError("block 1"), ValueError("block 2")]

    def block(blk):
        if blk.start:
            raise errors[blk.start // _SAMPLE_BLOCK - 1]

    for k in (1, 2):
        with pytest.raises(ValueError) as info:
            on_cores(k, _blockwise, block, 2 * _SAMPLE_BLOCK + 7)
        assert info.value is errors[0]


def test_concurrent_callers_share_one_pool(monkeypatch, on_cores):
    """Eight caller threads, released at once with frequent thread
    switches and a slow pool constructor, create one pool between them
    and each get the serial sample."""
    made = []

    class Counted(geom.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            time.sleep(0.05)
            super().__init__(*args, **kwargs)

    args = (Point(0.2, 1.3), 1.5, 2 * _SAMPLE_BLOCK + 7, 4)
    serial = on_cores(1, sample_ball_complex, *args)
    monkeypatch.setattr(geom, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(geom, "_pool", None)
    monkeypatch.setattr(geom, "_threads", lambda: 2)
    results = [None] * 8
    start = threading.Barrier(8)

    def caller(i):
        start.wait(timeout=60.0)
        results[i] = sample_ball_complex(*args)

    callers = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in callers:
            th.start()
        for th in callers:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
        if geom._pool is not None:
            geom._pool.shutdown()
    assert not any(th.is_alive() for th in callers)
    assert len(made) == 1
    assert all(np.array_equal(r, serial) for r in results)


def test_sample_ball_is_thread_count_independent(on_cores):
    args = (Point(0.2, 1.3), 2.5, 2 * _SAMPLE_BLOCK + 7, 17)
    assert np.array_equal(on_cores(2, sample_ball_complex, *args),
                          on_cores(1, sample_ball_complex, *args))


def test_sample_ball_radial_law():
    # area fraction within radius r of a ball of radius R is
    # (cosh r - 1)/(cosh R - 1)
    z0 = Point(0.0, 1.0)
    R = 2.0
    zc = sample_ball_complex(z0, R, 40_000, seed=9)
    z0c = np.full(zc.shape, z0.as_complex)
    d = np.arccosh(1.0 + np.abs(zc - z0c) ** 2 / (2.0 * zc.imag * z0.y))
    for r in (0.5, 1.0, 1.5):
        frac = float(np.mean(d <= r))
        expect = (math.cosh(r) - 1.0) / (math.cosh(R) - 1.0)
        assert frac == pytest.approx(expect, abs=4.0 * 0.5 / math.sqrt(40_000))
