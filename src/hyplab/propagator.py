"""The disc-averaging propagator P_t, the kernel of P_t a P_t, lens
(ball-intersection) volumes in closed form and by Monte Carlo, the
midpoint change of variables, and two pair estimators batched over one
lens sampler: the Hilbert-Schmidt norm split by injectivity radius and
empirical ergodic-average decay.

P_t u(z) = (cosh t)^{-1/2} Integral_{B(z,t)} u d mu, so the kernel of
P_t a P_t is (cosh t)^{-1} Integral_{B(z,t) cap B(w,t)} a d mu, which
vanishes identically once d(z,w) > 2t.  The lens with center separation
r has perpendicular half-width rho, cosh rho = cosh t / cosh(r/2), and
every Monte Carlo lens integral samples the ball B(m, rho) about the
lens midpoint m, which contains the lens, through the one lens sampler
``_lens_blocks``.  Pair points, midpoints and sample points are all
placed by ``geom._polar_batch``, and every sample mean with its
standard error is taken by ``MCEstimate.of``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import (Point, ball_volume, hyp_dist, _ball_map, _dist_c,
                   _disc_chart, _polar_batch, _radial_icdf, polar_from,
                   polar_to, TWO_PI, _SAMPLE_BLOCK)
from .fuchsian import (GroupSpec, dirichlet_domain, systole,
                       thin_part_fraction, reduce_to_domain, _domain_samples)
from .selberg import _gauss_legendre


@dataclass
class Observable:
    """A bounded real observable on the plane (or on the quotient, when
    group-periodic).  ``eval`` must accept a complex numpy array of
    points z = x + iy and return real values.  It may run on several
    threads at once, each on its own block of points, so it must not
    mutate shared state."""

    eval: callable
    sup_bound: float

    def __call__(self, zc):
        return self.eval(zc)


@dataclass
class MCEstimate:
    """A Monte Carlo value with a 1-sigma error bar and diagnostics."""

    value: float
    error: float
    extras: dict = field(default_factory=dict)

    def __float__(self):
        return self.value

    @classmethod
    def of(cls, vals, scale: float) -> "MCEstimate":
        """scale * mean(vals) with its standard error: the one place a
        Monte Carlo mean and its error bar are taken.  ValueError for
        fewer than two values, which have no error bar."""
        if len(vals) < 2:
            raise ValueError("need at least two samples for an error bar")
        return cls(value=scale * float(vals.mean()),
                   error=scale * float(vals.std(ddof=1))
                   / math.sqrt(len(vals)))


def const_observable(c: float) -> Observable:
    return Observable(eval=lambda z: np.full(np.shape(z), float(c)),
                      sup_bound=abs(c))


def lens_halfwidth(t: float, r: float) -> float:
    """The perpendicular half-width rho of B(z,t) cap B(w,t) at center
    separation r: cosh rho = cosh t / cosh(r/2).

    The ball B(m, rho) about the midpoint m of z and w contains the lens:
    in Fermi coordinates (s, u) about its axis a lens point with s >= 0
    has cosh d(p, m) = cosh u cosh s <= cosh t cosh s / cosh(s + r/2)
    <= cosh rho."""
    if not 0.0 <= r <= 2.0 * t:
        raise ValueError("need 0 <= r <= 2t")
    # stable for large t: cosh t / cosh(r/2) = e^{t - r/2} (1+e^{-2t})/(1+e^{-r})
    ratio = math.exp(t - 0.5 * r) * (1.0 + math.exp(-2.0 * t)) \
        / (1.0 + math.exp(-r))
    return math.acosh(max(1.0, ratio))


def lens_volume(t: float, r: float) -> float:
    """Area of the lens B(z,t) cap B(w,t) at separation r = d(z, w):
    4 alpha cosh t - 4 beta, with cos alpha = tanh(r/2) / tanh t,
    sin beta = tanh rho / tanh t and rho = lens_halfwidth(t, r).

    Proof: the lens is bounded by two arcs of radius t meeting at
    vertices V at distance rho from the midpoint m.  The right triangle
    z, m, V has angle alpha at z and pi/2 - beta at V, so each arc (normal
    to its radius) meets the other at the interior angle 2 beta, and
    turns by 2 alpha sinh t * coth t.  Gauss-Bonnet at curvature -1:
    -area + 4 alpha cosh t + 2 (pi - 2 beta) = 2 pi.

    The terms cancel as r -> 2t: against the quadrature
    4 Int_0^{t-r/2} sinh(arccosh(cosh t / cosh(s + r/2))) ds the relative
    error is below 1e-12 for r <= 2t - 0.1 with t <= 8, and below 4e-11
    at r = 2t - 1e-4.
    """
    rho = lens_halfwidth(t, r)
    # atan2 keeps both angles accurate near 0 and pi/2
    alpha = math.atan2(math.sinh(rho), math.cosh(t) * math.tanh(0.5 * r))
    beta = math.atan2(math.tanh(rho) * math.cosh(t), math.sinh(0.5 * r))
    return 4.0 * alpha * math.cosh(t) - 4.0 * beta


def _lens_mc(a_eval, zc: complex, wc: complex, t: float, n: int,
             seed: int) -> MCEstimate:
    """Monte Carlo integral of a over B(z,t) cap B(w,t), by rejection from
    n points of the ball B(m, rho) about the lens midpoint, which
    contains the lens (``lens_halfwidth``), drawn by ``_lens_blocks``.
    Zero beyond separation 2t, and flagged degenerate when that ball's
    area is below 1e-12; ``extras['acceptance']`` is the fraction of
    points in the lens."""
    r = float(_dist_c(np.array(zc), np.array(wc)))
    if r > 2.0 * t:
        return MCEstimate(value=0.0, error=0.0, extras={"acceptance": 0.0})
    rho = lens_halfwidth(t, r)
    if ball_volume(rho) < 1e-12:
        return MCEstimate(value=0.0, error=0.0,
                          extras={"degenerate": True, "acceptance": 0.0})
    m = complex(_polar_batch(zc, np.angle(_disc_chart(zc, wc)), 0.5 * r))
    rng = np.random.default_rng(seed)
    (_, pts, d), = _lens_blocks(np.array([m]), rho, np.array([zc]),
                                np.array([wc]), n, rng)
    inside = d[0] <= t
    vals = np.where(inside, np.asarray(a_eval(pts[0]), dtype=float), 0.0)
    est = MCEstimate.of(vals, ball_volume(rho))
    est.extras["acceptance"] = float(inside.mean())
    return est


def apply_Pt(u: Observable, z: Point, t: float, n: int,
             seed: int) -> MCEstimate:
    """P_t u(z) by Monte Carlo over the ball B(z, t)."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    # each block is sampled and evaluated at once, so no n-point array
    # of points is built, and the draws are freed before the mean
    vals = _ball_map(z, t, n, seed, u.eval)
    return MCEstimate.of(vals, ball_volume(t) / math.sqrt(math.cosh(t)))


def kernel_PtaPt(a: Observable, z: Point, w: Point, t: float, n: int,
                 seed: int) -> MCEstimate:
    """The kernel of P_t a P_t at (z, w): the lens integral of
    ``_lens_mc`` divided by cosh t, so zero exactly beyond separation
    2t.  ``extras['degenerate']`` flags lenses with volume below 1e-12.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    est = _lens_mc(a.eval, z.as_complex, w.as_complex, t, n, seed)
    ct = math.cosh(t)
    return MCEstimate(value=est.value / ct, error=est.error / ct,
                      extras=est.extras)


def intersection_volume(t: float, r: float, n: int, seed: int) -> MCEstimate:
    """Monte Carlo volume of the lens B(z1,t) cap B(z2,t) at separation r."""
    if not 0.0 <= r <= 2.0 * t:
        raise ValueError("need 0 <= r <= 2t")
    # vertical geodesic: d(i, i e^r) = r
    return _lens_mc(lambda p: np.ones(p.shape), 1j, 1j * math.exp(r), t, n,
                    seed)


def pythagoras_check(t: float, r: float) -> float:
    """Geometric verification of cosh rho = cosh t / cosh(r/2): the
    perpendicular point at distance rho from the lens midpoint must lie
    at distance exactly t from both centers.  Returns the max defect."""
    z = Point(0.0, 1.0)
    w = polar_from(z, 0.7, r)
    m = polar_from(z, 0.7, 0.5 * r)
    theta_m, _ = polar_to(m, w)  # direction measured at the midpoint
    rho = lens_halfwidth(t, r)
    defects = []
    for dtheta in (0.5 * math.pi, -0.5 * math.pi):
        p = polar_from(m, theta_m + dtheta, rho)
        defects.append(abs(hyp_dist(p, z) - t))
        defects.append(abs(hyp_dist(p, w) - t))
    return max(defects)


def midpoint_change_of_var_check(f, R: float, G: GroupSpec, n: int,
                                 seed: int):
    """Two independent Monte Carlo estimates of the same pair integral.

    lhs: Integral over z in the fundamental domain and z' in B(z, R) of
    f(midpoint, direction, separation); rhs: the same integral after the
    change of variables to (midpoint m, direction theta, separation r)
    with weight sinh(r).  ``f(mc, theta, r)`` must accept arrays and be
    group-invariant in its midpoint argument.  Returns two MCEstimates.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    vol_D = dirichlet_domain(G)[0]
    rng = np.random.default_rng(seed)

    # lhs: z ~ uniform(D), z' ~ uniform(B(z, R))
    zc = _domain_samples(G, n, seed + 2)
    rr = _radial_icdf(rng.random(n), R)
    theta_out = TWO_PI * rng.random(n)
    # place z' at polar (theta_out, rr) around each z, and the midpoint
    zpc = _polar_batch(zc, theta_out, rr)
    mc = _polar_batch(zc, theta_out, 0.5 * rr)
    # Reduce the midpoint frame to the fundamental domain: translate m
    # into D and transport the direction by the same group element, so
    # that angle-dependent test functions are evaluated on quotient data.
    mc, zpc = reduce_to_domain(G, mc, zpc)
    # direction at the (reduced) midpoint: angle of z' seen from m
    theta_m = np.angle(_disc_chart(mc, zpc)) % TWO_PI
    sep = 2.0 * _dist_c(mc, zpc)  # isometry-invariant separation
    scale = vol_D * ball_volume(R)  # rhs: sinh weight via the radial CDF
    lhs = MCEstimate.of(np.asarray(f(mc, theta_m, sep), dtype=float), scale)

    # rhs: m ~ uniform(D), theta ~ uniform, r ~ sinh density on [0, R]
    mc2 = _domain_samples(G, n, seed + 3)
    theta2 = TWO_PI * rng.random(n)
    r2 = _radial_icdf(rng.random(n), R)
    rhs = MCEstimate.of(np.asarray(f(mc2, theta2, r2), dtype=float), scale)
    return lhs, rhs


def _pairs(G: GroupSpec, sep, n: int, seed: int, rng):
    """(m, z, w) for n pairs at separations sep, m uniform in the domain."""
    mc = _domain_samples(G, n, seed + 2)
    theta = TWO_PI * rng.random(n)
    return (mc, _polar_batch(mc, theta, 0.5 * sep),
            _polar_batch(mc, theta + math.pi, 0.5 * sep))


def _lens_blocks(center, radius: float, zc, wc, n: int, rng):
    """n uniform points of B(c, radius) for each (c, z, w) in
    zip(center, zc, wc), drawn from rng in blocks of at most _SAMPLE_BLOCK
    points.  Yields (pair slice, points, d) with d = max(d(p, z), d(p, w)):
    p lies in the lens B(z,t) cap B(w,t) exactly when d <= t."""
    step = max(1, _SAMPLE_BLOCK // n)
    for j in range(0, len(center), step):
        sl = slice(j, j + step)
        shape = (len(center[sl]), n)
        rho = _radial_icdf(rng.random(shape), radius)
        pts = _polar_batch(center[sl, None], TWO_PI * rng.random(shape), rho)
        d = np.maximum(_dist_c(pts, zc[sl, None]), _dist_c(pts, wc[sl, None]))
        yield sl, pts, d


def hs_norm_estimate(G: GroupSpec, a: Observable, T: float, R: float,
                     n: int, seed: int):
    """Hilbert-Schmidt norm split for the time-averaged kernel
    K_T = (1/T) Int_0^T P_t a P_t dt.

    main: Integral_D Integral_H |K_T|^2 by the midpoint change of
    variables; |K_T|^2 is estimated without bias by the product of two
    independent 400-point estimates from B(z, t_max) over 64
    Gauss-Legendre nodes t_j, where a point at lens distance d (see
    _lens_blocks) carries C(d) = Sum_{t_j >= d} w_j / cosh t_j.  The
    separation is stratified, one per stratum u_i = (i + U_i)/n of the
    radial law, as |K_T|^2 peaks at separation 0 where its density
    vanishes; the error collapses adjacent strata into pairs,
    scale sqrt(Sum_j (x_{2j+1} - x_{2j})^2) / n (an odd last stratum is
    left out of it).
    remainder_bound: (e^{2R} / systole) Vol(thin part below R) sup|K_T|^2.
    """
    if T <= 0.0 or R <= 0.0:
        raise ValueError("T and R must be positive")
    if n < 2:
        raise ValueError("need n >= 2")
    x, w = _gauss_legendre(64)
    t_nodes, t_wts = T * x, T * w
    t_max = float(t_nodes[-1])
    # C(d) for d at or below each node, then 0 beyond t_max
    weight = np.cumsum(np.append(t_wts / np.cosh(t_nodes), 0.0)[::-1])[::-1]
    vol_D = dirichlet_domain(G)[0]
    rng = np.random.default_rng(seed)
    R_sep = 2.0 * T  # kernel support in separation

    sep = _radial_icdf((np.arange(n) + rng.random(n)) / n, R_sep)
    _, zc, wc = _pairs(G, sep, n, seed, rng)
    prods = np.empty(n)
    for sl, pts, d in _lens_blocks(zc, t_max, zc, wc, 800, rng):
        vals = np.asarray(a.eval(pts.ravel()), dtype=float) \
            * weight[np.searchsorted(t_nodes, d.ravel())]
        k = (ball_volume(t_max) / T) * vals.reshape(-1, 2, 400).mean(axis=2)
        prods[sl] = k[:, 0] * k[:, 1]
    scale = vol_D * ball_volume(R_sep)
    diff = prods[1::2] - prods[:n - n % 2:2]
    main = MCEstimate(value=scale * float(prods.mean()),
                      error=scale * math.sqrt(float(diff @ diff)) / n)

    thin_frac, thin_err = thin_part_fraction(G, R, 2000, seed + 5)
    # sup|K_T| <= sup|a| (1/T) Int_0^T ball_volume(t) / cosh t dt
    sup_K = a.sup_bound * TWO_PI * (1.0 - math.atan(math.sinh(T)) / T)
    factor = (math.exp(2.0 * R) / systole(G, search_radius=4.0)) \
        * vol_D * sup_K ** 2
    return main, MCEstimate(value=factor * thin_frac, error=factor * thin_err)


def ergodic_average_decay(G: GroupSpec, a: Observable, t_list, r: float,
                          n: int, seed: int):
    """Empirical L^2 decay of lens averages of a mean-zero observable.

    For each t: average a over lenses of separation r with midpoints m
    uniform in the fundamental domain, from 400 points of B(m, rho) each,
    rho = lens_halfwidth(t, r); report (t, lens_volume(t, r), L^2
    deviation of the averages).  The observable's quotient mean is
    estimated once and subtracted.  B(m, rho) contains the lens
    (``lens_halfwidth``).
    """
    if not r < 2.0 * min(t_list):
        raise ValueError("need r < 2 min(t)")
    # numerical mean-zero enforcement
    zc0 = _domain_samples(G, 4000, seed + 1)
    mean_a = float(np.asarray(a.eval(zc0), dtype=float).mean())

    rng = np.random.default_rng(seed)
    mc, zf, zb = _pairs(G, r, n, seed, rng)
    rows = []
    for t in t_list:
        sq = np.empty(n)
        for sl, pts, d in _lens_blocks(mc, lens_halfwidth(t, r), zf, zb,
                                       400, rng):
            inside = d <= t
            vals = np.asarray(a.eval(pts.ravel()), dtype=float) - mean_a
            total = np.where(inside, vals.reshape(d.shape), 0.0).sum(axis=1)
            sq[sl] = (total / np.maximum(inside.sum(axis=1), 1)) ** 2
        rows.append((float(t), lens_volume(t, r), math.sqrt(float(sq.mean()))))
    return rows
