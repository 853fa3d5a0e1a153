"""The disc-averaging propagator P_t, the kernel of P_t a P_t, lens
(ball-intersection) volumes, the midpoint change of variables,
Hilbert-Schmidt estimators split by injectivity radius, and empirical
ergodic-average decay.

P_t u(z) = (cosh t)^{-1/2} Integral_{B(z,t)} u d mu, so the kernel of
P_t a P_t is (cosh t)^{-1} Integral_{B(z,t) cap B(w,t)} a d mu, which
vanishes identically once d(z,w) > 2t.  Lens geometry uses the
hyperbolic Pythagoras relation cosh rho = cosh t / cosh(r/2) for the
perpendicular half-width rho of the lens with center separation r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import (Point, ball_volume, hyp_dist, _dist_c, _disc_chart,
                   _disc_chart_inv, _polar_batch, polar_from, polar_to,
                   sample_ball_complex, TWO_PI)
from .fuchsian import (GroupSpec, dirichlet_domain, systole,
                       thin_part_fraction, reduce_to_domain, _domain_samples)
from .selberg import _gauss_legendre


@dataclass
class Observable:
    """A bounded real observable on the plane (or on the quotient, when
    group-periodic).  ``eval`` must accept a complex numpy array of
    points z = x + iy and return real values."""

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


def const_observable(c: float) -> Observable:
    return Observable(eval=lambda z: np.full(np.shape(z), float(c)),
                      sup_bound=abs(c))


def lens_halfwidth(t: float, r: float) -> float:
    """The perpendicular half-width rho of B(z,t) cap B(w,t) at center
    separation r: cosh rho = cosh t / cosh(r/2)."""
    if not 0.0 <= r <= 2.0 * t:
        raise ValueError("need 0 <= r <= 2t")
    # stable for large t: cosh t / cosh(r/2) = e^{t - r/2} (1+e^{-2t})/(1+e^{-r})
    ratio = math.exp(t - 0.5 * r) * (1.0 + math.exp(-2.0 * t)) \
        / (1.0 + math.exp(-r))
    return math.acosh(max(1.0, ratio))


def _lens_mc(a_eval, zc: complex, wc: complex, t: float, n: int, seed: int):
    """Monte Carlo integral of a over B(z,t) cap B(w,t).

    Rejection from B(z,t); when the expected acceptance (lens volume /
    ball volume) is below 1%, sample instead from the ball around the
    lens midpoint with the Pythagoras half-width, which contains the
    lens snugly.  Returns (integral, error, acceptance, lens volume),
    the volume estimated from the same samples.
    """
    r = float(_dist_c(np.array(zc), np.array(wc)))
    if r > 2.0 * t:
        return 0.0, 0.0, 0.0, 0.0
    rho = lens_halfwidth(t, r)
    vol_small = ball_volume(rho)
    use_midpoint = vol_small < 0.01 * ball_volume(t)
    if use_midpoint:
        theta, _ = polar_to(Point(zc.real, zc.imag), Point(wc.real, wc.imag))
        m = _polar_batch(Point(zc.real, zc.imag), np.array([theta]),
                         np.array([0.5 * r]))[0]
        center = Point(m.real, m.imag)
        radius = rho
    else:
        center = Point(zc.real, zc.imag)
        radius = t
    if radius <= 0.0:
        return 0.0, 0.0, 0.0, 0.0
    pts = sample_ball_complex(center, radius, n, seed)
    inside = ((_dist_c(pts, np.full(n, zc)) <= t)
              & (_dist_c(pts, np.full(n, wc)) <= t))
    vals = np.where(inside, np.asarray(a_eval(pts), dtype=float), 0.0)
    vol = ball_volume(radius)
    est = vol * float(vals.mean())
    err = vol * float(vals.std(ddof=1)) / math.sqrt(n)
    acc = float(inside.mean())
    return est, err, acc, vol * acc


_EVAL_BLOCK = 1 << 16


def apply_Pt(u: Observable, z: Point, t: float, n: int,
             seed: int) -> MCEstimate:
    """P_t u(z) by Monte Carlo over the ball B(z, t)."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    pts = sample_ball_complex(z, t, n, seed)
    vals = np.empty(n)
    # blocks keep the observable's temporaries small enough to be reused
    for j in range(0, n, _EVAL_BLOCK):
        vals[j:j + _EVAL_BLOCK] = u.eval(pts[j:j + _EVAL_BLOCK])
    scale = ball_volume(t) / math.sqrt(math.cosh(t))
    return MCEstimate(value=scale * float(vals.mean()),
                      error=scale * float(vals.std(ddof=1)) / math.sqrt(n))


def kernel_PtaPt(a: Observable, z: Point, w: Point, t: float, n: int,
                 seed: int) -> MCEstimate:
    """The kernel of P_t a P_t at (z, w): zero exactly beyond separation
    2t, otherwise a lens integral divided by cosh t.

    ``extras['degenerate']`` flags lenses with volume below 1e-12.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    d = hyp_dist(z, w)
    if d > 2.0 * t:
        return MCEstimate(value=0.0, error=0.0, extras={"acceptance": 0.0})
    rho = lens_halfwidth(t, d)
    if ball_volume(rho) < 1e-12:
        return MCEstimate(value=0.0, error=0.0,
                          extras={"degenerate": True, "acceptance": 0.0})
    est, err, acc, _ = _lens_mc(a.eval, z.as_complex, w.as_complex, t, n,
                                seed)
    ct = math.cosh(t)
    return MCEstimate(value=est / ct, error=err / ct,
                      extras={"acceptance": acc})


def intersection_volume(t: float, r: float, n: int, seed: int) -> MCEstimate:
    """Monte Carlo volume of the lens B(z1,t) cap B(z2,t) at separation r."""
    if not 0.0 <= r <= 2.0 * t:
        raise ValueError("need 0 <= r <= 2t")
    zc = 1j
    wc = 1j * math.exp(r)  # vertical geodesic: d(i, i e^r) = r
    est, err, acc, _ = _lens_mc(lambda p: np.ones(p.shape), zc, wc, t, n,
                                seed)
    return MCEstimate(value=est, error=err, extras={"acceptance": acc})


def pythagoras_check(t: float, r: float) -> float:
    """Geometric verification of cosh rho = cosh t / cosh(r/2): the
    perpendicular point at distance rho from the lens midpoint must lie
    at distance exactly t from both centers.  Returns the max defect."""
    z = Point(0.0, 1.0)
    if r > 0:
        w = polar_from(z, 0.7, r)
        m = polar_from(z, 0.7, 0.5 * r)
        theta_m, _ = polar_to(m, w)  # direction measured at the midpoint
    else:
        w = z
        m = z
        theta_m = 0.0
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
    u = rng.random(n)
    theta_out = TWO_PI * rng.random(n)
    rr = np.arccosh(1.0 + u * (math.cosh(R) - 1.0))
    # place z' at polar (theta_out, rr) around each z
    zpc = _disc_chart_inv(zc, np.tanh(0.5 * rr) * np.exp(1j * theta_out))
    # midpoint of the pair (z, z')
    mc = _disc_chart_inv(zc, np.tanh(0.25 * rr) * np.exp(1j * theta_out))
    # Reduce the midpoint frame to the fundamental domain: translate m
    # into D and transport the direction by the same group element, so
    # that angle-dependent test functions are evaluated on quotient data.
    mc, zpc = reduce_to_domain(G, mc, zpc)
    # direction at the (reduced) midpoint: angle of z' seen from m
    theta_m = np.angle(_disc_chart(mc, zpc)) % TWO_PI
    sep = 2.0 * _dist_c(mc, zpc)  # isometry-invariant separation
    vals_lhs = np.asarray(f(mc, theta_m, sep), dtype=float)
    scale_lhs = vol_D * ball_volume(R)
    lhs = MCEstimate(value=scale_lhs * float(vals_lhs.mean()),
                     error=scale_lhs * float(vals_lhs.std(ddof=1))
                     / math.sqrt(n))

    # rhs: m ~ uniform(D), theta ~ uniform, r ~ sinh density on [0, R]
    mc2 = _domain_samples(G, n, seed + 3)
    theta2 = TWO_PI * rng.random(n)
    r2 = np.arccosh(1.0 + rng.random(n) * (math.cosh(R) - 1.0))
    vals_rhs = np.asarray(f(mc2, theta2, r2), dtype=float)
    scale_rhs = vol_D * ball_volume(R)  # sinh weight via the radial CDF
    rhs = MCEstimate(value=scale_rhs * float(vals_rhs.mean()),
                     error=scale_rhs * float(vals_rhs.std(ddof=1))
                     / math.sqrt(n))
    return lhs, rhs


def _avg_kernel_at(a: Observable, zc: complex, wc: complex, T: float,
                   t_nodes, t_wts, n_inner: int, seed: int) -> float:
    """(1/T) Int_0^T [P_t a P_t](z, w) dt with one shared sample set:
    points drawn from B(z, t_max) serve every time node via membership
    indicators."""
    t_max = float(t_nodes.max())
    r = float(_dist_c(np.array(zc), np.array(wc)))
    if r > 2.0 * t_max:
        return 0.0
    z0 = Point(zc.real, zc.imag)
    pts = sample_ball_complex(z0, t_max, n_inner, seed)
    dz = _dist_c(pts, np.full(n_inner, zc))
    dw = _dist_c(pts, np.full(n_inner, wc))
    avals = np.asarray(a.eval(pts), dtype=float)
    vol = ball_volume(t_max)
    total = 0.0
    for t_j, w_j in zip(t_nodes, t_wts):
        if r > 2.0 * t_j:
            continue
        mask = (dz <= t_j) & (dw <= t_j)
        integral = vol * float(np.where(mask, avals, 0.0).mean())
        total += w_j * integral / math.cosh(t_j)
    return total / T


def hs_norm_estimate(G: GroupSpec, a: Observable, T: float, R: float,
                     n: int, seed: int):
    """Hilbert-Schmidt norm split for the time-averaged kernel
    K_T = (1/T) Int_0^T P_t a P_t dt.

    main: Monte Carlo estimate of Integral_D Integral_H |K_T|^2 via the
    midpoint change of variables, with |K_T|^2 estimated without bias by
    the product of two independent 400-sample inner estimates over 64
    Gauss-Legendre time nodes.  remainder_bound:
    (e^{2R} / systole) * Vol(thin part below R) * sup|K_T|^2.
    """
    if T <= 0.0 or R <= 0.0:
        raise ValueError("T and R must be positive")
    x, w = _gauss_legendre(64)
    t_nodes, t_wts = T * x, T * w
    vol_D = dirichlet_domain(G)[0]
    rng = np.random.default_rng(seed)
    R_sep = 2.0 * T  # kernel support in separation

    mc = _domain_samples(G, n, seed + 2)
    theta = TWO_PI * rng.random(n)
    sep = np.arccosh(1.0 + rng.random(n) * (math.cosh(R_sep) - 1.0))
    z_disc = np.tanh(0.25 * sep) * np.exp(1j * theta)
    zc_arr = _disc_chart_inv(mc, z_disc)
    wc_arr = _disc_chart_inv(mc, -z_disc)

    prods = np.empty(n)
    for i in range(n):
        k1 = _avg_kernel_at(a, complex(zc_arr[i]), complex(wc_arr[i]), T,
                            t_nodes, t_wts, 400, seed + 10_000 + 2 * i)
        k2 = _avg_kernel_at(a, complex(zc_arr[i]), complex(wc_arr[i]), T,
                            t_nodes, t_wts, 400, seed + 10_001 + 2 * i)
        prods[i] = k1 * k2
    scale = vol_D * ball_volume(R_sep)
    main = scale * float(prods.mean())
    main_err = scale * float(prods.std(ddof=1)) / math.sqrt(n)

    ell = systole(G, search_radius=4.0)
    thin_frac, thin_err = thin_part_fraction(G, R, 2000, seed + 5)
    sup_K = a.sup_bound * float(
        (t_wts * np.array([ball_volume(t) / math.cosh(t)
                           for t in t_nodes])).sum()) / T
    remainder = (math.exp(2.0 * R) / ell) * thin_frac * vol_D * sup_K ** 2
    return (MCEstimate(value=main, error=main_err),
            MCEstimate(value=remainder,
                       error=(math.exp(2.0 * R) / ell) * thin_err * vol_D
                       * sup_K ** 2))


def ergodic_average_decay(G: GroupSpec, a: Observable, t_list, r: float,
                          n: int, seed: int, n_inner: int = 400):
    """Empirical L^2 decay of lens averages of a mean-zero observable.

    For each t: sample frames (z, theta) with z in the fundamental
    domain; average a over the lens with centers at distance r/2 along
    the geodesic through (z, theta) on both sides; report
    (t, lens volume, L^2 deviation of the averages).  The observable's
    quotient mean is estimated once and subtracted.
    """
    if not r < 2.0 * min(t_list):
        raise ValueError("need r < 2 min(t)")
    # numerical mean-zero enforcement
    zc0 = _domain_samples(G, 4000, seed + 1)
    mean_a = float(np.asarray(a.eval(zc0), dtype=float).mean())

    rng = np.random.default_rng(seed)
    zc = _domain_samples(G, n, seed + 2)
    thetas = TWO_PI * rng.random(n)
    # lens centers at distance r/2 forwards and backwards along theta
    fw = np.tanh(0.25 * r) * np.exp(1j * thetas)
    zf = _disc_chart_inv(zc, fw)
    zb = _disc_chart_inv(zc, -fw)

    rows = []
    for t in t_list:
        vol = intersection_volume(t, r, 20_000, seed + 7).value
        sq = np.empty(n)
        for i in range(n):
            est, _, _, lens_vol_i = _lens_mc(
                lambda p: np.asarray(a.eval(p)) - mean_a, complex(zf[i]),
                complex(zb[i]), t, n_inner, seed + 50_000 + i)
            sq[i] = (est / max(lens_vol_i, 1e-300)) ** 2
        deviation = math.sqrt(float(sq.mean()))
        rows.append((float(t), float(vol), deviation))
    return rows
