"""Pre-trace-formula numerics: the Weyl density, geometric-side heat
sums over group balls with certified tails, spectral-side sums over
ingested eigenvalues, exponential-sum approximation of window
functions, and eigenvalue-count estimates.

The pointwise pre-trace formula for an even multiplier h with kernel k:

    Sum_j h(s_j) |psi_j(z)|^2 =
        (1/4 pi) Integral h(rho) tanh(pi rho) rho d rho
        + Sum_{gamma != id} k(d(z, gamma z)),

integrated over the fundamental domain gives the heat-trace identity
used by the tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned
from .geom import Point
from .fuchsian import (GroupSpec, dirichlet_domain, group_ball, systole,
                       _displacement, _domain_samples)
from .selberg import heat_kernel, _heat_profile, _quad


@dataclass
class EigenData:
    """An ingested eigenvalue list (nondecreasing, starting at 0) with
    the surface area and an optional quadrature mesh of eigenfunction
    samples (rows of ``values`` are eigenfunctions)."""

    volume: float
    eigenvalues: np.ndarray
    mesh_points: np.ndarray = None   # (n, 2)
    mesh_weights: np.ndarray = None  # (n,)
    mesh_values: np.ndarray = None   # (J, n)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if len(ev) == 0 or ev[0] != 0.0:
            raise ValueError("eigenvalue list must start at exactly 0")
        if np.any(np.diff(ev) < 0.0):
            raise ValueError("eigenvalues must be nondecreasing")
        self.eigenvalues = ev

    @property
    def has_mesh(self) -> bool:
        return self.mesh_values is not None

    def gram_deviation(self) -> float:
        """Max deviation of the eigenfunction Gram matrix under the mesh
        quadrature from the identity (reported, not enforced)."""
        if not self.has_mesh:
            return math.nan
        V = np.asarray(self.mesh_values, dtype=float)
        W = np.asarray(self.mesh_weights, dtype=float)
        gram = (V * W[None, :]) @ V.T
        return float(np.max(np.abs(gram - np.eye(len(V)))))


def load_eigendata(path) -> EigenData:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("eigen-data JSON must be an object")
    try:
        mesh = doc.get("mesh")
        kw = {}
        if mesh is not None:
            kw = dict(mesh_points=np.asarray(mesh["points"], dtype=float),
                      mesh_weights=np.asarray(mesh["weights"], dtype=float),
                      mesh_values=np.asarray(mesh["values"], dtype=float))
        # EigenData converts the eigenvalue list itself
        return EigenData(volume=float(doc["volume"]),
                         eigenvalues=doc["eigenvalues"], **kw)
    except KeyError as exc:
        raise ValueError(f"eigen-data JSON has no field {exc}") from None


def save_eigendata(E: EigenData, path) -> None:
    doc = {"volume": E.volume, "eigenvalues": list(map(float, E.eigenvalues))}
    if E.has_mesh:
        doc["mesh"] = {"points": E.mesh_points.tolist(),
                       "weights": E.mesh_weights.tolist(),
                       "values": E.mesh_values.tolist()}
    with open(path, "w") as fh:
        json.dump(doc, fh)


@dataclass
class ExpSumApprox:
    """A least-squares approximation g(x) ~ Sum_k a_k e^{-t_k x} of
    g(x) = f(x) e^x on [0, X_max], so f(x) ~ Sum_k a_k e^{-(t_k+1) x}."""

    coefficients: np.ndarray
    rates: np.ndarray
    sup_error: float
    ill_conditioned: bool = False

    def eval_g(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.outer(x, self.rates)) @ self.coefficients

    def eval_f(self, x):
        x = np.asarray(x, dtype=float)
        return self.eval_g(x) * np.exp(-x)


def weyl_density(f, quad_limit: float) -> float:
    """(1/4 pi) Integral_R f(1/4 + rho^2) tanh(pi rho) rho d rho for a
    bounded f supported in [0, 1/4 + quad_limit^2]."""
    if quad_limit <= 0.0:
        raise ValueError("quad_limit must be positive")
    val = _quad(
        lambda rho: f(0.25 + rho * rho) * math.tanh(math.pi * rho) * rho,
        0.0, quad_limit, "Weyl density")
    return val / (2.0 * math.pi)


def lattice_count_bound(R: float, ell: float) -> float:
    """Upper bound (cosh(R + ell/2) - 1)/(cosh(ell/2) - 1) for the number
    of group elements displacing a point z by at most R, when every
    nontrivial element is hyperbolic with translation length >= ell
    (torsion-free cocompact groups, ell at most the systole).

    Proof: a hyperbolic element moves every point by at least its
    translation length, so distinct gamma, gamma' have
    d(gamma z, gamma' z) = d(z, gamma^-1 gamma' z) >= ell.  The open
    balls of radius ell/2 about the orbit points are thus disjoint, and
    those within R of z (the identity's included) lie in
    B(z, R + ell/2); compare areas 2 pi (cosh r - 1)."""
    half = 0.5 * ell
    return (math.cosh(R + half) - 1.0) / (math.cosh(half) - 1.0)


def _geometric_tail_bound(G: GroupSpec, t: float, R: float) -> float:
    """Certified bound for the omitted heat mass beyond displacement R:
    shell counts from the lattice bound, at the exact systole ell, times
    the (decreasing) kernel at the shell's inner radius.

    A group with one generator gamma is cyclic, and its count within r
    is also at most 2 floor(r / ell) + 1, which grows like r instead of
    e^r.  Proof: gamma^k is hyperbolic with translation length
    |k| ell(gamma) >= |k| ell, and moves every point at least that far,
    so d(z, gamma^k z) <= r forces |k| <= r / ell."""
    ell = systole(G, search_radius=4.0)
    cyclic = len(G.generators) == 1
    _, rho_max = _heat_profile(t)
    total = 0.0
    k = math.floor(R)
    while k <= rho_max + 1.0:
        count = lattice_count_bound(k + 1.0, ell)
        if cyclic:
            count = min(count, 2 * math.floor((k + 1.0) / ell) + 1)
        total += count * heat_kernel(t, max(k, R))
        k += 1
    return total


def geometric_side(G: GroupSpec, z: Point, t: float, R: float):
    """Sum over the group ball at z of the heat kernel at the
    displacements, with a certified tail bound for the omitted elements.

    Returns (value, tail_bound).
    """
    if t <= 0.0 or R <= 0.0:
        raise ValueError("t and R must be positive")
    disp = group_ball(G, z, R).displacements()
    return float(np.sum(heat_kernel(t, disp))), _geometric_tail_bound(G, t, R)


def geometric_side_domain_integral(G: GroupSpec, t: float, R: float,
                                   n: int, seed: int):
    """Monte Carlo Integral over the fundamental domain of the
    geometric side: Vol(D) times the domain average of
    Sum_gamma p_t(d(z, gamma z)).

    Returns (value, mc_error, tail_bound), with Vol(D) exact from
    ``dirichlet_domain``; the ball is enumerated once at the base point
    with radius covering every sample.
    """
    vol_D, radius = dirichlet_domain(G)
    ball = group_ball(G, G.base_point, R + 2.0 * radius)
    zc = _domain_samples(G, n, seed)
    disp = _displacement(ball.matrices(), zc)
    # count each element only while inside its own ball radius R
    contrib = np.where(disp <= R, heat_kernel(t, disp), 0.0).sum(axis=0)
    value = vol_D * float(contrib.mean())
    err = vol_D * float(contrib.std(ddof=1)) / math.sqrt(n)
    tail = vol_D * _geometric_tail_bound(G, t, R)
    return value, err, tail


def heat_trace_spectral(E: EigenData, t: float):
    """Sum_j e^{-t lambda_j} over the ingested eigenvalues, plus the
    Weyl-density estimate of the truncation tail beyond the largest
    listed eigenvalue.  Returns (value, tail_estimate)."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    lam_max = float(E.eigenvalues[-1])
    value = float(np.exp(-t * E.eigenvalues).sum())
    rho_lo = math.sqrt(max(lam_max - 0.25, 0.0))
    tail = _quad(
        lambda rho: math.exp(-t * (0.25 + rho * rho))
        * math.tanh(math.pi * rho) * rho, rho_lo, rho_lo + 40.0 / (1 + t),
        f"heat-trace tail at t={t}", epsabs=1e-14, epsrel=1e-10, limit=200)
    return value, E.volume * tail / (2.0 * math.pi)


def exp_sum_fit(f, K: int, domain) -> ExpSumApprox:
    """Least-squares fit of g(x) = f(x) e^x by Sum_k a_k e^{-t_k x} with
    uniform rates t_k = k * Delta on a dense grid of [0, X_max].

    Delta is set so the largest rate resolves scale X_max / K; the
    normal equations carry a 1e-10 ridge, with the ill-conditioning flag
    set when the plain solve would be rank-deficient.
    """
    x_lo, x_hi = domain
    if x_lo != 0.0 or x_hi <= 0.0:
        raise ValueError("domain must be [0, X_max] with X_max > 0")
    grid = np.linspace(0.0, x_hi, 2001)
    g = np.asarray([f(x) for x in grid], dtype=float) * np.exp(grid)
    if K == 0:
        return ExpSumApprox(coefficients=np.array([]), rates=np.array([]),
                            sup_error=float(np.max(np.abs(g))))
    delta = 2.0 / x_hi
    rates = delta * np.arange(1, K + 1)
    A = np.exp(-np.outer(grid, rates))
    gram = A.T @ A
    cond = np.linalg.cond(gram)
    ill = bool(cond > 1e14)
    coef = np.linalg.solve(gram + 1e-10 * np.eye(K), A.T @ g)
    if not np.all(np.isfinite(coef)):
        raise IllConditioned("exponential-sum normal equations unsolvable")
    sup_error = float(np.max(np.abs(A @ coef - g)))
    return ExpSumApprox(coefficients=coef, rates=rates, sup_error=sup_error,
                        ill_conditioned=ill)


def smoothed_window(lam_lo: float, lam_hi: float, eps: float = 0.05):
    """A C^0 trapezoid approximation of the indicator of
    [lam_lo, lam_hi]: 1 inside, linear ramps of width eps outside."""

    def f(x):
        if x <= lam_lo - eps or x >= lam_hi + eps:
            return 0.0
        if x >= lam_lo and x <= lam_hi:
            return 1.0
        if x < lam_lo:
            return (x - (lam_lo - eps)) / eps
        return ((lam_hi + eps) - x) / eps

    return f


def eigencount_estimate(E: EigenData, interval):
    """Number of the ingested eigenvalues E in ``interval`` =
    (lam_lo, lam_hi), an interval inside (1/4, inf).

    Returns (count, weyl): the exact count from the eigen-data E, and
    the Weyl term E.volume * weyl_density of the window smoothed by
    ramps of width 0.05.
    """
    if E is None:
        raise ValueError("eigencount_estimate needs eigen-data")
    lam_lo, lam_hi = interval
    if not 0.25 < lam_lo < lam_hi:
        raise ValueError("interval must lie in (1/4, inf)")
    eps = 0.05
    weyl = E.volume * weyl_density(smoothed_window(lam_lo, lam_hi, eps),
                                   math.sqrt(lam_hi + eps) + 1.0)
    ev = E.eigenvalues
    return float(np.count_nonzero((ev >= lam_lo) & (ev <= lam_hi))), weyl
