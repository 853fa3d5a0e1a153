"""Closed-form spectral action of the disc-averaging propagator: the
multiplier h_t(s) in closed form, its Lipschitz control in t, the period
sequence t_k = 2 pi k / s, the constants c(s), c(I), k0(I), and the
time-averaged lower bound min_s (1/T) Int_0^T h_t(s)^2 dt.

The closed form used throughout is

    h_t(s) = 4 sqrt(2) * Integral_0^t cos(su) sqrt(1 - cosh u / cosh t) du,

which agrees with the transform of the disc kernel k_t (see the selberg
module) to quadrature accuracy; the cross-check is an acceptance test.
For large k the period values behave like h_{t_k}(s) ~ -4 c(s) with

    c(s) = -(1/2) * Integral_0^{2 pi / s} cos(sv) sqrt(1 - e^{v - 2 pi/s}) dv,

so h_{t_k}(s) < -2 c(I) holds with room to spare beyond the period index
threshold k0(I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import QuadratureFailure, BoundNotReached
from .selberg import _gauss_legendre

_SQRT8 = 4.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class SpectralInterval:
    """A range [a, b] of the spectral parameter s, encoding the
    eigenvalue interval [1/4 + a^2, 1/4 + b^2] strictly above 1/4."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a <= self.b):
            raise ValueError("need 0 < a <= b")

    def s_grid(self, n: int = 256) -> np.ndarray:
        """Chebyshev points on [a, b] including both endpoints."""
        x = np.cos(np.pi * np.arange(n) / (n - 1))
        return 0.5 * (self.a + self.b) + 0.5 * (self.b - self.a) * x[::-1]


def _cosh_ratio(u, t):
    """cosh(u)/cosh(t) for 0 <= u <= t, stable for large t."""
    return np.exp(u - t) * (1.0 + np.exp(-2.0 * u)) / (1.0 + np.exp(-2.0 * t))


def h_t_closed(t: float, s: float) -> float:
    """The propagator multiplier h_t(s) by adaptive quadrature.

    The square-root vanishing at u = t is absorbed by u = t - v^2; the
    resulting integrand is analytic on [0, sqrt(t)].
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    s = float(s)

    def integrand(v):
        u = t - v * v
        return (math.cos(s * u)
                * math.sqrt(max(0.0, 1.0 - _cosh_ratio(u, t))) * 2.0 * v)

    cycles = abs(s) * t / (2.0 * math.pi)
    val, err = integrate.quad(integrand, 0.0, math.sqrt(t),
                              epsabs=1e-12, epsrel=1e-10,
                              limit=max(200, int(20 * cycles) + 50))
    if err > max(1e-10, 1e-8 * abs(val)):
        raise QuadratureFailure(
            f"h_t quadrature error estimate {err:.2e} too large at "
            f"t={t}, s={s}")
    return _SQRT8 * val


def h_t_grid(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Vectorized h_t(s) for aligned arrays t, s (pairwise), by
    Gauss-Legendre quadrature in the edge variable."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t, s = np.broadcast_arrays(t, s)
    cycles = float(np.max(np.abs(s) * t)) / (2.0 * math.pi)
    x, w = _gauss_legendre(max(128, int(12 * cycles) + 32))
    # u = t (1 - x^2), v = sqrt(t) x, dv = sqrt(t) dx
    u = t[:, None] * (1.0 - x[None, :] ** 2)
    ratio = _cosh_ratio(u, t[:, None])
    core = np.cos(s[:, None] * u) * np.sqrt(np.clip(1.0 - ratio, 0.0, None))
    vals = 2.0 * t * ((core * x[None, :]) @ w)
    return _SQRT8 * vals


def lipschitz_bound(s_grid, t_range, delta: float = 1e-4,
                    n_t: int = 12) -> float:
    """Empirical uniform Lipschitz constant of t -> h_t(s):
    max over the (s, t) grid of |h_{t+delta}(s) - h_t(s)| / delta."""
    lo, hi = t_range
    if not lo > 1.0:
        raise ValueError("t_range must lie in (1, inf)")
    s_grid = np.asarray(s_grid, dtype=float)
    t_samples = np.linspace(lo, hi, n_t)
    tt = np.repeat(t_samples, len(s_grid))
    ss = np.tile(s_grid, n_t)
    h0 = h_t_grid(tt, ss)
    h1 = h_t_grid(tt + delta, ss)
    return float(np.max(np.abs(h1 - h0)) / delta)


def period_sequence(s: float, k: int) -> float:
    """The k-th period time t_k = 2 pi k / s."""
    if s <= 0.0 or k < 1:
        raise ValueError("need s > 0 and k >= 1")
    return 2.0 * math.pi * k / s


def c_of_s(s: float) -> float:
    """The limiting period constant c(s); positive for s > 0.

    The endpoint square root is absorbed by v = 2 pi / s - w^2.
    """
    if s <= 0.0:
        raise ValueError("s must be positive")
    P = 2.0 * math.pi / s

    def integrand(w):
        v = P - w * w
        return math.cos(s * v) * math.sqrt(-math.expm1(-w * w)) * 2.0 * w

    val, err = integrate.quad(integrand, 0.0, math.sqrt(P),
                              epsabs=1e-13, epsrel=1e-11, limit=400)
    if err > 1e-9:
        raise QuadratureFailure(
            f"c(s) quadrature error estimate {err:.2e} too large at s={s}")
    return -0.5 * val


def c_of_s_by_parts(s: float) -> float:
    """c(s) via the integration-by-parts identity
    c(s) = -(1/(4 s^2)) Int_0^{2 pi} sin(x) e^{(x-2pi)/s}
           / sqrt(1 - e^{(x-2pi)/s}) dx,
    used as an independent quadrature oracle."""
    if s <= 0.0:
        raise ValueError("s must be positive")

    # absorb the inverse-sqrt endpoint with x = 2 pi - w^2
    def integrand(w):
        x = 2.0 * math.pi - w * w
        e = math.exp(-w * w / s)
        return math.sin(x) * e / math.sqrt(-math.expm1(-w * w / s)) * 2.0 * w

    val, err = integrate.quad(integrand, 0.0, math.sqrt(2.0 * math.pi),
                              epsabs=1e-13, epsrel=1e-11, limit=400)
    if err > 1e-9:
        raise QuadratureFailure(
            f"c(s) by-parts quadrature error {err:.2e} too large at s={s}")
    return -val / (4.0 * s * s)


def verify_period_bound(I: SpectralInterval, k_max: int,
                        grid_n: int = 256):
    """c_I = min of c(s) over the s-grid on I, and the smallest k0 such
    that h_{t_k}(s) < -2 c_I + 1e-6 for all grid s and all k in
    [k0, k_max].

    Raises BoundNotReached (listing violating (k, s) pairs) when even
    k0 = k_max fails.
    """
    if k_max < 10:
        raise ValueError("k_max must be >= 10")
    s_grid = I.s_grid(grid_n)
    c_I = min(c_of_s(s) for s in s_grid)
    k0 = 1
    violations = []
    for k in range(1, k_max + 1):
        t_k = 2.0 * math.pi * k / s_grid
        bad = h_t_grid(t_k, s_grid) >= -2.0 * c_I + 1e-6
        if bad.any():
            k0 = k + 1
            violations.extend((k, float(s)) for s in s_grid[bad][:4])
    if k0 > k_max:
        raise BoundNotReached(
            f"no k0 <= {k_max} satisfies the period bound on I = "
            f"[{I.a}, {I.b}]", violations=violations)
    return c_I, k0


def time_average_table(I: SpectralInterval, T: float, grid_n: int = 256):
    """The s-grid on I and, for each s, the time average
    (1/T) Int_0^T h_t(s)^2 dt by Gauss-Legendre in t."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    s_grid = I.s_grid(grid_n)
    cycles = float(I.b) * T / (2.0 * math.pi)
    n_t = max(256, int(16 * cycles) + 64)
    x, w = _gauss_legendre(n_t)
    t_nodes, t_wts = T * x, T * w
    avgs = np.empty(len(s_grid))
    for i, s in enumerate(s_grid):
        h_vals = h_t_grid(t_nodes, np.full(n_t, s))
        avgs[i] = float((h_vals ** 2) @ t_wts) / T
    return s_grid, avgs


def time_avg_lower_bound(I: SpectralInterval, T: float,
                         grid_n: int = 256):
    """min over the s-grid on I of (1/T) Int_0^T h_t(s)^2 dt, with the
    minimizing s."""
    s_grid, avgs = time_average_table(I, T, grid_n)
    i_min = int(np.argmin(avgs))
    return float(avgs[i_min]), float(s_grid[i_min])


def chain_lower_bound(I: SpectralInterval, T: float, k_max: int = 50):
    """The proof-chain lower bound for the time average: with L the
    Lipschitz constant, J = [-c_I/(2L), c_I/(2L)] and k1 = k0, the bound
    (s/(4 pi) - k1/T) * |J| * c_I^2, minimized over the s-grid.

    On the window J + t_k the multiplier satisfies |h_t(s)| >= c_I by
    Lipschitz continuity from |h_{t_k}(s)| >= 2 c_I, so each window
    contributes at least |J| c_I^2 to the integral of h^2.
    """
    c_I, k0 = verify_period_bound(I, k_max)
    L = lipschitz_bound(I.s_grid(32), (1.1, max(2.0, T)), n_t=16)
    J_len = c_I / L
    s_lo = I.a
    val = (s_lo / (4.0 * math.pi) - k0 / T) * J_len * c_I ** 2
    return val, {"c_I": c_I, "k0": k0, "lipschitz": L, "J_len": J_len}
