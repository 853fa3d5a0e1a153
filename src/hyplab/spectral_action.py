"""Spectral action of the disc-averaging propagator: the multiplier
h_t(s), its Lipschitz control in t, the period sequence t_k = 2 pi k / s,
the constants c(s), c(I), k0(I), and the time average
(1/T) Int_0^T h_t(s)^2 dt with its minimum over s.

The multiplier is

    h_t(s) = 4 sqrt(2) * Integral_0^t cos(su) sqrt(1 - cosh u / cosh t) du,

taken everywhere by one checked Gauss-Legendre rule, ``_h_t_nodes``; it
agrees with the transform of the disc kernel k_t (see the selberg
module) to quadrature accuracy, which an acceptance test checks.
For large k the period values behave like h_{t_k}(s) ~ -4 c(s) with

    c(s) = -(1/2) * Integral_0^{2 pi / s} cos(sv) sqrt(1 - e^{v - 2 pi/s}) dv,

so h_{t_k}(s) < -2 c(I) holds with room to spare beyond the period index
threshold k0(I).  c(I), k0(I), the Lipschitz constant and the minima
over s are estimates on finite grids of s and t, not certified bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundNotReached
from .selberg import _checked, _gauss_legendre, _gl, _quad

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
        if n < 2:
            raise ValueError("an s-grid needs n >= 2 points")
        x = np.cos(np.pi * np.arange(n) / (n - 1))
        return 0.5 * (self.a + self.b) + 0.5 * (self.b - self.a) * x[::-1]


def _cosh_ratio(u, t):
    """cosh(u)/cosh(t) for 0 <= u <= t, stable for large t."""
    return np.exp(u - t) * (1.0 + np.exp(-2.0 * u)) / (1.0 + np.exp(-2.0 * t))


def _h_t_nodes(t, s):
    """The one quadrature rule for h_t: nodes u and weights W, one row
    per entry of t, with h_t(s) = Sum_j cos(s u_j) W_j.

    The square-root vanishing at u = t is absorbed by u = t (1 - x^2),
    in which the integrand is analytic on [0, 1].  The rule is sized
    for the entry of the aligned arrays t, |s| with the most cycles,
    max(128, int(12 * cycles) + 32) nodes from ``_gl``, and checked
    there against the rule with twice the nodes (QuadratureFailure if
    they differ by more than 1e-8, absolute and relative)."""
    t, s = np.broadcast_arrays(t, np.abs(s))
    top = int(np.argmax(s * t))
    n = max(128, int(12 * s[top] * t[top] / (2.0 * math.pi)) + 32)
    rules = []
    for tt, m in ((t, n), (t[top:top + 1], 2 * n)):
        x, w = _gl(m)
        u = tt[:, None] * (1.0 - x * x)
        root = np.sqrt(np.clip(1.0 - _cosh_ratio(u, tt[:, None]), 0.0, None))
        rules.append((u, (2.0 * _SQRT8) * tt[:, None] * (x * w) * root))
    (u, wts), (u2, w2) = rules
    _checked(float(np.cos(s[top] * u2[0]) @ w2[0]),
             float(np.cos(s[top] * u[top]) @ wts[top]), 1e-8, 1e-8,
             f"h_t at t={t[top]}, s={s[top]}")
    return u, wts


def h_t_closed(t: float, s: float) -> float:
    """The propagator multiplier h_t(s) at one point (``h_t_grid``)."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    return float(h_t_grid(t, s)[0])


def h_t_grid(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Vectorized h_t(s) for aligned arrays t, s (pairwise), by the one
    rule ``_h_t_nodes``."""
    t, s = np.broadcast_arrays(np.atleast_1d(np.asarray(t, dtype=float)),
                               np.atleast_1d(np.asarray(s, dtype=float)))
    u, wts = _h_t_nodes(t, s)
    return np.einsum("ij,ij->i", np.cos(s[:, None] * u), wts)


def lipschitz_bound(s_grid, t_range, delta: float = 1e-4,
                    n_t: int = 12) -> float:
    """A grid estimate, not a certified bound, of the Lipschitz constant
    of t -> h_t(s): max over the (s, t) grid of |h_{t+delta}(s) - h_t(s)|
    / delta."""
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

    val = _quad(integrand, 0.0, math.sqrt(P), f"c(s) at s={s}",
                epsabs=1e-13, epsrel=1e-11, limit=400)
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

    val = _quad(integrand, 0.0, math.sqrt(2.0 * math.pi),
                f"c(s) by parts at s={s}", epsabs=1e-13, epsrel=1e-11,
                limit=400)
    return -val / (4.0 * s * s)


def verify_period_bound(I: SpectralInterval, k_max: int,
                        grid_n: int = 256):
    """c_I = min of c(s) over the s-grid on I, and the smallest k0 such
    that h_{t_k}(s) < -2 c_I + 1e-6 for all grid s and all k in
    [k0, k_max].  Both are grid estimates, checked at the grid s only,
    not certified bounds on I.

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
    # the rule's weights do not depend on s: build them once, for b
    u, wts = _h_t_nodes(t_nodes, I.b)
    h = [np.einsum("ij,ij->i", np.cos(s * u), wts) for s in s_grid]
    return s_grid, (np.array(h) ** 2 @ t_wts) / T


def time_avg_lower_bound(I: SpectralInterval, T: float,
                         grid_n: int = 256):
    """min over the s-grid on I of (1/T) Int_0^T h_t(s)^2 dt, with the
    minimizing s: a grid estimate, not a certified lower bound on I."""
    s_grid, avgs = time_average_table(I, T, grid_n)
    i_min = int(np.argmin(avgs))
    return float(avgs[i_min]), float(s_grid[i_min])


def chain_lower_bound(I: SpectralInterval, T: float, k_max: int = 50):
    """The proof-chain lower bound for the time average: with L the
    Lipschitz constant, J = [-c_I/(2L), c_I/(2L)] and k1 = k0, the bound
    (s/(4 pi) - k1/T) * |J| * c_I^2, minimized over the s-grid.

    On the window J + t_k the multiplier satisfies |h_t(s)| >= c_I by
    Lipschitz continuity from |h_{t_k}(s)| >= 2 c_I, so each window
    contributes at least |J| c_I^2 to the integral of h^2.  But c_I, k0
    and L are grid estimates, so the result is one too, not certified.
    """
    c_I, k0 = verify_period_bound(I, k_max)
    L = lipschitz_bound(I.s_grid(32), (1.1, max(2.0, T)), n_t=16)
    J_len = c_I / L
    val = (I.a / (4.0 * math.pi) - k0 / T) * J_len * c_I ** 2
    return val, {"c_I": c_I, "k0": k0, "lipschitz": L, "J_len": J_len}
