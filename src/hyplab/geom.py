"""Upper half-plane geometry: distances, the Mobius action, polar
coordinates, the geodesic flow and Monte Carlo sampling of geodesic balls.

Conventions
-----------
* Points are ``z = x + iy`` with ``y > 0`` and metric ``(dx^2+dy^2)/y^2``.
* A unit tangent is ``(z, theta)`` with ``theta = 0`` the upward vertical
  direction at ``z`` and theta increasing counterclockwise.
* All operations are pure; samplers take explicit seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Point:
    """A point of the upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0.0:
            raise ValueError(f"point must have y > 0, got y={self.y}")

    @property
    def as_complex(self) -> complex:
        return complex(self.x, self.y)

    @staticmethod
    def from_complex(z: complex) -> "Point":
        return Point(z.real, z.imag)


@dataclass(frozen=True)
class UnitTangent:
    """A base point together with a direction angle in [0, 2*pi)."""

    base: Point
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)


@dataclass(frozen=True)
class MobiusElement:
    """An element of PSL(2, R): a real 2x2 matrix of determinant one
    modulo sign.

    The constructor renormalizes the determinant to 1 and fixes the
    canonical sign (first entry of (a, b, c, d) exceeding 1e-12 in
    magnitude is made positive), so equality of group elements is
    testable by comparing entries.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        a, b, c, d = float(self.a), float(self.b), float(self.c), float(self.d)
        det = a * d - b * c
        if det <= 0.0:
            raise ValueError(f"determinant must be positive, got {det}")
        s = 1.0 / math.sqrt(det)
        a, b, c, d = a * s, b * s, c * s, d * s
        for entry in (a, b, c, d):
            if abs(entry) > 1e-12:
                if entry < 0.0:
                    a, b, c, d = -a, -b, -c, -d
                break
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def _raw(cls, a, b, c, d):
        # Bypass the normalization: rotations are stored with their natural
        # sign so that frame angles compose correctly, and entries already
        # made canonical by _canonical_batch keep their bits.
        self = object.__new__(cls)
        for name, value in zip("abcd", (a, b, c, d)):
            object.__setattr__(self, name, value)
        return self

    @staticmethod
    def identity() -> "MobiusElement":
        return MobiusElement(1.0, 0.0, 0.0, 1.0)

    @property
    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def inverse(self) -> "MobiusElement":
        return MobiusElement(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "MobiusElement") -> "MobiusElement":
        return MobiusElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply_complex(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def approx_eq(self, other: "MobiusElement", tol: float = 1e-9) -> bool:
        return max(abs(p - q) for p, q in zip(self.entries, other.entries)) <= tol

    def is_identity(self, tol: float = 1e-9) -> bool:
        return self.approx_eq(MobiusElement.identity(), tol)


def mobius_apply(g: MobiusElement, z: Point) -> Point:
    """Act by the Mobius transformation z -> (az+b)/(cz+d)."""
    return Point.from_complex(g.apply_complex(z.as_complex))


def _mobius_batch(mats: np.ndarray, zc) -> np.ndarray:
    """gamma z for every row (a, b, c, d) of mats and every complex point
    of zc: an (N, M) array for N matrices and M points."""
    a, b, c, d = (mats[:, k][:, None] for k in range(4))
    z = np.asarray(zc)[None, :]
    return (a * z + b) / (c * z + d)


def _canonical_batch(mats: np.ndarray) -> np.ndarray:
    """Rows (a, b, c, d) renormalized to determinant one with the
    canonical sign: the same operations as MobiusElement's constructor,
    so each row equals the entries of MobiusElement(a, b, c, d) bit for
    bit.  Returns a new (N, 4) array."""
    a, b, c, d = mats.T
    det = a * d - b * c
    if np.any(det <= 0.0):
        raise ValueError("determinant must be positive")
    out = mats * (1.0 / np.sqrt(det))[:, None]
    # after scaling det = 1, so every row has an entry above 1e-12
    first = (np.abs(out) > 1e-12).argmax(axis=1)
    flip = out[np.arange(len(out)), first] < 0.0
    out[flip] = -out[flip]
    return out


def hyp_dist(z: Point, w: Point) -> float:
    """Hyperbolic distance, via sinh(d/2) = |z-w| / (2 sqrt(y1 y2))."""
    return _dist_c(z.as_complex, w.as_complex)


def _dist_c(z, w):
    """Distance on complex values; broadcasts over numpy arrays."""
    return 2.0 * np.arcsinh(np.abs(z - w) / (2.0 * np.sqrt(z.imag * w.imag)))


def ball_volume(r: float) -> float:
    """Hyperbolic area of a disc of radius r: 2*pi*(cosh r - 1)."""
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    return TWO_PI * (math.cosh(r) - 1.0)


# -- frames: a unit tangent corresponds to g in PSL(2,R) via (z, theta)
# = g . (i, up); the geodesic flow is right multiplication by
# diag(e^{t/2}, e^{-t/2}).


def _frame(v: UnitTangent) -> MobiusElement:
    x, y = v.base.x, v.base.y
    sy = math.sqrt(y)
    translate = MobiusElement(sy, x / sy, 0.0, 1.0 / sy)
    half = 0.5 * v.theta
    rotate = MobiusElement._raw(math.cos(half), math.sin(half),
                                -math.sin(half), math.cos(half))
    return translate @ rotate


def _unframe(g: MobiusElement) -> UnitTangent:
    z = g.apply_complex(1j)
    theta = -2.0 * math.atan2(g.c, g.d)
    return UnitTangent(Point.from_complex(z), theta)


def geodesic_flow(v: UnitTangent, t: float) -> UnitTangent:
    """Flow the unit tangent v for time t along its geodesic."""
    half = 0.5 * t
    flow = MobiusElement._raw(math.exp(half), 0.0, 0.0, math.exp(-half))
    return _unframe(_frame(v) @ flow)


def polar_from(z0: Point, theta: float, r: float) -> Point:
    """The point at distance r from z0 in direction theta.

    Defined as the base point of the geodesic flow of (z0, theta) at
    time r, which makes the flow/polar compatibility exact by
    construction.
    """
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return z0
    return geodesic_flow(UnitTangent(z0, theta), r).base


def polar_to(z0: Point, z: Point) -> tuple:
    """Inverse of polar_from: the (theta, r) coordinates of z around z0.

    Uses the disc chart W = (z - z0)/(z - conj(z0)), in which the polar
    point at (theta, r) sits at tanh(r/2) e^{i theta} exactly.
    """
    w = _disc_chart(z0.as_complex, z.as_complex)
    r = 2.0 * math.atanh(abs(w))
    theta = math.atan2(w.imag, w.real) % TWO_PI
    return theta, r


def _disc_chart(z0, z):
    return (z - z0) / (z - np.conj(z0))


def _disc_chart_inv(z0, w):
    return (z0 - np.conj(z0) * w) / (1.0 - w)


def _polar_batch(z0: Point, theta: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vectorized polar_from; returns complex coordinates.

    The disc-chart point w = m e^{i theta}, m = tanh(r/2), maps back to
    z0.x + z0.y * i(1 + w)/(1 - w), written out in real arithmetic.  The
    direction enters through tau = tan(theta/2), which NumPy evaluates
    several times faster than cos and sin.
    """
    m = np.tanh(0.5 * r)
    tau = np.tan(0.5 * theta)
    tau2 = tau * tau
    a = m * (1.0 - tau2) / (1.0 + tau2)  # Re w = m cos(theta)
    b = 2.0 * m * tau / (1.0 + tau2)  # Im w = m sin(theta)
    q = (1.0 - a) ** 2 + b * b  # |1 - w|^2
    out = np.empty(np.shape(q), dtype=complex)
    out.real = z0.x - 2.0 * z0.y * b / q
    out.imag = z0.y * (1.0 - m) * (1.0 + m) / q
    return out


def sample_ball(z0: Point, r: float, n: int, seed: int) -> list:
    """Draw n i.i.d. points from the uniform (hyperbolic-area) measure on
    the ball B(z0, r); reproducible for a fixed seed.

    Radial CDF inversion: rho = acosh(1 + u (cosh r - 1)).
    """
    zc = sample_ball_complex(z0, r, n, seed)
    return [Point(float(z.real), float(z.imag)) for z in zc]


_SAMPLE_BLOCK = 1 << 16


def sample_ball_complex(z0: Point, r: float, n: int, seed: int) -> np.ndarray:
    """Vectorized form of sample_ball, returning a complex array."""
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    theta = rng.random(n)
    out = np.empty(n, dtype=complex)
    # blocks keep the temporaries small enough to be reused, not faulted in
    for j in range(0, n, _SAMPLE_BLOCK):
        blk = slice(j, j + _SAMPLE_BLOCK)
        rho = np.arccosh(1.0 + u[blk] * (math.cosh(r) - 1.0))
        out[blk] = _polar_batch(z0, TWO_PI * theta[blk], rho)
    return out
