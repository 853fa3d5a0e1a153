"""Upper half-plane geometry: distances, the Mobius action, polar
coordinates in one disc chart and Monte Carlo sampling of geodesic balls.

Conventions
-----------
* Points are ``z = x + iy`` with ``y > 0`` and metric ``(dx^2+dy^2)/y^2``.
* A direction theta at ``z`` is measured from the upward vertical,
  increasing counterclockwise.
* Every point placed at polar coordinates (theta, r) about a centre goes
  through ``_polar_batch``, and every radius drawn with the area law of a
  ball through ``_radial_icdf``.
* All operations are pure; samplers take explicit seeds.
* Loops over blocks of points run through ``_blockwise``, on a thread
  pool of one thread per usable core.  Each block of the ball sampler
  draws its own slice of the seed's one random stream by jump-ahead;
  every other sampler draws in the calling thread before its blocks
  run.  Each block writes only its own slice and every reduction runs
  over the whole array afterwards, so results do not depend on the
  thread count.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
class MobiusElement:
    """An element of PSL(2, R): a real 2x2 matrix of determinant one
    modulo sign.

    The constructor puts the entries in the normal form of
    ``_canonical_batch`` (determinant 1, and the first entry of
    (a, b, c, d) exceeding 1e-12 in magnitude positive), so equality of
    group elements is testable by comparing entries.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        row = _canonical_batch(np.array([list(map(float, self.entries))]))[0]
        for name, value in zip("abcd", row.tolist()):
            object.__setattr__(self, name, value)

    @classmethod
    def _raw(cls, a, b, c, d):
        # Bypass the normalization: entries already made canonical by
        # _canonical_batch keep their bits.
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
    canonical sign: the first entry exceeding 1e-12 in magnitude is made
    positive.  The normal form of PSL(2, R), also applied by
    MobiusElement's constructor.  Returns a new (N, 4) array."""
    a, b, c, d = mats.T
    det = a * d - b * c
    if np.any(det <= 0.0):
        raise ValueError(
            f"determinant must be positive, got {float(det.min())}")
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


def polar_from(z0: Point, theta: float, r: float) -> Point:
    """The point at distance r from z0 in direction theta: the one-point
    case of ``_polar_batch``."""
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    return Point.from_complex(complex(_polar_batch(z0.as_complex, theta, r)))


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


def _polar_batch(z0c, theta, r) -> np.ndarray:
    """The points at distance r from the complex centres z0c in direction
    theta, as a complex array.  theta and r are each a scalar or an array
    of the result's shape, and z0c broadcasts to that shape.

    The disc-chart point w = m e^{i theta}, m = tanh(r/2), maps back to
    x0 + y0 * i(1 + w)/(1 - w), written out in real arithmetic.  The
    direction enters through tau = tan(theta/2), which NumPy evaluates
    several times faster than cos and sin.
    """
    x0, y0 = np.real(z0c), np.imag(z0c)
    # Each array below is fresh and updated in place (a scalar is simply
    # rebound), with the operands and order of the plain formula.
    m = np.tanh(0.5 * r)
    tau = np.tan(0.5 * theta)
    den = tau * tau
    a = 1.0 - den
    den += 1.0  # 1 + tau^2
    a *= m
    a /= den  # Re w = m cos(theta)
    im = 1.0 - m
    im *= y0
    im *= 1.0 + m  # y0 (1 - m)(1 + m)
    b = m
    b *= 2.0
    b *= tau
    b /= den  # Im w = m sin(theta)
    # q = |1 - w|^2 = (a - 1)(a - 1) + b b, where (a - 1)^2 is (1 - a)^2
    # to the bit; products, not ** 2, which NumPy rounds differently on
    # 0-d input
    q = a
    q -= 1.0
    q *= q
    q += b * b
    b *= 2.0 * y0
    b /= q
    out = np.empty(np.shape(b), dtype=complex)
    np.subtract(x0, b, out=out.real)
    np.divide(im, q, out=out.imag)
    return out


def _radial_icdf(u, R: float):
    """Distances from the centre of uniform (hyperbolic-area) points of a
    ball of radius R, from u uniform on [0, 1): the area within rho is
    2 pi (cosh rho - 1), so rho = arccosh(1 + u (cosh R - 1))."""
    return np.arccosh(1.0 + u * (math.cosh(R) - 1.0))


_SAMPLE_BLOCK = 1 << 16

_POOL_PREFIX = "hyplab-block"
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child has none of its parent's threads: start afresh
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _threads() -> int:
    """The number of cores this process may run on: the size of the
    block pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _blockwise(fn, n: int, step: int = _SAMPLE_BLOCK) -> None:
    """Call fn(slice(j, j + step)) for every block of range(n).

    With two or more blocks and two or more usable cores, the blocks run
    on one process-wide pool of ``_threads()`` threads, created on first
    use; NumPy releases the GIL inside its array loops.  Otherwise, and
    inside a block (a nested call), they run inline in order.  fn must
    write only its own slice.  The first exception raised by a block, in
    block order, reaches the caller unchanged, and no block is still
    running when the call returns or raises."""
    global _pool
    blocks = [slice(j, j + step) for j in range(0, n, step)]
    if (len(blocks) < 2 or _threads() < 2
            or threading.current_thread().name.startswith(_POOL_PREFIX)):
        for blk in blocks:
            fn(blk)
        return
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_threads(),
                                       thread_name_prefix=_POOL_PREFIX)
    futures = [_pool.submit(fn, blk) for blk in blocks]
    try:
        for fut in futures:
            fut.result()
    finally:
        for fut in futures:
            fut.cancel()
        wait(futures)


def _blockmap(fn, n: int, width: int = 1, dtype=float) -> np.ndarray:
    """fn(blk) for ``_blockwise``'s blocks of range(n), written into one
    array of n values of the given dtype.  A block holds
    max(1, _SAMPLE_BLOCK // width) items, so a block whose temporaries
    are width values per item stays near _SAMPLE_BLOCK values."""
    out = np.empty(n, dtype=dtype)

    def block(blk):
        out[blk] = fn(blk)

    _blockwise(block, n, max(1, _SAMPLE_BLOCK // max(width, 1)))
    return out


def _ball_map(z0: Point, r: float, n: int, seed: int, fn,
              dtype=float) -> np.ndarray:
    """fn(points) for ``_blockmap``'s blocks of n uniform points of
    B(z0, r), as one array of the given dtype.  The points come from the
    one stream of ``default_rng(seed)``, all n area-law variates first,
    then all n angles.  A float64 draw takes one PCG64 step, so the block
    of items j..j+m-1 draws its own slices of that stream by jump-ahead,
    on whichever thread runs it: its radii after ``advance(j)``, its
    angles after ``advance(n + j)``.  No n-point draw is held."""
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if n < 1:
        raise ValueError("need at least one sample")
    seq = np.random.SeedSequence(seed)
    z0c = z0.as_complex

    def block(blk):
        m = min(blk.stop, n) - blk.start
        bits = np.random.PCG64(seq).advance(blk.start)
        rng = np.random.Generator(bits)
        rho = _radial_icdf(rng.random(m), r)
        bits.advance(n - m)
        theta = rng.random(m)
        theta *= TWO_PI
        return fn(_polar_batch(z0c, theta, rho))

    # blocks keep the temporaries small enough to be reused, not faulted in
    return _blockmap(block, n, dtype=dtype)


def sample_ball_complex(z0: Point, r: float, n: int, seed: int) -> np.ndarray:
    """n i.i.d. points of the uniform (hyperbolic-area) measure on the
    ball B(z0, r), as a complex array; reproducible for a fixed seed."""
    return _ball_map(z0, r, n, seed, lambda pts: pts, complex)
