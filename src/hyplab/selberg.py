"""The Selberg transform pair for radial kernels on the hyperbolic
plane: Abel transform, forward Fourier step, band-limited inversion, the
heat kernel, and a spherical-function oracle.

Conventions
-----------
The Abel transform of a radial kernel k is

    g(u) = sqrt(2) * Integral_{|u|}^{inf} k(rho) sinh(rho)
           / sqrt(cosh rho - cosh u) d rho,

and the transform of k is the Fourier transform h(s) = Integral
e^{isu} g(u) du.  The inverse runs through g'(u) and

    k(rho) = -(1 / (sqrt(2) pi)) * Integral_{rho}^{inf}
             g'(u) / sqrt(cosh u - cosh rho) du.

With this normalization the radial averaging operator with kernel k
acts on a Laplace eigenfunction with eigenvalue 1/4 + s^2 as
multiplication by h(s); that identity is this module's central test
oracle.  Both directions are one singular integral, A[f](x) =
Integral_x^S f(y) sinh(y) / sqrt(cosh y - cosh x) dy, with g = sqrt(2) A[k]
and k = -A[g' / sinh] / (sqrt(2) pi); ``_abel_gl`` is its one quadrature
rule, analytic after cosh y = cosh x + v^2, and ``_checked`` compares
each result with a rule with more nodes.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from .errors import QuadratureFailure, BandTooSmall, OdeFailure
from .geom import _blockmap


@dataclass
class RadialKernel:
    """A radial kernel rho -> k(rho), compactly supported; ``eval`` maps
    an array of radii to an array of values.  Kernels may jump at the
    support edge (e.g. the disc indicator); quadrature splits there."""

    eval: callable
    support: float

    def __call__(self, rho):
        return self.eval(rho)


@dataclass
class SpectralFunction:
    """An even multiplier s -> h(s) on the spectral axis."""

    eval: callable

    def __call__(self, s):
        return self.eval(s)


class _Spline:
    """SciPy's CubicSpline through (x, y), evaluated by arithmetic index:
    the one spline of the module.  The knots must be uniform past the
    first (a linspace, or a 0 node before one); x and the coefficients
    c are read-only, so a cached spline cannot be changed by a caller.
    Values agree with CubicSpline's bit for bit, extrapolation and NaN
    included."""

    def __init__(self, x, y):
        spline = CubicSpline(x, y)
        self.x, self.c = _frozen(spline.x, spline.c)
        steps = np.diff(self.x[1:])
        if np.any(np.abs(steps - steps.mean()) > 1e-9 * steps.mean()):
            raise ValueError("knots past the first must be uniform")

    def __call__(self, r):
        # Past the first node the knots are uniform, so the interval
        # index comes from arithmetic, not a binary search; one step
        # against the knots themselves then gives CubicSpline's rule
        # x[i] <= r < x[i+1], and the polynomial is summed in
        # CubicSpline's order, so the values agree bit for bit.  Fresh
        # arrays are updated in place; r is never written.
        r = np.asarray(r, dtype=float)
        x, c = self.x, self.c
        last = len(x) - 2
        k = r - x[1]
        k *= last / (x[-1] - x[1])
        i = np.fmin(np.fmax(np.floor(k), -1.0), last - 1.0).astype(np.intp)
        i += 1
        xi = x.take(i)
        down = r < xi
        down &= i > 0
        # both steps test the first index: a point that steps down lies
        # below x[i] < x[i+1], so it never steps up
        up = r >= x[1:].take(i)
        up &= i < last
        if down.any() or up.any():
            i -= down
            i += up
            xi = x.take(i)
        s = r - xi
        s2 = s * s
        out = c[2].take(i)
        out *= s
        out += c[3].take(i)
        term = c[1].take(i)
        term *= s2
        out += term
        s2 *= s
        term = c[0].take(i)
        term *= s2
        out += term
        return out


@dataclass
class SphericalOracle:
    """Tabulated radial Laplace eigenfunction phi_s with phi_s(0) = 1 and
    eigenvalue 1/4 + s^2; evaluation by cubic interpolation."""

    s: float
    _spline: _Spline = field(repr=False)

    def __call__(self, r):
        return self._spline(r)


def _quad(fn, a, b, where: str, epsabs=1e-12, epsrel=1e-10, limit=400):
    """Integral_a^b fn by adaptive QUADPACK, the toolkit's one ``quad``
    call; QuadratureFailure, naming the integral ``where``, when its
    error estimate exceeds max(1e-11, 1e-9 |value|)."""
    val, err = integrate.quad(fn, a, b, epsabs=epsabs, epsrel=epsrel,
                              limit=limit)
    budget = max(1e-11, 1e-9 * abs(val))
    if err > budget:
        raise QuadratureFailure(f"{where} quadrature error estimate "
                                f"{err:.2e} exceeds budget {budget:.2e}")
    return val


def _checked(val, ref, atol: float, rtol: float, where):
    """ref, once it agrees with val, the same quantity by a rule with
    fewer nodes, within max(atol, rtol |ref|); QuadratureFailure
    otherwise.  For 1-D arrays, entry by entry; ``where`` then maps the
    index of the first entry that disagrees to the integral's name."""
    if np.ndim(ref):
        bad = np.abs(val - ref) > np.maximum(atol, rtol * np.abs(ref))
        if bad.any():
            i = int(np.argmax(bad))
            _checked(val[i], ref[i], atol, rtol, where(i))
        return ref
    if abs(val - ref) > max(atol, rtol * abs(ref)):
        raise QuadratureFailure(f"{where} quadrature not converged: the "
                                f"two rules differ by {val - ref:.2e}")
    return ref


def abel_transform(k: RadialKernel, u: float) -> float:
    """g(u) for the kernel k; even in u, zero for |u| >= support."""
    u = abs(float(u))
    S = k.support
    if u >= S:
        return 0.0
    val, ref = (_abel_gl(k.eval, S, u, 48, 24, n) for n in (1.0, 2.0))
    return math.sqrt(2.0) * _checked(val, ref, 1e-11, 1e-9,
                                     f"Abel transform at u={u}")


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


# since import: rules read from the table, rules computed, seconds spent
_gl_counts = {"table_rules": 0, "computed_rules": 0, "computed_s": 0.0}
_gl_lock = threading.Lock()


@functools.cache
def _gl_table():
    """data/gauss_legendre.npy, read-only: ``_gauss_legendre(n)`` for
    n = 1, ..., 256 in columns n(n - 1)/2 up to n(n + 1)/2.  Made, from
    the root of the source tree, by

    python -c "import numpy as np; from scipy.special import roots_legendre as r; np.save('src/hyplab/data/gauss_legendre.npy', np.hstack([np.stack([0.5 * (x + 1.0), 0.5 * w]) for x, w in map(r, range(1, 257))]))"
    """
    with resources.files("hyplab.data").joinpath(
            "gauss_legendre.npy").open("rb") as fh:
        return _frozen(np.load(fh, allow_pickle=False))[0]


@functools.lru_cache(maxsize=256)
def _gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule on [0, 1], 0.5 * (x + 1) and 0.5 * w
    for SciPy's roots_legendre(n) = (x, w): the toolkit's one source of
    quadrature nodes, read bit for bit from ``_gl_table`` up to 256 nodes
    and computed beyond.  Cached; the arrays are read-only."""
    if 0 < n <= 256:
        with _gl_lock:
            _gl_counts["table_rules"] += 1
        return tuple(_gl_table()[:, n * (n - 1) // 2:n * (n + 1) // 2])
    from scipy.special import roots_legendre
    t0 = time.perf_counter()
    x, w = roots_legendre(n)
    with _gl_lock:
        _gl_counts["computed_rules"] += 1
        _gl_counts["computed_s"] += time.perf_counter() - t0
    return _frozen(0.5 * (x + 1.0), 0.5 * w)


def _gl(n: int):
    """Quadrature nodes and weights on [0, 1] with >= n nodes: the plain
    n-node Gauss-Legendre rule up to the table's 256 nodes, composite
    64-node panels beyond, so that no rule of ``_gl`` is computed."""
    if n <= 256:
        return _gauss_legendre(n)
    return _panels(-(-n // 64))


@functools.lru_cache(maxsize=256)
def _panels(m: int):
    """The composite rule of m 64-node Gauss-Legendre panels on [0, 1];
    cached by panel count, so every n that rounds up to m shares it."""
    x0, w0 = _gauss_legendre(64)
    x = ((x0[None, :] + np.arange(m)[:, None]) / m).ravel()
    return _frozen(x, np.tile(w0 / m, m))


def _abel_gl(f, S: float, x, near: float, density: float,
             n_scale: float = 1.0):
    """A[f](x) at every entry of x (x <= S; a float for a scalar x) for
    an array function f by fixed Gauss-Legendre rules: up to
    y = x + 1 in v, where the integrand is 2 f(y), with
    int(near * n_scale) nodes; beyond, in y with at most 16384 and
    int(max(64, density * length) * n_scale) nodes.

    Each x keeps its own prologue in ``math``, its own node counts and
    its own dot products, so its value does not depend on the other
    entries; f is called once per block of entries and rule, on
    ``geom._blockmap``'s blocks, sized by the largest node count.  f
    may therefore run on several threads at once."""
    xs = np.asarray(x, dtype=float)
    if xs.size == 0:
        return np.zeros(xs.shape)
    prologue = []
    for xi in xs.ravel().tolist():
        cx = math.cosh(xi)
        split = min(xi + 1.0, S)
        n_far = (min(16384, int(max(64, density * (S - split)) * n_scale))
                 if split < S else 0)
        prologue.append((cx, split, math.sqrt(math.cosh(split) - cx),
                         n_far))
    cx, split, v_split, n_far = (np.array(col) for col in zip(*prologue))
    length = S - split
    nodes, wts = _gl(int(near * n_scale))

    def block(blk):
        v = v_split[blk, None] * nodes
        fy = f(np.arccosh(cx[blk, None] + v * v).ravel()).reshape(v.shape)
        # scaling by 2 is exact, so where the factor 2 goes changes no bit
        total = 2.0 * v_split[blk] * np.array([wts @ row for row in fy])
        far = np.flatnonzero(n_far[blk])
        if far.size:
            # the far rules of the block, one after another in y
            rules = [_gl(m) for m in n_far[blk][far].tolist()]
            n = [len(w) for _, w in rules]
            at = np.repeat(np.arange(far.size), n)
            lo, span = split[blk][far], length[blk][far]
            y = lo[at] + span[at] * np.concatenate([r[0] for r in rules])
            vals = f(y) * np.sinh(y) / np.sqrt(np.cosh(y) - cx[blk][far][at])
            ends = np.cumsum(n).tolist()
            total[far] += span * np.array([
                w @ vals[end - len(w):end] for (_, w), end in zip(rules, ends)])
        return total

    width = max(len(nodes), int(n_far.max()))
    out = _blockmap(block, len(prologue), width).reshape(xs.shape)
    return float(out) if out.ndim == 0 else out


def selberg_forward(k: RadialKernel,
                    error_budget: float = 1e-9) -> SpectralFunction:
    """The multiplier h with h(s) = Integral e^{isu} g(u) du, where g is
    the Abel transform of k.

    g vanishes like sqrt(S - u) at the support edge S, so it is cached
    as a spline in the edge variable w = sqrt(S - u), in which it is
    smooth.  All quadratures are fixed Gauss-Legendre rules sized to the
    support and the requested frequency, with a node-doubling
    self-check against ``error_budget`` (QuadratureFailure on
    disagreement); this stays fast for the large-support ringing
    kernels produced by band-limited inversion of jump multipliers.
    """
    S = k.support
    # Pre-spline the kernel so quadratures do not re-trigger expensive
    # kernel evaluations (inverse-produced kernels integrate per call);
    # a cubic spline at this density is exact to ~1e-12 for the smooth
    # and piecewise-constant kernels in scope.
    k_grid = np.linspace(0.0, S, max(4001, int(100 * S) + 1))
    k_spline = _Spline(k_grid, np.asarray(k.eval(k_grid), dtype=float))
    # the uniform w-grid is coarsest in u near u = 0 (du = 2S/N there);
    # scale the cache so ringing of period ~2 pi/band is still resolved
    cache_points = max(800, int(52 * S))
    w_grid = np.linspace(0.0, math.sqrt(S), cache_points)
    g_vals = math.sqrt(2.0) * _abel_gl(k_spline, S, S - w_grid * w_grid, 48,
                                       24)
    # node-doubling check on a subsample of the grid
    w_sub = w_grid[:: max(1, cache_points // 16)]
    ref = math.sqrt(2.0) * _abel_gl(k_spline, S, S - w_sub * w_sub, 48, 24,
                                    2.0)
    _checked(g_vals[:: max(1, cache_points // 16)], ref, error_budget, 1e-9,
             lambda i: f"Abel transform at u={S - w_sub[i] ** 2:.3f}")
    g_edge = _Spline(w_grid, g_vals)

    @functools.lru_cache(maxsize=64)
    def _rule(n):
        # the parts of the n-node rule that do not depend on s
        x, wts = _gl(n)
        w = math.sqrt(S) * x
        return (wts, *_frozen(w, S - w * w, g_edge(w)))

    def _h_gl(s, n):
        wts, w, u, g = _rule(n)
        vals = np.cos(s * u) * g * 4.0 * w
        return math.sqrt(S) * float(wts @ vals)

    def h(s):
        s = abs(float(s))
        # h(s) = 2 Int_0^S cos(su) g(u) du,  u = S - w^2
        cycles = s * S / (2.0 * math.pi)
        # resolve both the cos(su) oscillation and anything the g
        # spline itself can represent (ringing inverse kernels)
        n = min(16384, max(256, 4 * cache_points, int(32 * cycles) + 64))
        return _checked(_h_gl(s, n), _h_gl(s, min(16384, 2 * n)),
                        error_budget, 1e-9, f"multiplier at s={s}")

    return SpectralFunction(eval=h)


def _spectral_taper(s: np.ndarray, band: float) -> np.ndarray:
    """A C^inf rolloff: 1 on |s| <= band/2, 0 at |s| = band, built from
    the standard exp(-1/x) smooth-step."""
    x = np.clip((np.abs(s) - 0.5 * band) / (0.5 * band), 1e-12, 1 - 1e-12)

    def f(y):
        return np.exp(-1.0 / y)

    return f(1.0 - x) / (f(x) + f(1.0 - x))


def selberg_inverse(h: SpectralFunction, band: float,
                    roundtrip_check: bool = True) -> RadialKernel:
    """The radial kernel whose transform is h, computed from the
    band-limited inverse Fourier integral with a smooth spectral taper
    on band/2 <= |s| <= band.

    The taper leaves h untouched on |s| <= band/2 (the domain of the
    round-trip guarantee) while making the reconstructed pair function
    decay rapidly in u; a hard cutoff would instead ring with a
    non-integrable Abel tail for slowly decaying multipliers.  The
    result is checked by a forward round-trip on |s| <= band/2 at sup
    tolerance 1e-5 (BandTooSmall on failure).  g'(u) is computed by
    differentiating under the integral sign and cached as a spline of
    the regularized ratio g'(u)/sinh(u).
    """
    if band <= 0.0:
        raise ValueError("band must be positive")
    u_cap = 40.0
    n_nodes = max(512, int(2.0 * band * u_cap))
    # a single rule: composite panels shift heat-kernel outputs by > 1e-8
    x, w = _gauss_legendre(n_nodes)
    s_nodes, s_wts = band * x, band * w
    h_vals = (np.array([h.eval(s) for s in s_nodes])
              * _spectral_taper(s_nodes, band))

    def g_of(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return (np.cos(np.outer(u, s_nodes)) @ (s_wts * h_vals)) / math.pi

    def gprime_of(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return -(np.sin(np.outer(u, s_nodes))
                 @ (s_wts * s_nodes * h_vals)) / math.pi

    # truncate where g and g' fall to the band-limited noise floor
    coarse = np.linspace(0.0, u_cap, 801)
    mags = np.abs(g_of(coarse)) + np.abs(gprime_of(coarse))
    scale = float(mags.max())
    keep = np.nonzero(mags > 1e-12 * scale)[0]
    u_max = min(u_cap, coarse[keep[-1]] + 0.1) if len(keep) else 1.0

    # spline of q(u) = g'(u)/sinh(u); q(0) = g''(0) by parity of g
    u_grid = np.linspace(0.0, u_max, 2001)
    q_vals = np.empty_like(u_grid)
    q_vals[1:] = gprime_of(u_grid[1:]) / np.sinh(u_grid[1:])
    q_vals[0] = float(-(s_wts * s_nodes ** 2 * h_vals).sum() / math.pi)
    q_spline = _Spline(u_grid, q_vals)

    def k_eval(rho):
        rho = np.abs(np.asarray(rho, dtype=float))
        out = np.zeros(rho.shape)
        inside = ~(rho >= u_max)  # NaN stays NaN
        # nodes sized to the band's ringing period
        val, ref = (-_abel_gl(q_spline, u_max, rho[inside], max(48, 3 * band),
                              3 * band, n) / (math.sqrt(2.0) * math.pi)
                    for n in (1.0, 1.5))
        out[inside] = _checked(
            val, ref, 1e-6, 1e-7,
            lambda i: f"inverse kernel at rho={rho[inside][i]}")
        return out

    kernel = RadialKernel(eval=k_eval, support=u_max)

    if roundtrip_check:
        fwd = selberg_forward(kernel, error_budget=1e-6)
        s_chk = np.linspace(0.0, 0.5 * band, 17)
        errs = [abs(fwd.eval(s) - h.eval(s)) for s in s_chk]
        if max(errs) > 1e-5:
            raise BandTooSmall(
                f"forward round-trip sup error {max(errs):.2e} > 1e-5 on "
                f"|s| <= {band / 2}; increase the band limit")
    return kernel


def disc_kernel(t: float) -> RadialKernel:
    """The renormalized disc indicator k_t = 1_{rho <= t} / sqrt(cosh t):
    the kernel of the disc-averaging propagator."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    c = 1.0 / math.sqrt(math.cosh(t))

    def k(rho):
        return np.where(np.asarray(rho) <= t, c, 0.0)

    return RadialKernel(eval=k, support=t)


def heat_multiplier(t: float) -> SpectralFunction:
    """h_t(s) = exp(-t (1/4 + s^2)), the heat semigroup multiplier."""
    return SpectralFunction(eval=lambda s: math.exp(-t * (0.25 + s * s)))


# t -> (spline, rho_max); insertion-ordered, so the oldest entry is
# evicted first once _HEAT_CACHE_SIZE profiles are held
_heat_cache: dict = {}
_HEAT_CACHE_SIZE = 32


def _heat_profile(t: float):
    """Cached dense spline of the heat kernel p_t together with its
    effective support; built once per t."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    key = float(t)
    if key in _heat_cache:
        return _heat_cache[key]
    # untapered half-band where the multiplier reaches ~1e-20 relative
    # to its peak (the inversion tapers on the outer half of the band)
    band = 2.0 * (math.sqrt(46.0 / t) + 1.0)
    kern = selberg_inverse(heat_multiplier(t), band, roundtrip_check=False)
    rho_max = min(kern.support, math.sqrt(4.0 * t * 46.0) + 1.0)
    grid = np.linspace(0.0, rho_max, 3001)
    spline = _Spline(grid, kern.eval(grid))
    if len(_heat_cache) >= _HEAT_CACHE_SIZE:
        del _heat_cache[next(iter(_heat_cache))]
    _heat_cache[key] = (spline, rho_max)
    return _heat_cache[key]


def heat_kernel(t: float, rho) -> float:
    """p_t(rho): the radial heat kernel at time t (selberg_inverse of
    the heat multiplier, cached per t), zero beyond its support."""
    spline, rho_max = _heat_profile(t)
    rho_arr = np.asarray(rho, dtype=float)
    out = np.where(np.abs(rho_arr) <= rho_max, spline(np.abs(rho_arr)), 0.0)
    if np.ndim(rho) == 0:
        return float(out)
    return out


def heat_kernel_mass(t: float) -> float:
    """Total mass 2 pi Integral_0^inf p_t(rho) sinh(rho) d rho; equals 1
    for the exact heat kernel."""
    spline, rho_max = _heat_profile(t)
    val = _quad(lambda rho: spline(rho) * math.sinh(rho), 0.0, rho_max,
                f"heat kernel mass at t={t}", limit=800)
    return 2.0 * math.pi * val


def heat_bound_constant(t: float) -> float:
    """The smallest C with p_t(rho) <= C e^{-rho^2} on a dense grid of
    [0, 6].

    The Gaussian comparison rate is 1 while the kernel's own far-field
    rate is 1/(4t), so for t > 1/4 no finite C works on all of
    [0, inf); the constant is therefore fitted (and only valid) on the
    stated range.
    """
    spline, rho_max = _heat_profile(t)
    grid = np.linspace(0.0, min(6.0, rho_max), 4001)
    return float(np.max(spline(grid) * np.exp(grid ** 2)))


def spherical_oracle(s: float, r_max: float) -> SphericalOracle:
    """The radial Laplace eigenfunction phi_s on [0, r_max]:
    phi'' + coth(r) phi' + (1/4 + s^2) phi = 0, phi(0) = 1.

    Built by a series start near 0 plus high-order adaptive ODE
    integration; validated against the first-integral identity
    phi'(r) = -(lambda / sinh r) * Integral_0^r phi sinh(rho) d rho
    (OdeFailure if its residual exceeds 1e-8).
    """
    if r_max > 12.0:
        raise ValueError("r_max must be <= 12 (numerical range)")
    from scipy.integrate import solve_ivp

    lam = 0.25 + s * s
    r0 = 1e-3
    a2 = -lam / 4.0
    a4 = lam / 64.0 * (2.0 / 3.0 + lam)
    phi0 = 1.0 + a2 * r0 ** 2 + a4 * r0 ** 4
    dphi0 = 2.0 * a2 * r0 + 4.0 * a4 * r0 ** 3

    def rhs(r, y):
        return [y[1], -1.0 / math.tanh(r) * y[1] - lam * y[0]]

    grid = np.linspace(r0, r_max, 4001)
    sol = solve_ivp(rhs, (r0, r_max), [phi0, dphi0], method="DOP853",
                    t_eval=grid, rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise OdeFailure(f"radial ODE integration failed: {sol.message}")

    r_full = np.concatenate(([0.0], grid))
    phi_full = np.concatenate(([1.0], sol.y[0]))
    dphi_full = np.concatenate(([0.0], sol.y[1]))

    # residual via the first-integral identity (cumulative Simpson)
    from scipy.integrate import cumulative_simpson
    integrand = phi_full * np.sinh(r_full)
    cumint = cumulative_simpson(integrand, x=r_full, initial=0.0)
    resid = np.abs(dphi_full[1:] + lam * cumint[1:] / np.sinh(r_full[1:]))
    max_resid = float(resid.max())
    if max_resid > 1e-8:
        raise OdeFailure(
            f"first-integral residual {max_resid:.2e} exceeds tolerance "
            "1.00e-08")
    return SphericalOracle(s=float(s), _spline=_Spline(r_full, phi_full))
