"""Finitely generated cocompact Fuchsian groups: ball enumeration over
words, the exact Dirichlet domain and reduction to it, injectivity
radius, systole and thin-part statistics.

Enumeration is breadth-first over reduced words in the side pairings of
the Dirichlet domain D at the base point z0, one word length (level) at
a time, on (N, 4) arrays of matrix entries.  Each level multiplies every
frontier element by every letter that does not cancel its last letter,
renormalizes the products with ``geom._canonical_batch`` and prunes a
product once it moves z0 further than R (plus 1e-9 for rounding), which
finds the whole ball (proved below).  A surviving product is a
duplicate, and is dropped, when it lies within ``_DEDUP_TOL`` in every
entry of an element kept at a shorter length or of an earlier product of
its level in (prefix, letter) order.  This can mislabel nearly-parabolic
inputs, which do not occur for the cocompact groups targeted here.  Each
side letter carries its word in the doubled generators (the generators,
then their inverses), and a ball's words are spelled in those.  The ball
about any other point z is the ball about z0 of radius R + 2 d(z0, z),
filtered to d(z, gamma z) <= R, as
d(z0, gamma z0) <= d(z0, z) + d(z, gamma z) + d(gamma z, gamma z0).

The Dirichlet domain D = {z : d(z0, z) < d(z0, gamma z), gamma != id}
is star-shaped about z0: with gamma z0 at polar coordinates
(theta_g, d_g), the bisector of z0 and gamma z0 lies at
rho = artanh(tanh(d_g/2) / cos(theta - theta_g)) where that cosine
exceeds tanh(d_g/2), and the boundary of D is the min over gamma
(Beardon, The Geometry of Discrete Groups, sec. 9.4; Katok, Fuchsian
Groups, ch. 3).  ``dirichlet_domain`` splits the circle at the pairwise
crossings of these curves and sums the exact arc areas
Integral (cosh rho - 1) dtheta = [arcsin(cosh(d_g/2) sin phi) - phi],
phi = theta - theta_g; its radius c is the largest rho, reached at an
arc end because rho grows with |phi|.
Certification by Poincare's polygon theorem (Beardon, The Geometry of
Discrete Groups, sec. 9.8; Maskit, Adv. Math. 7, 1971).  Any set of
elements cuts out a convex polygon P containing D.  Suppose P is
bounded, the element of each side maps the side of its inverse onto it
(vertices matching within 1e-9), and the angles of every vertex cycle
sum to 2 pi / m for an integer m.  Then P is a fundamental domain of the
group Gamma' that its side pairings generate, hence the Dirichlet domain
of Gamma' at z0, which lies in P and is a fundamental domain too.  The
side walk below takes g z0 and g w (w at distance 1 from z0) to h g z0
and h g w with h in Gamma'; if they land within 1e-9 of z0 and w, h g
fixes two points, so g = h^-1.  If every generator g so reduces, Gamma'
is the whole group and D = P.
``_domain`` tries the polygon of the doubled generators, then those of
the doubled generators, the ball pruned at R in generator letters and
the inverses of its elements, for R = 1, 2, 3, ... (``_polygon`` builds
each by convex-hull duality); no candidate needs a proof, as the theorem
judges it.  It stops with ValueError, naming the last candidate's
failure, once ``_CANDIDATE_BUDGET`` candidates are spent or the word cap
truncates a ball.  A one-generator group's D is a strip (below), with no
vertex to check; it is truncated to B(z0, 3) by capping rho at 3.

Membership (``dirichlet_mask``) tests z against the sides of D only: the
elements whose bisectors bound it.  A
compact D is a convex polygon, so it is the intersection of the
half-planes H_g = {z : d(z, z0) < d(z, g z0)} of its sides (a set closed
under inversion, as g maps the side on the bisector of z0 and g^-1 z0
onto the one of g).  For a one-generator group, whose D is a strip,
D = H_g cap H_{g^-1}: in Fermi coordinates about the axis of g,
n -> cosh d(z, g^n z0) = A cosh(n ell + s) + B with A > 0 is convex in
n, so if n = 0 beats n = 1 and n = -1 it beats every n != 0.  The
sides are then exactly g and g^-1, so one path serves both.

Pruning at R.  Let z0 be fixed by no nontrivial element and
gamma != id.  Then w = gamma z0 has d(w, gamma z0) = 0 < d(w, z0), so
w lies outside the closed half-plane of gamma and hence outside the
closure of D.  For a compact D that closure is the intersection of the
closed half-planes of its sides (the open ones meet in D, which is
nonempty, and the closure of an intersection of convex sets with a
common interior point is the intersection of their closures).  For the
strip, if n = 0 were no worse than n = 1 and n = -1 in the convex
n -> cosh d(w, g^n z0) above, it would beat every n != 0, whereas
n = k with gamma = g^k gives 1.  Either way some side s has
d(w, s z0) < d(w, z0), that is d(z0, s^-1 gamma z0) < d(z0, gamma z0).
Applied to gamma^-1, some side t has d(z0, gamma t z0) < d(z0, gamma z0).
The letters are the sides, which come in inverse pairs, so t^-1 is one
too.  Induct on d(z0, gamma z0) <= R, which takes finitely many values
as the group is discrete: gamma' = gamma t moves z0 less, so it was
kept (the identity is the root), and the search extends it by t^-1
unless its word ends in t, in which case gamma is its parent and was
kept before.  The product gamma is not pruned, so it is kept unless it
duplicates a kept element: every gamma of the ball is found before the
word cap, or the frontier is still open there and the ball is flagged
truncated.  Pruning and membership are one test of the computed
displacement against R + 1e-9, so rounding can only drop an element
whose displacement lies within rounding of that bound.  The lemma also
shows that the sides generate the group (Beardon, The Geometry of
Discrete Groups, ch. 9; Katok, Fuchsian Groups, ch. 4).

The side walk (``_reduce``, which ``reduce_to_domain`` runs): while
some side s brings a point z closer to z0, move z by the side that
brings it closest, the first on ties.  It ends, as it strictly decreases
d(z0, z) over a discrete orbit, and only in the closed D: for z outside
it, the lemma's argument (for the strip, the convexity argument) gives
a side s with d(z, s z0) < d(z, z0), so s^-1 brings z closer.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

import numpy as np

from .errors import EnumerationTruncated
from .geom import (Point, MobiusElement, TWO_PI, _SAMPLE_BLOCK, _blockmap,
                   _blockwise, _canonical_batch, _disc_chart, _dist_c,
                   _mobius_batch, _polar_batch, mobius_apply, polar_to,
                   sample_ball_complex)

# Duplicate words for one group element agree only up to accumulated
# floating-point error (~1e-9 for entries of size e^{R/2} at word length
# ~30), while distinct elements of a discrete cocompact group are
# separated by far more than 1e-6 (else their quotient would displace
# the base point by less than the systole).  1e-6 splits the difference.
_DEDUP_TOL = 1e-6

# Candidates (products tried) that the search for D may spend on its
# balls before it gives up.  A cocompact group's balls grow about e-fold
# per unit of radius, so the search holds a few times this many at most.
_CANDIDATE_BUDGET = 20_000


@dataclass(frozen=True)
class GroupSpec:
    """A Fuchsian group given by generator matrices plus enumeration
    controls.  Generator inverses are synthesized; they need not be
    listed.  The Dirichlet domain at ``base_point``, its area and the
    radius of the ball about base_point that covers it are computed from
    the generators by ``dirichlet_domain``."""

    generators: tuple
    name: str = "unnamed"
    max_word_length: int = 10
    base_point: Point = field(default_factory=lambda: Point(0.0, 1.0))

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.max_word_length < 1:
            raise ValueError("max_word_length must be >= 1")
        if not self.generators:
            raise ValueError("need at least one generator")


@dataclass(frozen=True)
class EnumerationStats:
    """Work done by one ball enumeration.  Every candidate (a reduced
    word one letter longer than a kept element) is pruned, dropped as a
    duplicate or kept; kept elements form the next frontier."""

    levels: int
    candidates: int
    pruned: int
    duplicates: int
    frontier_peak: int
    kept: int


@dataclass(frozen=True)
class GroupBall:
    """Nontrivial group elements displacing the center by at most
    ``radius``, together with the words that produced them (indices into
    the doubled generator list: generators first, then inverses).
    Immutable, because balls are cached and shared between callers."""

    elements: tuple  # tuple of (MobiusElement, word)
    radius: float
    center: Point
    truncated: bool = False
    stats: EnumerationStats | None = field(default=None, compare=False)

    def __len__(self):
        return len(self.elements)

    def matrices(self) -> np.ndarray:
        return np.array([g.entries for g, _ in self.elements]).reshape(-1, 4)

    def displacements(self) -> np.ndarray:
        return _displacement(self.matrices(), [self.center.as_complex])[:, 0]


def load_group(path) -> GroupSpec:
    """Read a group spec from JSON: {name, generators, base_point,
    max_word_length}; other keys are ignored."""
    with open(path) as fh:
        doc = json.load(fh)
    return _group_from_dict(doc)


def _group_from_dict(doc) -> GroupSpec:
    if not isinstance(doc, dict):
        raise ValueError("group JSON must be an object")
    try:
        gens = tuple(MobiusElement(*_generator_entries(row))
                     for row in doc["generators"])
        bx, by = doc["base_point"]
        return GroupSpec(
            generators=gens,
            name=doc.get("name", "unnamed"),
            max_word_length=int(doc["max_word_length"]),
            base_point=Point(bx, by),
        )
    except KeyError as exc:
        raise ValueError(f"group JSON has no field {exc}") from None


def _generator_entries(row) -> np.ndarray:
    """The entries a, b, c, d of a generator given as [[a, b], [c, d]];
    ValueError for anything but a 2x2 array of numbers."""
    try:
        m = np.asarray(row)
    except ValueError:  # ragged
        m = None
    if m is None or m.shape != (2, 2) or m.dtype.kind not in "iuf":
        raise ValueError(f"group generator {row!r} is not a 2x2 array of "
                         "numbers")
    return m.astype(float).ravel()


def builtin_group(name: str) -> GroupSpec:
    """Load one of the shipped groups: 'cyclic_L2' or 'bolza'."""
    try:
        text = resources.files("hyplab.data").joinpath(
            f"{name}.json").read_text()
    except FileNotFoundError:
        raise ValueError(f"no builtin group {name!r}; the builtins are "
                         "'cyclic_L2' and 'bolza'") from None
    return _group_from_dict(json.loads(text))


@functools.lru_cache(maxsize=64)
def _doubled_generators(G: GroupSpec):
    """The generators followed by their inverses, and for each letter
    the index of its inverse letter; cached per group."""
    gens = G.generators + tuple(g.inverse() for g in G.generators)
    n = len(G.generators)
    inv_index = tuple(k + n if k < n else k - n for k in range(2 * n))
    return gens, inv_index


# Prefixes multiplied out at once; bounds the (block * 2n, 4) temporaries.
_BLOCK = 4096


def _products(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise 2x2 products P[i] @ Q[i] of (N, 4) entry arrays, with
    the same operations as MobiusElement.__matmul__."""
    a, b, c, d = P.T
    e, f, g, h = Q.T
    return np.stack([a * e + b * g, a * f + b * h,
                     c * e + d * g, c * f + d * h], axis=1)


def _displacement(mats: np.ndarray, zc) -> np.ndarray:
    """d(z, gamma z) for every row gamma of mats and every complex point
    z of zc: an (N, M) array for N matrices and M points."""
    zc = np.asarray(zc)
    gz = _mobius_batch(mats, zc)
    return _dist_c(gz, np.broadcast_to(zc, gz.shape))


def _near_pairs(ref: np.ndarray, qry: np.ndarray) -> tuple:
    """Index pairs (i, j) with qry[i] within _DEDUP_TOL of ref[j] in
    every entry; ref must be sorted on its first column."""
    lo = np.searchsorted(ref[:, 0], qry[:, 0] - _DEDUP_TOL, "left")
    hi = np.searchsorted(ref[:, 0], qry[:, 0] + _DEDUP_TOL, "right")
    i = np.nonzero(lo < hi)[0]
    qi, rj = [i[:0]], [i[:0]]
    while len(i):  # step every open window [lo, hi) by one row
        j = lo[i]
        close = (np.abs(ref[j] - qry[i]) <= _DEDUP_TOL).all(axis=1)
        qi.append(i[close])
        rj.append(j[close])
        lo[i] += 1
        i = i[lo[i] < hi[i]]
    return np.concatenate(qi), np.concatenate(rj)


@functools.lru_cache(maxsize=256)
def _group_ball_cached(G: GroupSpec, z: Point, R: float) -> GroupBall:
    z0 = G.base_point
    if z == z0:
        return _enumerate(G, _domain(G).letters, R)
    # the ball about z0 holding this one (module docstring)
    far = _group_ball_cached(G, z0, _ball_radius(
        R + 2.0 * float(_dist_c(z0.as_complex, z.as_complex))))
    near = _displacement(far.matrices(), [z.as_complex])[:, 0] <= R + 1e-9
    return GroupBall(elements=tuple(e for e, ok in zip(far.elements, near)
                                    if ok),
                     radius=R, center=z, truncated=far.truncated,
                     stats=far.stats)


def _enumerate(G: GroupSpec, letters: tuple, R: float) -> GroupBall:
    """The ball of radius R about the base point z0 over reduced words in
    ``letters`` (elements, the index of each one's inverse, and each
    one's word in the doubled generators), pruned once a product moves
    z0 further than R + 1e-9 (module docstring)."""
    elements, inv_index, spelled = letters
    gmat = np.array([g.entries for g in elements])
    inv_index = np.array(inv_index)
    zc = [G.base_point.as_complex]

    frontier = np.array([MobiusElement.identity().entries])
    last = np.array([-1])  # last letter of each frontier word
    seen = frontier  # every kept element, sorted on entry a
    # per level: parent index, letter and entries of each kept element
    parents, steps, levels = [], [], []
    candidates = duplicates = kept = peak = 0
    for _depth in range(G.max_word_length):
        blocks = []
        for lo in range(0, len(frontier), _BLOCK):
            # reduced words only: skip the inverse of the last letter
            ii, kk = np.nonzero(last[lo:lo + _BLOCK, None] != inv_index)
            ii += lo
            cand = _canonical_batch(_products(frontier[ii], gmat[kk]))
            ok = _displacement(cand, zc)[:, 0] <= R + 1e-9  # prune first
            candidates += len(ok)
            blocks.append((cand[ok], ii[ok], kk[ok]))
        mats, par, let = map(np.concatenate, zip(*blocks))
        # Drop matches of earlier levels and of earlier products of this
        # level.  Unlike one-at-a-time insertion, this also drops a product
        # matching only an earlier dropped product; distinct elements lie
        # far apart, so such chains do not arise.
        order = np.argsort(mats[:, 0], kind="stable")
        srt = mats[order]
        dup = np.zeros(len(mats), dtype=bool)
        dup[order[_near_pairs(seen, srt)[0]]] = True
        i, j = _near_pairs(srt, srt)
        later = order[i] > order[j]
        dup[order[i[later]]] = True
        duplicates += int(dup.sum())
        new = ~dup
        frontier, last = mats[new], let[new]
        parents.append(par[new])
        steps.append(last)
        levels.append(frontier)
        kept += len(frontier)
        peak = max(peak, len(frontier))
        # timsort merges the two sorted runs in linear time
        seen = np.concatenate([seen, frontier])
        seen = seen[np.argsort(seen[:, 0], kind="stable")]
        if not len(frontier):
            break

    elements = []
    for level, ents in enumerate(levels):
        idx = np.arange(len(ents))
        words = np.empty((len(idx), level + 1), dtype=int)
        for pos in range(level, -1, -1):
            words[:, pos] = steps[pos][idx]
            idx = parents[pos][idx]
        elements += [(MobiusElement._raw(*e),
                      tuple(k for w in word for k in spelled[w]))
                     for e, word in zip(ents.tolist(), words.tolist())]
    stats = EnumerationStats(
        levels=len(parents), candidates=candidates,
        pruned=candidates - duplicates - kept, duplicates=duplicates,
        frontier_peak=peak, kept=kept)
    return GroupBall(elements=tuple(elements), radius=R, center=G.base_point,
                     truncated=bool(len(frontier)), stats=stats)


def _ball_radius(r: float) -> float:
    """r rounded up to a multiple of 0.5, with a 1e-6 margin for
    rounding, so that nearby queries share one cached enumeration."""
    return 0.5 * math.ceil(2.0 * (r + 1e-6))


def group_ball(G: GroupSpec, z: Point, R: float) -> GroupBall:
    """All nontrivial group elements gamma with d(z, gamma z) <= R that
    are reachable within the word-length cap.

    The search runs over words in the side pairings of the certified
    Dirichlet domain D at the base point z0 and prunes products once
    they move z0 further than R (plus 1e-9 for rounding), which the
    module docstring proves finds every such gamma.  About another
    point it filters the ball about z0 of radius R + 2 d(z0, z), rounded
    up to a multiple of 0.5.  Words are spelled in the doubled
    generators.

    Raises EnumerationTruncated (with the partial ball attached) when
    branches below the pruning threshold were still open at the cap,
    and ValueError, as from ``dirichlet_domain``, when D is not
    certified.
    """
    if not 0.0 < R < math.inf:
        raise ValueError("R must be positive and finite")
    ball = _group_ball_cached(G, z, float(R))
    if ball.truncated:
        raise EnumerationTruncated(
            f"word cap {G.max_word_length} reached with open branches; "
            f"the ball of radius {ball.radius} at {ball.center} may be "
            "incomplete", partial=ball)
    return ball


def min_displacement_batch(ball: GroupBall, zc: np.ndarray) -> np.ndarray:
    """Minimum over ball elements of d(z, gamma z) for an array of
    complex points (infinite for an empty ball); used by the thin-part
    estimator and the injectivity radius."""
    mats, zc = ball.matrices(), np.asarray(zc)
    # blocks of points keep the (len(ball), block) temporaries bounded
    return _blockmap(lambda blk: _displacement(mats, zc[blk]).min(
        axis=0, initial=np.inf), len(zc), len(mats))


def injectivity_radius(G: GroupSpec, z: Point, R_cap: float) -> float:
    """Half the minimal displacement of the group at z, searched within
    displacement R_cap.  Returns R_cap/2 when no element displaces z by
    at most R_cap (a capped lower bound)."""
    if R_cap <= 0.0:
        raise ValueError("R_cap must be positive")
    ball = group_ball(G, z, R_cap)
    if not ball.elements:
        return R_cap / 2.0
    return 0.5 * float(min_displacement_batch(ball, [z.as_complex])[0])


def reduce_to_domain(G: GroupSpec, zc: np.ndarray, companion=None):
    """Move each complex point z into the closed Dirichlet domain at the
    base point z0 by the side walk through D's sides (module docstring),
    which ends at a gamma z nearest z0.  Returns (gamma z, the same gamma
    applied to ``companion`` or None).  ValueError, as from
    ``dirichlet_domain``, if D is not certified."""
    pts = _reduce(np.array([g.entries for g in _domain(G).letters[0]]),
                  G.base_point.as_complex,
                  [zc] if companion is None else [zc, companion])
    return pts[0], None if companion is None else pts[1]


def _reduce(mats: np.ndarray, z0c, pts) -> np.ndarray:
    """The side walk (module docstring): while some side, a row of mats,
    brings a point of the first row of pts closer to z0c, move the points
    of its column by the side that brings it closest, the first on ties.
    Returns the moved points."""
    pts = np.array(pts, dtype=complex)

    def block(blk):
        act = np.arange(*blk.indices(pts.shape[1]))  # columns still walking
        while len(act):
            img = _mobius_batch(mats, pts[:, act].ravel()).reshape(
                len(mats), len(pts), len(act))
            d = _dist_c(z0c, img[:, 0])
            k, j = d.argmin(axis=0), np.arange(len(act))
            closer = d[k, j] < _dist_c(z0c, pts[0, act])
            act = act[closer]
            pts[:, act] = img[k[closer], :, j[closer]].T

    # blocks of columns keep the (sides, block) temporaries bounded
    _blockwise(block, pts.shape[1], max(1, _SAMPLE_BLOCK // len(mats)))
    return pts


def dirichlet_mask(G: GroupSpec, zc: np.ndarray) -> np.ndarray:
    """Whether each complex point lies in the open Dirichlet domain
    centered at the base point z0: d(z0, z) < d(z0, gamma z) for every
    nontrivial gamma, tested against the sides of D only (module
    docstring).  With w the disc-chart point of z about z0 and gamma z0
    at tanh(d_g/2) e^{i theta_g}, z lies on z0's side of their bisector
    iff 2 Re(w e^{-i theta_g}) < tanh(d_g/2) (1 + |w|^2).  ValueError,
    as from ``dirichlet_domain``, if D is not certified."""
    cos_g, sin_g, tanh_g = _domain(G).sides[:, :, None]
    zc = np.asarray(zc)

    def block(blk):
        w = _disc_chart(G.base_point.as_complex, zc[blk])
        u, v = w.real, w.imag
        return np.all(
            2.0 * (u * cos_g + v * sin_g) < tanh_g * (1.0 + (u * u + v * v)),
            axis=0)

    # blocks of points keep the (sides, block) temporaries bounded
    return _blockmap(block, len(zc), len(cos_g), bool)


class _Domain(NamedTuple):
    """The Dirichlet domain D at the base point, as ``_domain`` certifies
    it: area, radius of the least ball about z0 covering the (possibly
    truncated) D, per side rows cos theta_g, sin theta_g, tanh(d_g/2) of
    the polar coordinates of gamma z0 (read-only, shape (3, sides)), the
    side letters, and for a polygon its certificate: the vertices, their
    angles, the vertex cycles and the largest pairing miss."""

    area: float
    radius: float
    sides: np.ndarray
    letters: tuple
    polygon: tuple | None


@functools.lru_cache(maxsize=64)
def _domain(G: GroupSpec) -> _Domain:
    gens, inv_index = _doubled_generators(G)
    letters = (gens, inv_index, tuple((k,) for k in range(len(gens))))
    if len(G.generators) == 1:  # the strip: its sides are g and g^-1
        rows = _polar(G.base_point, gens)[2]
        rows.setflags(write=False)
        return _Domain(*_envelope(G, gens, 3.0), rows, letters, None)
    elements, words, spent, R = gens, letters[2], 0, 0
    while True:
        try:
            return _certified(G, elements, words)
        except ValueError as exc:
            failure = exc
        R += 1
        ball = _enumerate(G, letters, R)
        spent += ball.stats.candidates
        if ball.truncated or spent > _CANDIDATE_BUDGET:
            raise ValueError(
                f"no candidate polygon certifies the Dirichlet domain of "
                f"group {G.name!r} (balls up to radius {R}, {spent} "
                f"candidates); the last one failed: {failure}")
        # the doubled generators outside the ball, the ball, and the
        # inverses of its elements, as D's sides come in inverse pairs
        inside = {w for _, w in ball.elements}
        words = [(k,) for k in range(len(gens)) if (k,) not in inside]
        elements = [gens[w[0]] for w in words] + [g for g, _ in ball.elements]
        words += [w for _, w in ball.elements]
        inv = _canonical_batch(ball.matrices()[:, [3, 1, 2, 0]]
                               * (1.0, -1.0, -1.0, 1.0))
        elements += [MobiusElement._raw(*e) for e in inv.tolist()]
        words += [tuple(inv_index[k] for k in reversed(w))
                  for _, w in ball.elements]


def _certified(G: GroupSpec, elements, words) -> _Domain:
    """D, when the polygon P cut out by the bisectors of z0 and gamma z0
    for the given elements (with their words in the doubled generators)
    passes Poincare's theorem (module docstring); ValueError naming the
    condition that P fails otherwise."""
    sides, vert = _polygon(G.base_point, elements)
    els = [elements[s] for s in sides]
    # side i runs from vertex i to vertex i + 1 with P on its left
    nxt = np.roll(vert, -1)
    # the sides in the order of their words: the doubled generators' own
    # order when each side is one of them
    order = sorted(range(len(els)), key=lambda i: (len(words[sides[i]]),
                                                   words[sides[i]]))
    # the inverse of side i's element maps it onto its partner, reversed
    partner, miss = [0] * len(els), 0.0
    for i in order:
        h = els[i].inverse()
        gap = np.maximum(_dist_c(h.apply_complex(nxt[i]), vert),
                         _dist_c(h.apply_complex(vert[i]), nxt))
        partner[i] = int(gap.argmin())
        miss = max(miss, float(gap.min()))
        if miss > 1e-9:
            raise ValueError(f"the side of word {words[sides[i]]} pairs "
                             f"with no side: vertices miss by {miss:.1e}")
    # a cycle steps from vertex i, by the inverse of side i's element, to
    # the vertex that begins the side after i's partner
    step = (np.array(partner) + 1) % len(els)
    if len(set(step.tolist())) < len(els):
        raise ValueError("two sides pair with one side")
    angle = (np.angle(_disc_chart(vert, np.roll(vert, 1)))
             - np.angle(_disc_chart(vert, nxt))) % TWO_PI
    cycles, todo = [], set(range(len(els)))
    while todo:
        cycle = [min(todo)]
        while step[cycle[-1]] != cycle[0]:
            cycle.append(int(step[cycle[-1]]))
        todo -= set(cycle)
        total = float(angle[cycle].sum())
        m = max(1, round(TWO_PI / total))
        if abs(total - TWO_PI / m) > 1e-9:
            raise ValueError(f"the angles of a vertex cycle sum to {total!r},"
                             " not 2 pi / m for an integer m")
        cycles.append(tuple(cycle))
    # g z0 and g w must walk back to z0 and w (module docstring)
    z0c = G.base_point.as_complex
    ends = np.array([[z0c], [_polar_batch(z0c, 0.0, 1.0)]])
    back = _reduce(np.array([g.entries for g in els]), z0c,
                   [[g.apply_complex(e) for g in G.generators]
                    for e in ends[:, 0]])
    off = _dist_c(back, ends).max(axis=0) > 1e-9
    if off.any():
        raise ValueError(f"generator {int(off.argmax())} does not reduce to "
                         "the identity through the sides")
    rank = np.argsort(order)
    rows = _polar(G.base_point, [els[i] for i in order])[2]
    rows.setflags(write=False)
    letters = (tuple(els[i] for i in order),
               tuple(int(rank[partner[i]]) for i in order),
               tuple(words[sides[i]] for i in order))
    area, radius = _envelope(G, [elements[s] for s in sorted(sides)],
                             math.inf)
    return _Domain(area, radius, rows, letters,
                   (vert, angle, tuple(cycles), miss))


def _polygon(z0: Point, elements) -> tuple:
    """The sides of the polygon P cut out by the bisectors of z0 and
    gamma z0 for the given elements, counterclockwise (indices into
    elements), and its vertices (complex), vertex i beginning side i;
    ValueError if P is unbounded.  In the Klein model about z0 the
    bisector of gamma is the line x . u = tanh(d_g/2), u the unit vector
    at angle theta_g, so P is the polar dual of the convex hull of the
    points u / tanh(d_g/2): its sides are the hull's corners and its
    vertices the duals of the hull's edges.  P is bounded if the hull
    holds 0 inside and those vertices lie inside the unit disc.  The
    turn at a corner is the angle under which z0 sees its side; a turn
    under 1e-9 rad is a bisector through a vertex where several meet,
    and is dropped, as is an element repeated within rounding."""
    rows = _polar(z0, elements)[2]
    p = (rows[0] + 1j * rows[1]) / rows[2]
    q = p.tolist()  # Python complex numbers, for the loop

    def turn(a, b, c):  # the angle of the left turn at b on a, b, c
        w = (q[c] - q[b]) / (q[b] - q[a])
        return math.atan2(w.imag, w.real)

    def chain(idx):  # one half of the hull, by Andrew's monotone chain
        out = []
        for i in idx:
            if out and abs(q[i] - q[out[-1]]) <= 1e-9 * abs(q[i]):
                out[-1] = min(out[-1], i)  # the first of repeats
                continue
            while len(out) > 1 and turn(out[-2], out[-1], i) <= 1e-9:
                out.pop()
            out.append(i)
        return out[:-1]

    order = np.lexsort((p.imag, p.real)).tolist()
    sides = np.array(chain(order) + chain(order[::-1]), dtype=int)
    a, b = p[np.roll(sides, 1)], p[sides]
    det = (np.conj(a) * b).imag
    with np.errstate(divide="ignore", invalid="ignore"):
        x = 1j * (a - b) / det  # the dual of the hull edge from a to b
    if not (len(sides) > 2 and np.all(det > 0.0) and np.all(abs(x) < 1.0)):
        raise ValueError("the polygon is unbounded")
    return sides, _polar_batch(z0.as_complex, np.angle(x),
                               np.arctanh(abs(x)))


def dirichlet_domain(G: GroupSpec) -> tuple:
    """(area, radius) of the Dirichlet domain D at the base point z0:
    its exact area and the least radius of a ball about z0 covering it
    (module docstring).  A one-generator group's D is truncated to
    B(z0, 3), of radius 3.0.  ValueError, naming the last failure, if no
    candidate polygon certifies D."""
    return _domain(G)[:2]


def _envelope(G: GroupSpec, elements, cap: float) -> tuple:
    """(area, radius) of the bounded region about z0 cut out by the
    bisectors of z0 and gamma z0 for the given elements, and by
    rho <= cap.  The circle is split at every pairwise crossing, so the
    elements should be few: the sides of D."""
    theta, d, rows = _polar(G.base_point, elements)
    T, C = rows[2], np.cosh(0.5 * d)
    half = np.arccos(T)  # half-width of each bisector's range
    i, j = np.triu_indices(len(d), 1)
    cross = np.arctan2(T[i] * np.cos(theta[j]) - T[j] * np.cos(theta[i]),
                       T[j] * np.sin(theta[i]) - T[i] * np.sin(theta[j]))
    capped = np.arccos(np.minimum(T / math.tanh(cap), 1.0))
    lo = np.unique(np.concatenate(
        [cross, cross + math.pi, theta + half, theta - half,
         theta + capped, theta - capped]) % TWO_PI)
    hi = np.append(lo[1:], lo[0] + TWO_PI)
    mid = 0.5 * (lo + hi)
    # the bisector attaining the min on each arc between break points
    phi = (mid[:, None] - theta + math.pi) % TWO_PI - math.pi
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(np.cos(phi) > T, np.arctanh(T / np.cos(phi)), np.inf)
    arc, k = np.arange(len(mid)), rho.argmin(axis=1)
    phi, rho = phi[arc, k], rho[arc, k]
    side = rho < cap  # arcs bounded by a bisector, not by the cap
    b = k[side, None]
    ends = phi[side, None] + np.stack([lo - mid, hi - mid], 1)[side]
    prim = np.arcsin(np.clip(C[b] * np.sin(ends), -1.0, 1.0)) - ends
    area = float((prim[:, 1] - prim[:, 0]).sum())
    radius = float(np.arctanh(np.minimum(T[b] / np.cos(ends), 1.0))
                   .max(initial=0.0))
    if not side.all():
        area += (math.cosh(cap) - 1.0) * float((hi - lo)[~side].sum())
        radius = cap
    return area, radius


def _polar(z0: Point, elements) -> tuple:
    """Polar coordinates (theta_g, d_g) of gamma z0 about z0 for each
    element, and the rows cos theta_g, sin theta_g, tanh(d_g/2)."""
    theta, d = np.array([polar_to(z0, mobius_apply(g, z0))
                         for g in elements]).T
    return theta, d, np.stack([np.cos(theta), np.sin(theta),
                               np.tanh(0.5 * d)])


def systole(G: GroupSpec, search_radius: float) -> float:
    """The least translation length 2 arccosh(|a + d| / 2) over the
    group ball at z0 of radius 2 arcsinh(sinh(s/2) cosh c), rounded up to
    a multiple of 0.5, with s = search_radius and c the radius from
    ``dirichlet_domain``.

    Exact when the systole ell is at most s and D is not truncated: a
    shortest closed geodesic meets the closed D, which lies within c of
    z0, so a conjugate of its element (same trace) has its axis through
    some w with d(z0, w) <= c.  A hyperbolic element of translation
    length ell moves a point at distance delta from its axis by d with
    sinh(d/2) = sinh(ell/2) cosh delta (the Saccheri quadrilateral with
    base ell on the axis and legs delta), so that conjugate, with
    delta <= c and ell <= s, moves z0 by at most 2 arcsinh(sinh(s/2) cosh c).
    Otherwise it is the shortest within the ball; an elliptic or
    parabolic element (|a + d| <= 2) in the ball gives 0."""
    ball = group_ball(G, G.base_point, _ball_radius(2.0 * math.asinh(
        math.sinh(0.5 * search_radius) * math.cosh(dirichlet_domain(G)[1]))))
    if not ball.elements:
        raise EnumerationTruncated(
            "no group element found within the search radius; increase it",
            partial=ball)
    m = ball.matrices()
    # arccosh increases, so the least |trace| gives the least length
    half_trace = float(np.abs(m[:, 0] + m[:, 3]).min()) / 2.0
    return 2.0 * math.acosh(max(half_trace, 1.0))


def thin_part_fraction(G: GroupSpec, R: float, n: int, seed: int) -> tuple:
    """Monte Carlo fraction of fundamental-domain points with injectivity
    radius below R, with its 1-sigma binomial error.

    For a one-generator group, whose Dirichlet domain is unbounded, the
    fraction refers to the domain truncated to B(z0, 3) (see
    ``dirichlet_domain``).

    The elements searched are those in the ball of radius
    2 min(R, r*) + 2c, c the radius from ``dirichlet_domain``, with
    r* = arccosh(1 + Vol(D) / 2 pi) for a compact D and r* infinite for
    a truncated one.  An element moving a point z of D by less than 2R
    moves z0 by less than 2R + 2c, as d(z0, z) <= c.  On a compact
    surface the disc B(z, inj z) embeds, so its area
    2 pi (cosh(inj z) - 1) is at most Vol(D), and inj z <= r*: some
    element moves z by 2 inj z <= 2 r*, and so z0 by at most 2 r* + 2c.
    For R > r* that element counts every point, as 2 r* < 2R, and the
    fraction is exactly 1.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    if n < 1:
        raise ValueError("need at least one sample")
    D = _domain(G)
    r_star = (math.acosh(1.0 + D.area / TWO_PI) if D.polygon is not None
              else math.inf)
    ball = group_ball(G, G.base_point, 2.0 * min(R, r_star) + 2.0 * D.radius)
    samples = _domain_samples(G, n, seed)
    hits = int(np.count_nonzero(min_displacement_batch(ball, samples)
                                < 2.0 * R))
    frac = hits / n
    err = math.sqrt(max(frac * (1.0 - frac), 1.0 / n) / n)
    return frac, err


def _domain_samples(G: GroupSpec, n: int, seed: int) -> np.ndarray:
    """Uniform samples of the (truncated) Dirichlet domain, as complex
    values; rejection from the ball B(z0, radius) that covers it, with
    radius from ``dirichlet_domain``."""
    radius = dirichlet_domain(G)[1]
    out = []
    batch_seed = seed
    need = n
    while need > 0:
        zc = sample_ball_complex(G.base_point, radius, max(4 * need, 64),
                                 batch_seed)
        keep = zc[dirichlet_mask(G, zc)]
        out.append(keep[:need])
        need -= len(keep[:need])
        batch_seed += 10_000
    return np.concatenate(out)

