"""Finitely generated cocompact Fuchsian groups: ball enumeration over
words, Dirichlet-domain membership, injectivity radius, systole and
thin-part statistics.

Enumeration is breadth-first over reduced words with displacement
pruning: a branch is abandoned once its prefix moves the base point
further than ``R + 2 * (max generator displacement)``.  Duplicate
elements are detected by canonical-form matrix comparison at 1e-9; this
can mislabel nearly-parabolic inputs, which do not occur for the
cocompact groups targeted here.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import EnumerationTruncated
from .geom import (Point, MobiusElement, mobius_apply, hyp_dist, _dist_c,
                   _mobius_batch, ball_volume, sample_ball_complex)

# Duplicate words for one group element agree only up to accumulated
# floating-point error (~1e-9 for entries of size e^{R/2} at word length
# ~30), while distinct elements of a discrete cocompact group are
# separated by far more than 1e-6 (else their quotient would displace
# the base point by less than the systole).  1e-6 splits the difference.
_DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class GroupSpec:
    """A Fuchsian group given by generator matrices plus enumeration
    controls.  Generator inverses are synthesized; they need not be
    listed."""

    generators: tuple
    name: str = "unnamed"
    max_word_length: int = 10
    base_point: Point = field(default_factory=lambda: Point(0.0, 1.0))
    domain_radius: float = 3.0  # ball around base_point known to cover D

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.max_word_length < 1:
            raise ValueError("max_word_length must be >= 1")
        if not self.generators:
            raise ValueError("need at least one generator")


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

    def __len__(self):
        return len(self.elements)

    def matrices(self) -> np.ndarray:
        return np.array([g.entries for g, _ in self.elements]).reshape(-1, 4)

    def displacements(self) -> np.ndarray:
        if not self.elements:
            return np.array([])
        zc = self.center.as_complex
        gz = _mobius_batch(self.matrices(), [zc])[:, 0]
        return _dist_c(gz, np.full(gz.shape, zc))


def load_group(path) -> GroupSpec:
    """Read a group spec from JSON: {name, generators, base_point,
    max_word_length[, domain_radius]}."""
    with open(path) as fh:
        doc = json.load(fh)
    return _group_from_dict(doc)


def _group_from_dict(doc) -> GroupSpec:
    try:
        gens = tuple(MobiusElement(row[0][0], row[0][1], row[1][0], row[1][1])
                     for row in doc["generators"])
        bx, by = doc["base_point"]
        return GroupSpec(
            generators=gens,
            name=doc.get("name", "unnamed"),
            max_word_length=int(doc["max_word_length"]),
            base_point=Point(bx, by),
            domain_radius=float(doc.get("domain_radius", 3.0)),
        )
    except KeyError as exc:
        raise ValueError(f"group JSON has no field {exc}") from None


def builtin_group(name: str) -> GroupSpec:
    """Load one of the shipped groups: 'cyclic_L2' or 'bolza'."""
    text = resources.files("hyplab.data").joinpath(f"{name}.json").read_text()
    return _group_from_dict(json.loads(text))


def save_group(spec: GroupSpec, path) -> None:
    doc = {
        "name": spec.name,
        "generators": [[[g.a, g.b], [g.c, g.d]] for g in spec.generators],
        "base_point": [spec.base_point.x, spec.base_point.y],
        "max_word_length": spec.max_word_length,
        "domain_radius": spec.domain_radius,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def _doubled_generators(G: GroupSpec):
    gens = list(G.generators) + [g.inverse() for g in G.generators]
    n = len(G.generators)
    inv_index = [k + n if k < n else k - n for k in range(2 * n)]
    return gens, inv_index


class _Dedup:
    """Approximate set of PSL(2,R) matrices, keyed by rounded entries."""

    def __init__(self, tol=_DEDUP_TOL):
        self.tol = tol
        self.scale = 1.0 / (10.0 * tol)
        self.cells = {}

    def add(self, g: MobiusElement) -> bool:
        """Insert g; returns False if an equal element was present."""
        base = tuple(int(math.floor(e * self.scale)) for e in g.entries)
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    for dd in (-1, 0, 1):
                        key = (base[0] + da, base[1] + db,
                               base[2] + dc, base[3] + dd)
                        for other in self.cells.get(key, ()):
                            if g.approx_eq(other, self.tol):
                                return False
        self.cells.setdefault(base, []).append(g)
        return True


@functools.lru_cache(maxsize=256)
def _group_ball_cached(G: GroupSpec, z: Point, R: float) -> GroupBall:
    gens, inv_index = _doubled_generators(G)
    delta_max = max(hyp_dist(z, mobius_apply(g, z)) for g in gens)
    threshold = R + 2.0 * delta_max

    dedup = _Dedup()
    dedup.add(MobiusElement.identity())
    elements = []
    frontier = [(MobiusElement.identity(), ())]
    truncated = False
    for _depth in range(G.max_word_length):
        new_frontier = []
        for prefix, word in frontier:
            for k, g in enumerate(gens):
                if word and inv_index[word[-1]] == k:
                    continue  # reduced words only
                cand = prefix @ g
                disp = hyp_dist(z, mobius_apply(cand, z))
                if disp > threshold:
                    continue  # cheap prune before the dedup lookup
                if not dedup.add(cand):
                    continue
                cand_word = word + (k,)
                if disp <= R + 1e-9:
                    elements.append((cand, cand_word))
                new_frontier.append((cand, cand_word))
        frontier = new_frontier
        if not frontier:
            break
    else:
        truncated = bool(frontier)

    return GroupBall(elements=tuple(elements), radius=R, center=z,
                     truncated=truncated)


def group_ball(G: GroupSpec, z: Point, R: float) -> GroupBall:
    """All nontrivial group elements gamma with d(z, gamma z) <= R that
    are reachable within the word-length cap.

    Raises EnumerationTruncated (with the partial ball attached) when
    branches below the pruning threshold were still open at the cap.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    ball = _group_ball_cached(G, z, float(R))
    if ball.truncated:
        raise EnumerationTruncated(
            f"word cap {G.max_word_length} reached with open branches; "
            f"the ball of radius {R} at {z} may be incomplete",
            partial=ball)
    return ball


def min_displacement_batch(ball: GroupBall, zc: np.ndarray) -> np.ndarray:
    """Minimum over ball elements of d(z, gamma z) for an array of
    complex points; used by the thin-part and systole estimators."""
    zc = np.asarray(zc)
    if not ball.elements:
        return np.full(zc.shape, np.inf)
    gz = _mobius_batch(ball.matrices(), zc)
    return _dist_c(gz, np.broadcast_to(zc[None, :], gz.shape)).min(axis=0)


def injectivity_radius(G: GroupSpec, z: Point, R_cap: float) -> float:
    """Half the minimal displacement of the group at z, searched within
    displacement R_cap.  Returns R_cap/2 when no element displaces z by
    at most R_cap (a capped lower bound)."""
    if R_cap <= 0.0:
        raise ValueError("R_cap must be positive")
    ball = group_ball(G, z, R_cap)
    if not ball.elements:
        return R_cap / 2.0
    return 0.5 * float(ball.displacements().min())


def _membership_ball(G: GroupSpec, dz: float) -> GroupBall:
    """Cached group ball at the base point, large enough to decide
    Dirichlet membership for points within distance dz of it."""
    need = 2.0 * max(dz, G.domain_radius) + 1e-6
    # quantize so repeated queries share one enumeration
    R = 0.5 * math.ceil(2.0 * need)
    return group_ball(G, G.base_point, R)


def dirichlet_mask(G: GroupSpec, zc: np.ndarray) -> np.ndarray:
    """Whether each complex point lies in the open Dirichlet domain
    centered at the base point z0: d(z0, z) < d(z0, gamma z) for every
    nontrivial gamma.

    Testing gamma with d(z0, gamma z0) <= 2 d(z0, z) + margin suffices
    (the standard Dirichlet-domain cutoff); a cached ball at the base
    point covering that cutoff is used.
    """
    zc = np.asarray(zc)
    z0c = G.base_point.as_complex
    dz = _dist_c(np.full(zc.shape, z0c), zc)
    ball = _membership_ball(G, float(dz.max()) if zc.size else 0.0)
    if not ball.elements:
        return np.ones(zc.shape, dtype=bool)
    gz = _mobius_batch(ball.matrices(), zc)
    dists = _dist_c(np.full(gz.shape, z0c), gz)
    return np.all(dz[None, :] < dists, axis=0)


def domain_net(G: GroupSpec, n: int, seed: int = 20_177) -> list:
    """A deterministic net of n points of the Dirichlet domain, obtained
    by rejection from the covering ball around the base point."""
    pts = [G.base_point]
    zc = _domain_samples(G, n - 1, seed) if n > 1 else np.array([])
    pts += [Point(float(z.real), float(z.imag)) for z in zc]
    return pts


def systole(G: GroupSpec, search_radius: float, net_size: int = 20) -> float:
    """Shortest displacement found over a coarse net of the fundamental
    domain: min over net points z of 2 * InjRad(z), searched within a
    group ball of radius search_radius + domain diameter at the base
    point."""
    ball = group_ball(G, G.base_point,
                      search_radius + 2.0 * G.domain_radius)
    if not ball.elements:
        raise EnumerationTruncated(
            "no group element found within the search radius; increase it",
            partial=ball)
    net = domain_net(G, net_size)
    zc = np.array([p.as_complex for p in net])
    return float(min_displacement_batch(ball, zc).min())


def thin_part_fraction(G: GroupSpec, R: float, n: int, seed: int) -> tuple:
    """Monte Carlo fraction of fundamental-domain points with injectivity
    radius below R, with its 1-sigma binomial error.

    For groups whose Dirichlet domain is unbounded (e.g. cyclic groups)
    the fraction refers to the domain truncated to the covering ball of
    ``domain_radius`` around the base point.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    if n < 1:
        raise ValueError("need at least one sample")
    # elements displacing a domain point by < 2R displace the base point
    # by < 2R + 2 * domain_radius
    ball = group_ball(G, G.base_point, 2.0 * R + 2.0 * G.domain_radius)
    samples = _domain_samples(G, n, seed)
    if ball.elements:
        disp = min_displacement_batch(ball, samples)
        hits = int(np.count_nonzero(disp < 2.0 * R))
    else:
        hits = 0
    frac = hits / n
    err = math.sqrt(max(frac * (1.0 - frac), 1.0 / n) / n)
    return frac, err


def _domain_samples(G: GroupSpec, n: int, seed: int) -> np.ndarray:
    """Uniform samples of the (truncated) Dirichlet domain, as complex
    values; rejection from the covering ball."""
    out = []
    batch_seed = seed
    need = n
    while need > 0:
        zc = sample_ball_complex(G.base_point, G.domain_radius,
                                 max(4 * need, 64), batch_seed)
        keep = zc[dirichlet_mask(G, zc)]
        out.append(keep[:need])
        need -= len(keep[:need])
        batch_seed += 10_000
    return np.concatenate(out)


def domain_volume(G: GroupSpec, n: int = 4000, seed: int = 7) -> tuple:
    """Monte Carlo area of the (truncated) Dirichlet domain and its
    1-sigma error, by rejection from the covering ball."""
    zc = sample_ball_complex(G.base_point, G.domain_radius, n, seed)
    frac = float(np.count_nonzero(dirichlet_mask(G, zc))) / n
    vol_ball = ball_volume(G.domain_radius)
    return vol_ball * frac, vol_ball * math.sqrt(max(frac * (1 - frac), 1e-12) / n)
