"""Fuchsian group enumeration: exact ball contents, displacement
invariants, Dirichlet domains and coarse geometric invariants."""

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from hyplab import fuchsian
from hyplab.cli import run
from hyplab.errors import EnumerationTruncated
from hyplab.geom import (Point, MobiusElement, mobius_apply, hyp_dist,
                         sample_ball_complex, _canonical_batch, _dist_c,
                         _mobius_batch, _SAMPLE_BLOCK)
from hyplab.fuchsian import (GroupSpec, builtin_group, load_group,
                             group_ball, injectivity_radius,
                             dirichlet_mask, reduce_to_domain, systole,
                             thin_part_fraction, dirichlet_domain,
                             min_displacement_batch, _doubled_generators,
                             _displacement, _domain_samples, _DEDUP_TOL)
from hyplab.propagator import midpoint_change_of_var_check
from hyplab.trace import lattice_count_bound

# the octagon surface: systole = 2 acosh(1 + sqrt 2)
OCT_SYSTOLE = 2.0 * math.acosh(1.0 + math.sqrt(2.0))


def close(g, h, tol=1e-9):
    """Whether two elements agree within tol in every entry."""
    return max(abs(p - q) for p, q in zip(g.entries, h.entries)) <= tol


def test_builtin_groups_load():
    for name in ("cyclic_L2", "bolza"):
        G = builtin_group(name)
        assert G.generators
    with pytest.raises(Exception):
        builtin_group("no_such_group")


def test_group_spec_roundtrip(tmp_path, cyclic_group):
    G = cyclic_group
    path = tmp_path / "g.json"
    doc = {"name": G.name,
           "generators": [[[g.a, g.b], [g.c, g.d]] for g in G.generators],
           "base_point": [G.base_point.x, G.base_point.y],
           "max_word_length": G.max_word_length}
    path.write_text(json.dumps(doc))
    G2 = load_group(path)
    assert len(G2.generators) == len(G.generators)
    for g, h in zip(G2.generators, G.generators):
        assert close(g, h, tol=1e-12)
    # the domain is computed, so a typed-in radius is an unknown key,
    # ignored like any other
    doc["domain_radius"] = 2.5
    path.write_text(json.dumps(doc))
    assert load_group(path) == G2


def test_cyclic_ball_matches_brute_force(cyclic_group):
    """The cyclic group of translation length 2: the ball of radius R at
    the base point must contain exactly the powers g^k with 2|k| <= R."""
    G = cyclic_group
    g = G.generators[0]
    z = G.base_point
    R = 7.0
    ball = group_ball(G, z, R)
    # brute force: powers with displacement <= R
    expected = []
    for k in range(-6, 7):
        if k == 0:
            continue
        gk = MobiusElement.identity()
        step = g if k > 0 else g.inverse()
        for _ in range(abs(k)):
            gk = gk @ step
        if hyp_dist(z, mobius_apply(gk, z)) <= R:
            expected.append(gk)
    assert len(ball) == len(expected) == 6
    found = [el for el, _ in ball.elements]
    for gk in expected:
        assert any(close(gk, el) for el in found)
    # displacements are even integers 2|k|
    disp = np.sort(ball.displacements())
    assert np.allclose(disp, [2.0, 2.0, 4.0, 4.0, 6.0, 6.0], atol=1e-9)


def test_octagon_ball_counts(bolza_group):
    """Frozen shell counts for the octagon group; the innermost shell is
    the 8 generator translates at the systolic displacement."""
    G = bolza_group
    z = G.base_point
    assert len(group_ball(G, z, 2.0)) == 0
    b4 = group_ball(G, z, 4.0)
    assert len(b4) == 8
    assert np.allclose(b4.displacements(), OCT_SYSTOLE, atol=1e-9)
    assert len(group_ball(G, z, 6.0)) == 96


# SHA-256 of group_ball.csv as written by the one-word-at-a-time
# enumerator that the batched level search replaced
BALL_CSV_SHA256 = {
    ("bolza", "4"):
        "51e389cff771fc795d77aff458189c68cfdbd3f9ead9231741d2c642b1d1cdfa",
    ("bolza", "6"):
        "ad98e3ee36eef7a9e031e65ab7f050f07b6ab3738217a6a34bffbd785118a67b",
    ("bolza", "7"):
        "4811333711d54edec0055ea0facd4e427c3f1ac2ec5fa3de9b0c730b55e76bdc",
    ("cyclic_L2", "9"):
        "f5c2f3f3e8fd9c4cf547af8bd005c1214df74c09d0813a627ec6e85c0d3ade54",
}


@pytest.mark.parametrize("group,radius", sorted(BALL_CSV_SHA256))
def test_ball_csv_is_byte_identical_to_the_word_enumerator(tmp_path, group,
                                                           radius):
    out = tmp_path / "o"
    assert run(["group", "ball", "--group", group, "--radius", radius,
                "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "group_ball.csv").read_bytes())
    assert digest.hexdigest() == BALL_CSV_SHA256[group, radius]
    # enumeration statistics go to the manifest only
    doc = json.loads((out / "group_ball.json").read_text())
    assert set(doc) == {"group", "radius", "count"}
    stats = json.loads((out / "manifest.json").read_text())[
        "diagnostics"]["enumeration"]
    assert stats["candidates"] == (stats["pruned"] + stats["duplicates"]
                                   + stats["kept"])
    assert doc["count"] <= stats["kept"] and stats["levels"] >= 1


def assert_words_multiply(G, ball):
    """Each word of the ball, in G's doubled generators, multiplies to
    its element."""
    gens, _ = _doubled_generators(G)
    for g, word in ball.elements:
        prod = MobiusElement.identity()
        for k in word:
            prod = prod @ gens[k]
        assert close(prod, g)


def test_ball_words_multiply_to_their_elements(bolza_group):
    assert_words_multiply(
        bolza_group, group_ball(bolza_group, bolza_group.base_point, 7.0))


def test_ball_elements_are_distinct(bolza_group):
    m = group_ball(bolza_group, bolza_group.base_point, 7.0).matrices()
    gap = np.abs(m[:, None, :] - m[None, :, :]).max(axis=2)
    np.fill_diagonal(gap, np.inf)
    assert gap.min() > _DEDUP_TOL


def test_truncated_ball_is_part_of_the_full_ball(bolza_group):
    G = bolza_group
    short = dataclasses.replace(G, max_word_length=3)
    with pytest.raises(EnumerationTruncated) as info:
        group_ball(short, G.base_point, 6.0)
    partial = info.value.partial
    assert partial.truncated and 0 < len(partial) < 96
    assert set(partial.elements) <= set(group_ball(G, G.base_point,
                                                   6.0).elements)


def margin_ball(G, z, R):
    """The matrices of every element moving z by at most R, found by a
    breadth-first search over reduced words in the doubled generators
    that prunes a product once it moves z further than
    R + 2 max_g d(z, g z): the margin rule that built group balls before
    the domain was certified, kept as an oracle that does not need D.
    The search must close within the word cap."""
    gens, inv = _doubled_generators(G)
    gmat, zc = np.array([g.entries for g in gens]), [z.as_complex]
    bound = R + 2.0 * _displacement(gmat, zc).max()
    frontier, last = np.array([[1.0, 0.0, 0.0, 1.0]]), np.array([-1])
    seen, found = frontier, []
    for _ in range(G.max_word_length):
        blocks = []  # of frontier rows, to bound the temporaries
        for lo in range(0, len(frontier), 4096):
            i, k = np.nonzero(last[lo:lo + 4096, None] != np.array(inv))
            cand = _canonical_batch(fuchsian._products(frontier[lo + i],
                                                       gmat[k]))
            ok = _displacement(cand, zc)[:, 0] <= bound
            blocks.append((cand[ok], k[ok]))
        cand, k = map(np.concatenate, zip(*blocks))
        # drop the elements of earlier levels and repeats within this one
        order = np.argsort(cand[:, 0], kind="stable")
        srt = cand[order]
        dup = np.zeros(len(cand), dtype=bool)
        dup[order[fuchsian._near_pairs(seen, srt)[0]]] = True
        a, b = fuchsian._near_pairs(srt, srt)
        dup[order[a[order[a] > order[b]]]] = True
        frontier, last = cand[~dup], k[~dup]
        found.append(frontier)
        seen = np.concatenate([seen, frontier])
        seen = seen[np.argsort(seen[:, 0], kind="stable")]
        if not len(frontier):
            break
    assert not len(frontier), "the margin search reached the word cap"
    return _within(np.concatenate(found), z, R)


@pytest.fixture(scope="module")
def bolza_reference():
    """Every element moving z0 by at most 9 under Bolza's generators, by
    the margin search with a word cap of 40."""
    G = dataclasses.replace(builtin_group("bolza"), max_word_length=40)
    return margin_ball(G, G.base_point, 9.0)


def _within(mats, z, R):
    return mats[fuchsian._displacement(mats, [z.as_complex])[:, 0]
                <= R + 1e-9]


def assert_same_elements(mats, ref):
    """The rows of mats and of ref match one to one within _DEDUP_TOL,
    so both hold the same group elements."""
    assert len(mats) == len(ref)
    ref = ref[np.argsort(ref[:, 0], kind="stable")]
    i, j = fuchsian._near_pairs(ref, mats)
    assert np.array_equal(np.sort(i), np.arange(len(mats)))
    assert np.array_equal(np.sort(j), np.arange(len(ref)))


@pytest.mark.parametrize("R", [4.0, 6.0, 7.0, 8.0, 9.0])
def test_sides_rule_ball_is_the_reference_ball(bolza_group, bolza_reference,
                                               R):
    G, z0 = bolza_group, bolza_group.base_point
    ball = group_ball(G, z0, R)
    assert_same_elements(ball.matrices(), _within(bolza_reference, z0, R))


@pytest.mark.parametrize("R", [6.5, 9.0, 12.0])
def test_sides_rule_ball_is_the_reference_ball_cyclic(cyclic_group, R):
    G, z0 = cyclic_group, cyclic_group.base_point
    ball = group_ball(G, z0, R)
    ref = margin_ball(dataclasses.replace(G, max_word_length=40), z0, R)
    assert_same_elements(ball.matrices(), ref)


@pytest.mark.parametrize("R", [4.0, 6.0])
def test_off_centre_ball_is_the_filtered_reference(bolza_group,
                                                   bolza_reference, R):
    """About z = (0.3, 1.2) the ball is the z0 ball of radius
    R + 2 d(z0, z), rounded up to 7.0 and 8.0, filtered; it holds the
    elements of the reference ball that move z by at most R."""
    z = Point(0.3, 1.2)
    ball = group_ball(bolza_group, z, R)
    assert ball.center == z and ball.radius == R
    assert_same_elements(ball.matrices(), _within(bolza_reference, z, R))


@pytest.fixture(scope="module")
def off_centre():
    """Bolza's Dirichlet domain at z = (0.3, 1.2) has 18 sides; returns
    z and one side pairing of each inverse pair, 9 elements.  Every
    gamma that can cut that domain moves z by at most 2 * radius, so z0
    by at most 2 * radius + 2 d(z0, z) < 7: the envelope of the ball of
    radius 7 at z0 is exact."""
    G = builtin_group("bolza")
    z = Point(0.3, 1.2)
    els = [g for g, _ in group_ball(G, G.base_point, 7.0).elements]
    sides, _ = fuchsian._polygon(z, els)
    area, radius = fuchsian._envelope(dataclasses.replace(G, base_point=z),
                                      [els[k] for k in sides], math.inf)
    assert 2.0 * radius + 2.0 * hyp_dist(z, G.base_point) < 7.0
    assert area == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert len(sides) == 18
    pairings = []  # counterclockwise from theta = 0
    theta = fuchsian._polar(z, els)[0]
    for g in (els[k] for k in sorted(sides, key=theta.__getitem__)):
        if not any(close(g.inverse(), h) for h in pairings):
            pairings.append(g)
    assert len(pairings) == 9
    return z, pairings


def test_sides_rule_off_centre(off_centre, bolza_reference):
    """The 9 side pairings at z generate the group and, as generators
    with base point z, are the sides of D there.  Their balls about z
    hold the elements of Bolza's reference ball that move z by at most
    R, as d(z0, gamma z0) <= d(z, gamma z) + 2 d(z0, z) <= 6 + 0.66 < 9."""
    z, pairings = off_centre
    G = GroupSpec(generators=pairings, name="bolza-off-centre",
                  max_word_length=60, base_point=z)
    for R in (4.0, 6.0):
        ball = group_ball(G, z, R)
        assert_same_elements(ball.matrices(), _within(bolza_reference, z, R))


def test_bolza_certificate(bolza_group):
    """The octagon of Bolza's doubled generators certifies on its own: 8
    vertices at the circumradius arccosh((1 + sqrt 2)^2), each of angle
    pi/4, one vertex cycle of angle sum 2 pi, and side pairings mapping
    vertices onto vertices.  Its sides are the doubled generators in
    their own order, so group balls keep their words."""
    G = bolza_group
    D = fuchsian._domain(G)
    vert, angle, cycles, miss = D.polygon
    assert len(vert) == 8
    assert np.abs(angle - math.pi / 4.0).max() <= 1e-12
    assert len(cycles) == 1 and sorted(cycles[0]) == list(range(8))
    assert abs(angle.sum() - 2.0 * math.pi) <= 1e-12
    assert miss <= 1e-12
    assert np.allclose(_dist_c(G.base_point.as_complex, vert),
                       math.acosh((1.0 + math.sqrt(2.0)) ** 2),
                       rtol=0.0, atol=1e-12)
    gens, inv = _doubled_generators(G)
    assert D.letters == (gens, inv, tuple((k,) for k in range(8)))


def test_off_centre_certificate(off_centre):
    """At z = (0.3, 1.2) the 9 side pairings and their inverses cut out
    D with 18 vertices in 6 cycles, each of angle sum 2 pi."""
    z, pairings = off_centre
    G = GroupSpec(generators=pairings, max_word_length=60, base_point=z)
    vert, angle, cycles, miss = fuchsian._domain(G).polygon
    assert len(vert) == 18 and len(cycles) == 6
    assert sorted(sum(cycles, ())) == list(range(18))
    for cycle in cycles:
        assert angle[list(cycle)].sum() == pytest.approx(2.0 * math.pi,
                                                         abs=1e-9)
    assert miss <= 1e-9


def _missing_side_sets(bolza_group, off_centre):
    """Bolza's 4 generators and all but one of the other 5 side pairings
    at z = (0.3, 1.2), for each choice of the omitted one."""
    z, pairings = off_centre
    octagon = bolza_group.generators
    others = [g for g in pairings if not any(
        close(g, h) or close(g.inverse(), h) for h in octagon)]
    assert len(others) == 5
    return [GroupSpec(generators=octagon + tuple(g for g in others
                                                 if g is not s),
                      max_word_length=40, base_point=z) for s in others]


def test_certificate_rejects_a_generator_outside_the_sides_group(
        bolza_group):
    """S = (g2, g3, g4, g1^2, g1 g2 g1^-1, g1 g3 g1^-1, g1 g4 g1^-1)
    generates Bolza's index-2 subgroup, whose D certifies with 20 sides
    and area 8 pi.  Those sides pass every polygon check for S and g1
    too, but g1 is not in the group they generate: generator 7 does not
    walk back to the identity."""
    g1, g2, g3, g4 = bolza_group.generators
    h = g1.inverse()
    S = (g2, g3, g4, g1 @ g1, g1 @ g2 @ h, g1 @ g3 @ h, g1 @ g4 @ h)
    D = fuchsian._domain(dataclasses.replace(bolza_group, generators=S))
    assert len(D.letters[0]) == 20
    assert D.area == pytest.approx(8.0 * math.pi, rel=1e-12)
    with pytest.raises(ValueError, match="generator 7 does not reduce"):
        fuchsian._certified(
            dataclasses.replace(bolza_group, generators=S + (g1,)),
            D.letters[0], D.letters[2])


def test_certificate_rejects_a_missing_side(bolza_group, off_centre):
    """Without one side pairing the generators' polygon at z is not D:
    for the first choice it is unbounded, and for the second the side of
    the first generator pairs with no side, missing by 4.7e-2."""
    sets = _missing_side_sets(bolza_group, off_centre)
    words = [(k,) for k in range(16)]
    with pytest.raises(ValueError, match="unbounded"):
        fuchsian._certified(sets[0], _doubled_generators(sets[0])[0], words)
    with pytest.raises(ValueError, match=r"word \(0,\) .* by 4\.7e-02"):
        fuchsian._certified(sets[1], _doubled_generators(sets[1])[0], words)


@pytest.mark.parametrize("choice", range(5))
def test_side_check_finds_a_missing_side(bolza_group, off_centre,
                                         bolza_reference, choice):
    """Each missing-side set certifies from a candidate ball, and its
    ball about z is the reference's, within 4 MB: the search for D
    holds only balls pruned at R."""
    G = _missing_side_sets(bolza_group, off_centre)[choice]
    z = G.base_point
    tracemalloc.start()
    try:
        D = fuchsian._domain(G)
        ball = group_ball(G, z, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(D.polygon[0]) == 18 and len(D.polygon[2]) == 6
    # two sides are words of two letters: the omitted pairing and its
    # inverse
    assert sorted(map(len, D.letters[2])) == [1] * 16 + [2, 2]
    assert_same_elements(ball.matrices(), _within(bolza_reference, z, 4.0))
    assert peak < 4e6


def test_other_generators_certify_from_a_candidate_ball(bolza_group):
    """g2 replaced by g1 g2^-1 still generates Bolza's group, but its
    generators' polygon is unbounded: D certifies from a candidate ball,
    whose words for g2 and g2^-1 become side letters.  The balls are
    Bolza's, and their words multiply to their elements."""
    g = bolza_group.generators
    G = dataclasses.replace(
        bolza_group, generators=(g[0], g[0] @ g[1].inverse()) + g[2:])
    z0 = G.base_point
    with pytest.raises(ValueError, match="unbounded"):
        fuchsian._polygon(z0, _doubled_generators(G)[0])
    assert len(fuchsian._domain(G).polygon[0]) == 8
    for R, count in ((4.0, 8), (6.0, 96)):
        ball = group_ball(G, z0, R)
        assert_same_elements(ball.matrices(),
                             group_ball(bolza_group, z0, R).matrices())
        assert len(ball) == count
        assert_words_multiply(G, ball)


def _other_generating_set(bolza_group, kind):
    g = bolza_group.generators
    if kind == "g1^2 g2 for g2":
        return (g[0], g[0] @ g[0] @ g[1]) + g[2:]
    if kind == "inverses listed":
        return g + tuple(MobiusElement(h.d, -h.b, -h.c, h.a) for h in g)
    return g + g


@pytest.mark.parametrize("kind", ["g1^2 g2 for g2", "inverses listed",
                                  "listed twice"])
def test_other_generating_sets_certify(bolza_group, kind):
    """With g1^2 g2 in place of g2, the balls pruned at R in generator
    letters hold g2 from R = 7 on but g2^-1 only from R = 10, so D
    certifies early only because each candidate also holds the inverses
    of its ball.  Elements listed twice, exactly or within rounding,
    count once.  The balls are Bolza's, and their words multiply to their
    elements."""
    G = dataclasses.replace(
        bolza_group, generators=_other_generating_set(bolza_group, kind))
    assert len(fuchsian._domain(G).polygon[0]) == 8
    for R, count in ((4.0, 8), (6.0, 96)):
        ball = group_ball(G, G.base_point, R)
        assert_same_elements(ball.matrices(), group_ball(
            bolza_group, bolza_group.base_point, R).matrices())
        assert_words_multiply(G, ball)


def test_sides_rule_candidates(bolza_group):
    """Pruned at R, the Bolza ball of radius 4 tries the 8 generators
    and their 56 reduced extensions."""
    stats = group_ball(bolza_group, bolza_group.base_point, 4.0).stats
    assert (stats.candidates, stats.kept) == (64, 8)


def test_cached_ball_cannot_be_changed(bolza_group):
    G, z = bolza_group, bolza_group.base_point
    ball = group_ball(G, z, 4.0)
    with pytest.raises(AttributeError):
        ball.elements.clear()
    with pytest.raises(AttributeError):
        ball.elements = ()
    assert group_ball(G, z, 4.0) is ball
    assert len(ball) == 8


def test_ball_displacements_within_radius(bolza_group):
    ball = group_ball(bolza_group, bolza_group.base_point, 6.0)
    assert np.all(ball.displacements() <= 6.0 + 1e-9)


def test_injectivity_radius_and_systole(bolza_group):
    G = bolza_group
    inj = injectivity_radius(G, G.base_point, R_cap=4.0)
    assert inj == pytest.approx(0.5 * OCT_SYSTOLE, abs=1e-9)
    sys = systole(G, search_radius=4.0)
    assert sys == pytest.approx(OCT_SYSTOLE, abs=1e-9)
    # no point of the surface sees a shorter displacement than the systole
    assert sys <= 2.0 * inj + 1e-12


@pytest.mark.parametrize("name,search_radius,ell", [
    ("bolza", 1.0, OCT_SYSTOLE), ("bolza", 4.0, OCT_SYSTOLE),
    ("cyclic_L2", 1.0, 2.0)])
def test_systole_is_the_least_translation_length(name, search_radius, ell):
    assert systole(builtin_group(name), search_radius) == pytest.approx(
        ell, rel=1e-12)


def test_injectivity_radius_cap(cyclic_group):
    # search radius below the minimal displacement: capped lower bound
    assert injectivity_radius(cyclic_group, cyclic_group.base_point,
                              R_cap=1.0) == pytest.approx(0.5)


def test_lattice_count_bound_not_violated(bolza_group):
    G = bolza_group
    ell = OCT_SYSTOLE
    for R in (2.0, 4.0, 6.0):
        count = len(group_ball(G, G.base_point, R))
        assert count <= lattice_count_bound(R, ell)


def test_lattice_count_bound_value():
    # the packing bound (cosh(R + ell/2) - 1)/(cosh(ell/2) - 1)
    R, ell = 4.0, OCT_SYSTOLE
    expect = (math.cosh(R + 0.5 * ell) - 1.0) / (math.cosh(0.5 * ell) - 1.0)
    assert lattice_count_bound(R, ell) == pytest.approx(expect, rel=1e-12)
    assert lattice_count_bound(R, ell) == pytest.approx(88.3, abs=0.05)


def test_octagon_domain_volume(bolza_group):
    """Genus 2: area 4 pi by Gauss-Bonnet; the domain is the regular
    octagon, whose circumradius is arccosh((1 + sqrt 2)^2)."""
    area, radius = dirichlet_domain(bolza_group)
    assert area == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert radius == pytest.approx(math.acosh((1.0 + math.sqrt(2.0)) ** 2),
                                   rel=1e-12)


def test_cylinder_domain_volume(cyclic_group):
    """The cyclic_L2 domain truncated to B(z0, 3) is, in Fermi
    coordinates (s along the axis, rho across it),
    {|s| < 1, cosh s cosh rho <= cosh 3}, with area element
    cosh rho ds drho."""
    exact, _ = integrate.quad(
        lambda s: 2.0 * math.sinh(math.acosh(math.cosh(3.0) / math.cosh(s))),
        -1.0, 1.0, epsabs=1e-13)
    assert exact == pytest.approx(34.630790, abs=1e-6)
    area, radius = dirichlet_domain(cyclic_group)
    assert area == pytest.approx(exact, rel=1e-9)
    assert radius == 3.0


@pytest.mark.parametrize("name", ["bolza", "cyclic_L2"])
def test_dirichlet_domain_agrees_with_the_mask(name):
    """Independently of the envelope: the membership mask's hit fraction
    on B(z0, 3), which covers both domains, times the ball's area."""
    G = builtin_group(name)
    area, radius = dirichlet_domain(G)
    n = 20_000
    zc = sample_ball_complex(G.base_point, 3.0, n, seed=4)
    hit = dirichlet_mask(G, zc)
    frac = float(hit.mean())
    vol = 2.0 * math.pi * (math.cosh(3.0) - 1.0)
    assert abs(vol * frac - area) <= 4.0 * vol * math.sqrt(
        frac * (1.0 - frac) / n)
    dist = _dist_c(G.base_point.as_complex, zc[hit])
    assert dist.max() <= radius + 1e-12


def test_thin_part_empty_below_half_systole(bolza_group):
    # injectivity radius is at least half the systole everywhere
    frac, _ = thin_part_fraction(bolza_group, R=1.0, n=500, seed=2)
    assert frac == 0.0


def test_dirichlet_mask_basics(bolza_group):
    G = bolza_group
    zc = np.array([G.base_point.as_complex])
    assert dirichlet_mask(G, zc)[0]
    # a far translate of the base point is not in the domain
    g = G.generators[0]
    far = mobius_apply(g, G.base_point).as_complex
    assert not dirichlet_mask(G, np.array([far]))[0]


def _test_points(G, name, seed):
    """400 points of B(z0, 4); for cyclic_L2 also 400 points up to
    distance 6 along its strip, half of them outside it: Fermi
    coordinates (s, rho) about the axis, at e^s (tanh rho + i sech rho),
    with |s| < 2 (the strip is |s| < 1) and |rho| < 4.5."""
    zc = sample_ball_complex(G.base_point, 4.0, 400, seed=seed)
    if name == "cyclic_L2":
        rng = np.random.default_rng(seed)
        s, rho = rng.uniform(-2.0, 2.0, 400), rng.uniform(-4.5, 4.5, 400)
        zc = np.concatenate(
            [zc, np.exp(s) * (np.tanh(rho) + 1j / np.cosh(rho))])
    return zc


@pytest.mark.parametrize("name", ["bolza", "cyclic_L2"])
def test_dirichlet_mask_is_the_brute_force_mask(name):
    """The side mask equals d(z0, z) < d(z0, gamma z) for every gamma of
    the R = 9 ball, which holds every gamma that can violate it for z
    within 4 of z0 and, for the strip, g and g^-1."""
    G = builtin_group(name)
    z0c = G.base_point.as_complex
    zc = _test_points(G, name, 1)
    gz = _mobius_batch(group_ball(G, G.base_point, 9.0).matrices(), zc)
    mask = dirichlet_mask(G, zc)
    assert np.array_equal(mask,
                          np.all(_dist_c(z0c, zc) < _dist_c(z0c, gz), axis=0))
    assert 0 < mask.sum() < len(zc)
    assert not fuchsian._domain(G).sides.flags.writeable
    empty = dirichlet_mask(G, np.array([], dtype=complex))
    assert empty.shape == (0,) and empty.dtype == bool


@pytest.mark.parametrize("name", ["bolza", "cyclic_L2"])
def test_reduce_to_domain_is_the_brute_force_argmin(name):
    """The side walk lands each point on its translate nearest z0, as the
    argmin over the R = 9 ball does, wherever that nearest translate is
    unique: the best and second-best distances differ by over 1e-9.  The
    walk composes several sides where the argmin applies one element, so
    the points agree to 1e-12 relative, not bit for bit."""
    G = builtin_group(name)
    z0c = G.base_point.as_complex
    zc = _test_points(G, name, 1)
    comp = _test_points(G, name, 2)
    moved, moved_comp = reduce_to_domain(G, zc, comp)
    # brute force over the R = 9 ball, the identity first
    mats = np.vstack([np.eye(2).reshape(-1),
                      group_ball(G, G.base_point, 9.0).matrices()])
    gz = _mobius_batch(mats, zc)
    dists = _dist_c(z0c, gz)
    pick, idx = np.argmin(dists, axis=0), np.arange(len(zc))
    best, second = np.partition(dists, 1, axis=0)[:2]
    unique = second - best > 1e-9
    assert unique.mean() > 0.99
    # the images of two points fix the element
    for got, ref in ((moved, gz[pick, idx]),
                     (moved_comp, _mobius_batch(mats, comp)[pick, idx])):
        assert np.all(np.abs(got - ref)[unique] <= 1e-12 * np.abs(ref)[unique])
    assert np.allclose(_dist_c(moved, moved_comp), _dist_c(zc, comp),
                       rtol=0, atol=1e-9)


@pytest.mark.parametrize("name", ["bolza", "cyclic_L2"])
def test_reduce_to_domain_is_idempotent(name):
    """Points already reduced stay where they are, bit for bit."""
    G = builtin_group(name)
    moved, moved_comp = reduce_to_domain(G, _test_points(G, name, 1),
                                         _test_points(G, name, 2))
    again, again_comp = reduce_to_domain(G, moved, moved_comp)
    assert np.array_equal(again, moved)
    assert np.array_equal(again_comp, moved_comp)


def test_reduce_to_domain_reaches_the_domain_from_afar(bolza_group):
    """Points of B(z0, 8), several sides away from D, land in D: inside
    every side's half-plane by the mask, within D's radius of z0, and as
    far from their companions as before."""
    G = bolza_group
    zc = sample_ball_complex(G.base_point, 8.0, 2000, seed=5)
    comp = sample_ball_complex(G.base_point, 8.0, 2000, seed=6)
    assert _dist_c(G.base_point.as_complex, zc).max() > 7.5
    moved, moved_comp = reduce_to_domain(G, zc, comp)
    assert dirichlet_mask(G, moved).all()
    assert (_dist_c(G.base_point.as_complex, moved).max()
            <= dirichlet_domain(G)[1] + 1e-12)
    assert np.allclose(_dist_c(moved, moved_comp), _dist_c(zc, comp),
                       rtol=1e-9, atol=1e-9)


def test_mask_and_reduction_are_thread_count_independent(bolza_group,
                                                         on_cores):
    G = bolza_group
    zc = sample_ball_complex(G.base_point, 3.0, 2 * _SAMPLE_BLOCK + 7, 8)
    comp = sample_ball_complex(G.base_point, 1.0, len(zc), 9)
    assert np.array_equal(on_cores(2, dirichlet_mask, G, zc),
                          on_cores(1, dirichlet_mask, G, zc))
    threaded = on_cores(2, reduce_to_domain, G, zc, comp)
    serial = on_cores(1, reduce_to_domain, G, zc, comp)
    assert all(map(np.array_equal, threaded, serial))


def test_reduce_to_domain_empty_input(bolza_group):
    empty = np.array([], dtype=complex)
    moved, moved_comp = reduce_to_domain(bolza_group, empty, empty)
    assert moved.shape == moved_comp.shape == (0,)
    assert reduce_to_domain(bolza_group, empty)[1] is None


def test_midpoint_reduction_builds_no_group_ball(bolza_group, monkeypatch):
    """The midpoint change of variables reduces its midpoints by the side
    walk through D's sides, with no group ball."""
    radii = []
    build = fuchsian._group_ball_cached

    def spy(G, z, R):
        radii.append(R)
        return build(G, z, R)

    monkeypatch.setattr(fuchsian, "_group_ball_cached", spy)
    midpoint_change_of_var_check(lambda mc, theta, r: np.exp(-r), 2.0,
                                 bolza_group, 2000, 1)
    assert radii == []


def test_systole_ball_is_the_axis_bound(bolza_group, monkeypatch):
    """An element of translation length at most s = 1 has a conjugate
    whose axis passes within c = 2.448 of z0, so it moves z0 by at most
    2 arcsinh(sinh(1/2) cosh c) = 3.65, rounded up to 4.0; s + 2c asks
    for 6.0."""
    dirichlet_domain(bolza_group)  # its own ball is not the systole's
    radii = []
    build = fuchsian._group_ball_cached

    def spy(G, z, R):
        radii.append(R)
        return build(G, z, R)

    monkeypatch.setattr(fuchsian, "_group_ball_cached", spy)
    assert systole(bolza_group, 1.0) == pytest.approx(OCT_SYSTOLE, abs=1e-9)
    assert radii == [4.0]


def test_thin_part_ball_is_capped_by_the_area(bolza_group, monkeypatch):
    """On a compact surface inj z <= r* = arccosh(1 + Vol(D) / 2 pi), so
    at R = 4 > r* the thin-part ball has radius 2 r* + 2c = 8.4224
    rather than 2R + 2c = 12.8969, and every sample counts."""
    area, c = dirichlet_domain(bolza_group)
    r_star = math.acosh(1.0 + area / (2.0 * math.pi))
    radii = []
    build = fuchsian._group_ball_cached

    def spy(G, z, R):
        radii.append(R)
        return build(G, z, R)

    monkeypatch.setattr(fuchsian, "_group_ball_cached", spy)
    frac, _ = thin_part_fraction(bolza_group, 4.0, 200, seed=0)
    assert frac == 1.0
    assert radii == [2.0 * r_star + 2.0 * c]
    assert radii[0] == pytest.approx(8.4224, abs=1e-4)


def test_injectivity_radius_within_area_bound(bolza_group):
    """The conservative direction of the thin-part cap: the injectivity
    radius of Bolza never exceeds r* = arccosh(3) = 1.7627, at the base
    point or at sampled points of its domain."""
    G = bolza_group
    r_star = math.acosh(1.0 + dirichlet_domain(G)[0] / (2.0 * math.pi))
    assert r_star == pytest.approx(math.acosh(3.0), abs=1e-12)
    zc = np.concatenate([[G.base_point.as_complex],
                         fuchsian._domain_samples(G, 5, seed=3)])
    for z in zc:
        # the cap 4 > 2 r*, so a capped answer would show as 2.0
        inj = injectivity_radius(G, Point(z.real, z.imag), R_cap=4.0)
        assert OCT_SYSTOLE / 2.0 - 1e-9 <= inj <= r_star


def test_min_displacement_batch(bolza_group):
    G = bolza_group
    ball = group_ball(G, G.base_point, 6.0)
    zc = np.array([G.base_point.as_complex, 0.2 + 1.1j])
    md = min_displacement_batch(ball, zc)
    assert md[0] == pytest.approx(OCT_SYSTOLE, abs=1e-9)
    assert np.all(md >= OCT_SYSTOLE - 1e-9)


def test_min_displacement_batch_runs_in_bounded_blocks(bolza_group,
                                                       on_cores):
    """The thin-part ball of Bolza at R >= r* (radius 2 r* + 2c, 1144
    elements) against domain points: blocks of points give the
    whole-array minimum bit for bit on one core and on two, and hold a
    few MB instead of the (1144, n) arrays."""
    G = bolza_group
    area, radius = dirichlet_domain(G)
    ball = group_ball(G, G.base_point,
                      2.0 * math.acosh(1.0 + area / (2.0 * math.pi))
                      + 2.0 * radius)
    assert len(ball) == 1144
    zc = _domain_samples(G, 5000, seed=6)
    whole = _displacement(ball.matrices(), zc[:1000]).min(axis=0)
    for cores in (1, 2):
        md = on_cores(cores, min_displacement_batch, ball, zc)
        assert np.array_equal(md[:1000], whole)
    tracemalloc.start()
    try:
        min_displacement_batch(ball, zc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(generators=())
    for R in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            group_ball(builtin_group("cyclic_L2"), Point(0, 1), R)
    # a Schottky group (free, not cocompact): translations of length 4
    # along two perpendicular axes through i leave gaps between the four
    # bisectors, so the domain is unbounded
    e = math.exp(2.0)
    A = MobiusElement(e, 0.0, 0.0, 1.0 / e)
    K = MobiusElement(math.cos(math.pi / 4), math.sin(math.pi / 4),
                      -math.sin(math.pi / 4), math.cos(math.pi / 4))
    with pytest.raises(ValueError, match="unbounded"):
        dirichlet_domain(GroupSpec(generators=(A, K @ A @ K.inverse())))
