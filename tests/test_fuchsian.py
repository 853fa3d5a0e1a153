"""Fuchsian group enumeration: exact ball contents, displacement
invariants, Dirichlet domains and coarse geometric invariants."""

import math

import numpy as np
import pytest

from hyplab.geom import Point, MobiusElement, mobius_apply, hyp_dist
from hyplab.fuchsian import (GroupSpec, builtin_group, load_group,
                             save_group, group_ball, injectivity_radius,
                             dirichlet_mask, systole, thin_part_fraction,
                             domain_volume, min_displacement_batch)
from hyplab.trace import lattice_count_bound

# the octagon surface: systole = 2 acosh(1 + sqrt 2)
OCT_SYSTOLE = 2.0 * math.acosh(1.0 + math.sqrt(2.0))


def test_builtin_groups_load():
    for name in ("cyclic_L2", "bolza"):
        G = builtin_group(name)
        assert G.generators
    with pytest.raises(Exception):
        builtin_group("no_such_group")


def test_group_spec_roundtrip(tmp_path, cyclic_group):
    path = tmp_path / "g.json"
    save_group(cyclic_group, path)
    G2 = load_group(path)
    assert len(G2.generators) == len(cyclic_group.generators)
    for g, h in zip(G2.generators, cyclic_group.generators):
        assert g.approx_eq(h, tol=1e-12)


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
        assert any(gk.approx_eq(el, tol=1e-9) for el in found)
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
    # (cosh(R + ell) - 1)/(cosh ell - 1)
    R, ell = 4.0, OCT_SYSTOLE
    expect = (math.cosh(R + ell) - 1.0) / (math.cosh(ell) - 1.0)
    assert lattice_count_bound(R, ell) == pytest.approx(expect, rel=1e-12)


def test_octagon_domain_volume(bolza_group):
    # genus-2 surface: area 4 pi (Gauss-Bonnet)
    vol, err = domain_volume(bolza_group, n=20_000, seed=3)
    assert abs(vol - 4.0 * math.pi) <= 4.0 * err + 1e-9


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


def test_min_displacement_batch(bolza_group):
    G = bolza_group
    ball = group_ball(G, G.base_point, 6.0)
    zc = np.array([G.base_point.as_complex, 0.2 + 1.1j])
    md = min_displacement_batch(ball, zc)
    assert md[0] == pytest.approx(OCT_SYSTOLE, abs=1e-9)
    assert np.all(md >= OCT_SYSTOLE - 1e-9)


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(generators=())
    with pytest.raises(ValueError):
        group_ball(builtin_group("cyclic_L2"), Point(0, 1), -1.0)
