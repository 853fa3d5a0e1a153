"""Synthesized eigen-data for truncated hyperbolic cylinders.

The quotient of the plane by the cyclic group generated by a hyperbolic
translation of length L is an infinite cylinder; in Fermi coordinates
(rho, x) around its core geodesic the metric is
d rho^2 + cosh^2(rho) dx^2 with x of period L.  Truncating at
|rho| <= W with Neumann conditions yields a compact surface whose
spectrum is computable by separation of variables: for each circular
mode number n the radial factor solves the Sturm-Liouville problem

    -(cosh(rho) f')' / cosh(rho) + nu^2 f / cosh(rho)^2 = lambda f,
    nu = 2 pi n / L,  f'(+-W) = 0,

discretized here by a symmetric second-order finite-volume scheme.
Only the eigenvalues up to the cutoff are solved for, by Sturm-sequence
bisection on the tridiagonal matrix; they carry a roundoff floor of
about 1e-10 absolute, like any LAPACK solve of this operator.
Degree-m cyclic covers multiply the circumference (L -> m L), which
makes exact Weyl-term and boundary-term cancellations available in the
difference form S_m - m S_1 of the heat trace; the winding (geometric)
terms have the closed displacement law sinh(d_k/2) =
sinh(k m L / 2) cosh(rho).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .trace import EigenData
from .selberg import heat_kernel, _quad


def radial_mode_eigenvalues(nu: float, W: float, n_grid: int = 1500,
                            lam_max: float = None) -> np.ndarray:
    """Eigenvalues of the Neumann radial problem at circular frequency
    nu, ascending; only those <= lam_max when it is given.

    With lam_max, LAPACK's Sturm-sequence bisection (``stebz``) finds
    just the eigenvalues in (-1, lam_max]; the operator is positive
    semi-definite, so none lies at or below -1.  Without it the full
    spectrum comes from ``stevd``.  The two agree to about 1e-10
    absolute (under 1e-9 up to lam_max = 120 at W = 4, n_grid = 1500):
    a few eps * ||T||, the roundoff floor of any solve of this operator,
    whose norm 4 / h^2 is about 1.4e5 there."""
    if lam_max is not None and lam_max < 0.0:
        return np.empty(0)
    h = 2.0 * W / n_grid
    centers = -W + (np.arange(n_grid) + 0.5) * h
    faces = -W + np.arange(1, n_grid) * h
    c_center = np.cosh(centers)
    c_face = np.cosh(faces)
    # symmetric tridiagonal form of the finite-volume operator
    flux = np.zeros(n_grid + 1)
    flux[1:-1] = c_face  # zero flux (Neumann) at the ends
    diag = (flux[:-1] + flux[1:]) / (c_center * h * h) \
        + nu * nu / c_center ** 2
    off = -c_face / (h * h * np.sqrt(c_center[:-1] * c_center[1:]))
    if lam_max is None:
        select, select_range = "a", None
    else:
        select, select_range = "v", (-1.0, lam_max)
    vals = eigh_tridiagonal(diag, off, eigvals_only=True, select=select,
                            select_range=select_range)
    return np.clip(vals, 0.0, None)


def cylinder_spectrum(L: float, W: float, lam_max: float, degree: int = 1,
                      n_grid: int = 1500) -> EigenData:
    """EigenData for the degree-m cover of the truncated cylinder of
    core length L and half-width W: all Neumann eigenvalues up to
    lam_max (circular modes n != 0 carry multiplicity two)."""
    if not (degree >= 1 and 0.0 < L < math.inf and 0.0 < W < math.inf):
        raise ValueError("need degree >= 1 and finite L > 0, W > 0")
    mL = degree * L
    vol = 2.0 * mL * math.sinh(W)
    evs = list(radial_mode_eigenvalues(0.0, W, n_grid, lam_max))
    n = 1
    while True:
        nu = 2.0 * math.pi * n / mL
        if nu * nu / math.cosh(W) ** 2 > lam_max:
            break
        mode = radial_mode_eigenvalues(nu, W, n_grid, lam_max)
        evs.extend(np.repeat(mode, 2))
        n += 1
    evs = np.sort(np.asarray(evs))
    evs[0] = 0.0  # constant mode, exact
    return EigenData(volume=vol, eigenvalues=evs)


def winding_displacement(k_mL: float, rho) -> np.ndarray:
    """Displacement of the point at Fermi height rho under the
    translation of length k_mL along the core:
    sinh(d/2) = sinh(k_mL / 2) cosh(rho)."""
    return 2.0 * np.arcsinh(math.sinh(0.5 * k_mL) * np.cosh(rho))


def cylinder_geometric_side(L: float, W: float, t: float,
                            degree: int = 1) -> float:
    """Integral over the truncated cylinder of the winding heat sum:
    Sum_{k != 0} Integral_{-W}^{W} m L p_t(d_k(rho)) cosh(rho) d rho,
    by direct quadrature of the closed displacement law, over windings
    |k| <= 40 until a term falls below 1e-15 of the sum."""
    mL = degree * L
    total = 0.0
    for k in range(1, 41):
        val = _quad(
            lambda rho: float(heat_kernel(
                t, winding_displacement(k * mL, rho))) * math.cosh(rho),
            0.0, W, f"winding {k} heat integral", epsabs=1e-13,
            epsrel=1e-10, limit=200)
        term = 2.0 * mL * 2.0 * val  # both winding signs, both rho signs
        total += term
        if term < 1e-15 * max(abs(total), 1.0):
            break
    return total


def flat_mesh_eigendata(n_points: int, n_funcs: int, volume: float = 1.0,
                        seed: int = 0, lam_scale: float = 1.0) -> EigenData:
    """Synthetic eigen-data on an abstract flat mesh: uniform quadrature
    weights and a random orthonormal family of mesh functions, for
    exercising mesh-quadrature consumers (matrix elements, Gram
    checks).  Eigenvalues are an arbitrary increasing sequence starting
    at 0."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n_points, n_points))
    Q, _ = np.linalg.qr(M)
    weights = np.full(n_points, volume / n_points)
    # rows orthonormal under sum w_i v_i v'_i: scale by sqrt(n/volume)
    values = (Q[:, :n_funcs].T) * math.sqrt(n_points / volume)
    evs = np.concatenate(([0.0], np.sort(rng.random(n_funcs - 1))
                          * lam_scale + 0.3))
    pts = np.column_stack([np.linspace(0, 1, n_points),
                           np.ones(n_points)])
    return EigenData(volume=volume, eigenvalues=evs, mesh_points=pts,
                     mesh_weights=weights, mesh_values=values)
