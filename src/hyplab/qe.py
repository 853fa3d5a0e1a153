"""The quantum-ergodicity variance statistic and its quantitative
bound: for eigenvalues in a window I, the sum of squared deviations of
diagonal matrix elements <psi_j, a psi_j> from the volume-normalized
mean of a, compared against

    ||a||_2^2 / (rho_gap^2 R)
    + (e^{4R} / ell_min) * Vol(thin part below R) * ||a||_inf^2.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import NoMesh, GramDeviationTooLarge
from .trace import EigenData


@dataclass
class QEReport:
    """Variance statistic over a window plus the quantitative bound's
    ingredients."""

    interval: tuple
    variance_sum: float
    normalized: float
    count: int
    bound_main: float = math.nan
    bound_remainder: float = math.nan
    parameters: dict = field(default_factory=dict)
    per_term: list = field(default_factory=list)  # (lambda_j, <psi,a psi>, dev^2)

    def to_json(self, path=None) -> str:
        doc = asdict(self)
        text = json.dumps(doc, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def matrix_elements(E: EigenData, a_vals: np.ndarray) -> np.ndarray:
    """Diagonal matrix elements <psi_j, a psi_j> under the mesh
    quadrature, for all eigenfunctions."""
    if not E.has_mesh:
        raise NoMesh("eigen-data has no quadrature mesh")
    V = np.asarray(E.mesh_values, dtype=float)
    W = np.asarray(E.mesh_weights, dtype=float)
    return (V * (W * a_vals)[None, :] * V).sum(axis=1)


def _mesh_values(E: EigenData, a) -> np.ndarray:
    """a on the mesh: called on each mesh point, or taken as given."""
    if not E.has_mesh:
        raise NoMesh("eigen-data has no quadrature mesh")
    if callable(a):
        return np.asarray([a(p) for p in E.mesh_points], dtype=float)
    return np.asarray(a, dtype=float)


def qe_variance(E: EigenData, a, interval) -> QEReport:
    """The QE variance statistic of a over eigenvalues in ``interval``.

    ``a`` may be a callable on mesh points (rows (x, y)) or an array of
    values on the mesh.  The volume-normalized mean of a is subtracted
    from each diagonal matrix element; squared deviations are summed
    over lambda_j in the window.
    """
    a_vals = _mesh_values(E, a)
    lam_lo, lam_hi = interval
    gram_dev = E.gram_deviation()
    if gram_dev > 1e-2:
        warnings.warn(
            f"mesh Gram deviation {gram_dev:.2e} exceeds 1e-02; matrix "
            "elements may be unreliable", GramDeviationTooLarge)
    W = np.asarray(E.mesh_weights, dtype=float)
    mean_a = float((W * a_vals).sum()) / float(W.sum())
    diag = matrix_elements(E, a_vals)
    ev = E.eigenvalues[:len(diag)]
    in_window = (ev >= lam_lo) & (ev <= lam_hi)
    devs = (diag - mean_a) ** 2
    variance_sum = float(devs[in_window].sum())
    count = int(np.count_nonzero(in_window))
    per_term = [(float(l), float(d), float(s))
                for l, d, s in zip(ev[in_window], diag[in_window],
                                   devs[in_window])]
    return QEReport(interval=(float(lam_lo), float(lam_hi)),
                    variance_sum=variance_sum,
                    normalized=variance_sum / max(count, 1),
                    count=count,
                    parameters={"gram_deviation": gram_dev,
                                "mean_a": mean_a},
                    per_term=per_term)


def quantitative_bound(a_l2: float, a_sup: float, R: float, ell_min: float,
                       rho_gap: float, thin_volume: float):
    """The two terms of the variance bound: main = ||a||_2^2 /
    (rho_gap^2 R); remainder = (e^{4R}/ell_min) * thin_volume *
    ||a||_inf^2.  With thin_volume = 0 (possible whenever R < ell_min)
    the bound reduces to its main term."""
    if R <= 0.0 or ell_min <= 0.0 or rho_gap <= 0.0:
        raise ValueError("R, ell_min and rho_gap must be positive")
    if thin_volume < 0.0:
        raise ValueError("thin_volume must be nonnegative")
    main = a_l2 ** 2 / (rho_gap ** 2 * R)
    remainder = (math.exp(4.0 * R) / ell_min) * thin_volume * a_sup ** 2
    return main, remainder


def qe_report(E: EigenData, a, interval, R: float, ell_min: float,
              rho_gap: float, thin_volume: float) -> QEReport:
    """qe_variance plus the evaluated quantitative bound, with the norms
    of a estimated by the same mesh quadrature as the matrix elements."""
    a_vals = _mesh_values(E, a)
    report = qe_variance(E, a_vals, interval)
    W = np.asarray(E.mesh_weights, dtype=float)
    mean_a = report.parameters["mean_a"]
    centered = a_vals - mean_a
    a_l2 = math.sqrt(float((W * centered ** 2).sum()))
    a_sup = float(np.max(np.abs(centered)))
    main, rem = quantitative_bound(a_l2, a_sup, R, ell_min, rho_gap,
                                   thin_volume)
    report.bound_main = main
    report.bound_remainder = rem
    report.parameters.update({"R": R, "ell_min": ell_min,
                              "rho_gap": rho_gap,
                              "thin_volume": thin_volume,
                              "a_l2": a_l2, "a_sup": a_sup})
    return report
