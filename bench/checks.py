"""Output gates for every benchmark op.

Three kinds of gate:

* reference: deterministic outputs equal the values recorded in
  ``reference.json`` to relative 1e-8 (plus a 1e-12 absolute floor for
  entries at rounding level); group-ball counts must be equal and
  sorted displacements equal to 1e-9;
* proven facts: the Bolza systole 2 arccosh(1 + sqrt 2), an empty thin
  part below half the systole, the packing bound on ball counts, the
  cyclic displacements 2k, unit heat mass, the closed-form multiplier,
  and the QE variance recomputed by brute force;
* Monte Carlo: a 4-sigma gate against an exact value or a twin
  estimator.

A gate never raises for a wrong output; it records a failed check.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy import integrate

REL_TOL = 1e-8
ABS_FLOOR = 1e-12
DISP_TOL = 1e-9
MC_SIGMAS = 4.0

BOLZA_SYSTOLE = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
# systole of each built-in surface: Bolza's is the proven value above;
# the cylinder's is its core length, the translation length 2
SYSTOLE = {"bolza": BOLZA_SYSTOLE, "cyclic_L2": 2.0}

# shift of every reference value (relative and absolute) for --inject gate-miss
GATE_MISS = 1e-6


class Gate:
    """Collects the checks of one op."""

    def __init__(self, perturb: float = 0.0):
        self.perturb = perturb
        self.results = []

    def check(self, name: str, ok, detail: str = "") -> bool:
        self.results.append({"check": name, "ok": bool(ok),
                             "detail": detail})
        return bool(ok)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r["ok"] for r in self.results)

    def expected(self, value: float) -> float:
        """A reference value, shifted when a gate miss is injected."""
        return value * (1.0 + self.perturb) + self.perturb

    def mc(self, name: str, value: float, exact: float, sigma: float):
        dev = abs(value - exact) / sigma if sigma > 0 else math.inf
        if value == exact:
            dev = 0.0
        return self.check(name, dev <= MC_SIGMAS,
                          f"{dev:.2f} sigma (value {value:.6g}, "
                          f"exact {exact:.6g})")


# ------------------------------------------------------------ CLI files

def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {"header": rows[0], "rows": [[_cell(v) for v in r]
                                        for r in rows[1:]]}


def read_outputs(out_dir) -> dict:
    """Every CSV and JSON output of a CLI run except the manifest."""
    docs = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            docs[name] = read_csv(path)
        elif name.endswith(".json") and name not in ("manifest.json",
                                                     "error.json"):
            with open(path) as fh:
                docs[name] = json.load(fh)
    return docs


def _close(gate, got, ref) -> float:
    """Largest tolerance-scaled deviation between two nested values;
    > 1 means a mismatch (inf for a structural mismatch)."""
    if isinstance(ref, bool) or isinstance(ref, str) or ref is None:
        return 0.0 if got == ref else math.inf
    if isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return math.inf
        want = gate.expected(float(ref))
        return abs(float(got) - want) / (REL_TOL * abs(want) + ABS_FLOOR)
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return math.inf
        return max([_close(gate, got[k], ref[k]) for k in ref] or [0.0])
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return math.inf
        return max([_close(gate, g, r) for g, r in zip(got, ref)] or [0.0])
    return math.inf


def match_reference(gate: Gate, docs: dict, ref: dict) -> None:
    for name, want in ref.items():
        if name not in docs:
            gate.check(f"reference {name}", False, "file missing")
            continue
        worst = _close(gate, docs[name], want)
        gate.check(f"reference {name}", worst <= 1.0,
                   f"worst deviation {worst:.3g} x tolerance")


def _arg(argv, flag, default=None):
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else default


def packing_bound(R: float, ell: float) -> float:
    """(cosh(R + ell/2) - 1)/(cosh(ell/2) - 1): disjoint balls of radius
    ell/2 around the orbit points inside B(z, R + ell/2)."""
    return (math.cosh(R + 0.5 * ell) - 1.0) / (math.cosh(0.5 * ell) - 1.0)


def _check_group(gate, argv, docs, ref):
    action, group = argv[1], _arg(argv, "--group")
    ell = SYSTOLE[group]
    if action == "ball":
        R = float(_arg(argv, "--radius"))
        table = docs["group_ball.csv"]
        col = table["header"].index("displacement")
        disp = np.sort([row[col] for row in table["rows"]])
        count = docs["group_ball.json"]["count"]
        gate.check("csv rows equal count", len(disp) == count,
                   f"{len(disp)} rows, count {count}")
        gate.check("count equals reference", count == ref["count"],
                   f"{count} vs {ref['count']}")
        want = np.array([gate.expected(v) for v in ref["displacements"]])
        worst = (float(np.max(np.abs(disp - want)))
                 if len(disp) == len(want) and len(want) else
                 (0.0 if len(disp) == len(want) else math.inf))
        gate.check("sorted displacements equal reference",
                   worst <= DISP_TOL, f"max |diff| {worst:.2e}")
        gate.check("displacements within radius",
                   not len(disp) or disp.max() <= R + DISP_TOL)
        bound = packing_bound(R, ell)
        gate.check("count within packing bound", count <= bound,
                   f"{count} <= {bound:.1f}")
        if group == "cyclic_L2":
            k = np.arange(1, int(math.floor(R / ell + 1e-9)) + 1)
            exact = np.repeat(ell * k, 2)
            gate.check("cyclic displacements are 2k, twice each",
                       len(disp) == len(exact)
                       and np.allclose(disp, exact, rtol=0, atol=DISP_TOL))
    elif action == "systole":
        val = docs["systole.json"]["systole"]
        gate.check("systole equals the surface's systole",
                   abs(val - ell) <= DISP_TOL, f"{val!r} vs {ell!r}")
        match_reference(gate, docs, ref)
    elif action == "injrad":
        val = docs["injrad.json"]["injectivity_radius"]
        gate.check("injectivity radius at the base point is ell/2",
                   abs(val - 0.5 * ell) <= DISP_TOL, f"{val!r}")
        match_reference(gate, docs, ref)
    else:  # thin-part
        R = float(_arg(argv, "--radius"))
        frac = docs["thin_part.json"]["fraction"]
        if 2.0 * R < ell:
            gate.check("thin part empty below half the systole",
                       frac == 0.0, f"fraction {frac!r}")


def check_cli(gate: Gate, argv, exit_code: int, out_dir, ref,
              expected=None) -> None:
    """Gate one CLI op from its exit code and its output directory."""
    ok = gate.check("exit code 0", exit_code == 0, f"exit {exit_code}")
    gate.check("manifest written",
               os.path.exists(os.path.join(out_dir, "manifest.json")))
    if not ok:
        return
    docs = read_outputs(out_dir)
    cmd = argv[0]
    if cmd == "group" and argv[1] == "thin-part":
        _check_group(gate, argv, docs, None)
        return
    if cmd == "geom-check":
        worst = max(row[1] for row in docs["geom_check.csv"]["rows"])
        gate.check("geometry defects <= 1e-9", worst <= 1e-9,
                   f"worst {worst:.2e}")
        return
    if cmd == "qe":
        rep = docs["qe_report.json"]
        want = expected["variance_sum"]
        diff = abs(rep["variance_sum"] - gate.expected(want))
        gate.check("variance_sum equals brute force",
                   diff <= 1e-12 * max(1.0, abs(want)), f"|diff| {diff:.2e}")
        gate.check("window count equals brute force",
                   rep["count"] == expected["count"])
        return
    if ref is None:
        gate.check("reference recorded", False, "no reference for op")
        return
    if cmd == "group":
        _check_group(gate, argv, docs, ref)
        return
    match_reference(gate, docs, ref)
    if cmd == "selberg":
        _check_selberg(gate, argv, docs)
    elif cmd == "spectral-action":
        doc = docs["spectral_action.json"]
        gate.check("c_I > 0", doc["c_I"] > 0.0)
        gate.check("k0 <= 50", doc["k0"] <= 50)


def _check_selberg(gate, argv, docs):
    from hyplab import spectral_action
    action = argv[1]
    t = float(_arg(argv, "--t", 1.0))
    if action == "roundtrip":
        err = docs["roundtrip.json"]["sup_error"]
        gate.check("roundtrip sup error <= 1e-5", err <= 1e-5, f"{err:.2e}")
    elif action == "forward" and _arg(argv, "--kernel", "disc") == "disc":
        rows = docs["multiplier_h.csv"]["rows"]
        worst = max(abs(h - spectral_action.h_t_closed(t, s))
                    for s, h in rows)
        gate.check("forward agrees with h_t_closed to 1e-6",
                   worst <= 1e-6, f"sup {worst:.2e}")
    elif action == "heat":
        mass = docs["heat.json"]["mass"]
        gate.check("heat mass within 1e-6 of 1", abs(mass - 1.0) <= 1e-6,
                   f"{mass!r}")


# ------------------------------------------------------ exact references

def lens_area(t: float, r: float) -> float:
    """Exact area of B(z, t) cap B(w, t) with d(z, w) = r.

    In polar coordinates (rho, theta) around z, the law of cosines gives
    cosh d(p, w) = A cosh rho - B sinh rho with A = cosh r and
    B = sinh r cos theta, i.e. m cosh(rho - phi) with m = sqrt(A^2 - B^2)
    and tanh phi = B / A.  For each theta the lens is the rho-interval
    |rho - phi| <= arccosh(cosh t / m) inside [0, t], whose area element
    sinh rho integrates to a difference of cosh values.
    """
    A, C = math.cosh(r), math.cosh(t)

    def width(theta):
        B = math.sinh(r) * math.cos(theta)
        m = math.sqrt(A * A - B * B)
        if C <= m:
            return 0.0
        phi, half = math.atanh(B / A), math.acosh(C / m)
        lo, hi = max(0.0, phi - half), min(t, phi + half)
        return max(0.0, math.cosh(hi) - math.cosh(lo))

    val, _ = integrate.quad(width, 0.0, math.pi, epsabs=1e-12,
                            epsrel=1e-12, limit=500)
    return 2.0 * val
