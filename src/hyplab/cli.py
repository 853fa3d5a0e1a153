"""Command-line front end.

Each subcommand wraps one module, writes its tables as CSV (comma
separated, LF endings, 17 significant digits) and/or JSON into the
--out directory, and finishes by writing manifest.json (the atomic
completion marker).  Exit codes: 0 success, 1 numerical failure (with
error.json diagnostic), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .errors import HyplabError
from .geom import (Point, ball_volume, polar_from, polar_to,
                   sample_ball_complex, _dist_c, _threads)
from . import fuchsian, selberg, spectral_action, propagator, trace, qe


# ---------------------------------------------------------------- output

def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=float)
        fh.write("\n")


class _Run:
    """Collects output paths, tolerances and run diagnostics, then writes
    the manifest."""

    def __init__(self, args):
        self.args = args
        self.out_dir = args.out
        os.makedirs(self.out_dir, exist_ok=True)
        # markers of an earlier run must not outlive this one
        for name in ("manifest.json", "error.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.out_dir, name))
        self.outputs = []
        self.tolerances = {}
        # the size of the block pool that the Monte Carlo loops run on
        self.diagnostics = {"threads": _threads()}
        self.gl0 = dict(selberg._gl_counts)
        self.t0 = time.monotonic()

    def path(self, name):
        p = os.path.join(self.out_dir, name)
        self.outputs.append(p)
        return p

    def csv(self, name, header, rows):
        _write_csv(self.path(name), header, rows)

    def json(self, name, doc):
        _write_json(self.path(name), doc)

    def finish(self, command):
        cfg = {k: v for k, v in sorted(vars(self.args).items())
               if k not in ("func", "out") and not callable(v)}
        blob = json.dumps(cfg, sort_keys=True, default=str).encode()
        # the Gauss-Legendre rules this run read from the table or computed
        self.diagnostics["gauss_legendre"] = {
            k: v - self.gl0[k] for k, v in selberg._gl_counts.items()}
        manifest = {
            "command": command,
            "config_hash": hashlib.sha256(blob).hexdigest(),
            "seed": self.args.seed,
            "tolerances": self.tolerances,
            "outputs": self.outputs,
            "diagnostics": self.diagnostics,
            "wall_time": time.monotonic() - self.t0,
        }
        path = os.path.join(self.out_dir, "manifest.json")
        _write_json(path + ".tmp", manifest)
        os.replace(path + ".tmp", path)


# ---------------------------------------------------------------- helpers

def _pair(text):
    """An argparse type: two comma-separated numbers."""
    try:
        a, b = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be two comma-separated numbers") from None
    return a, b


def _load_group(name_or_path) -> fuchsian.GroupSpec:
    if os.path.exists(name_or_path):
        return fuchsian.load_group(name_or_path)
    return fuchsian.builtin_group(name_or_path)


def _record_domain(run, G):
    """The Dirichlet domain the command sampled or searched, under
    diagnostics.domain."""
    dom = fuchsian._domain(G)
    run.diagnostics["domain"] = {"area": dom.area, "radius": dom.radius,
                                 "sides": dom.sides.shape[1]}


# ------------------------------------------------------------ subcommands

def _cmd_geom_check(run, args):
    tol = args.tol if args.tol is not None else 1e-9
    run.tolerances["geom_defect"] = tol
    rng = np.random.default_rng(args.seed)
    n = 200
    z0 = Point(0.3, 1.7)
    pts = sample_ball_complex(z0, 4.0, n, args.seed)
    pts2 = sample_ball_complex(z0, 4.0, n, args.seed + 1)
    d12 = _dist_c(pts, pts2)
    d21 = _dist_c(pts2, pts)
    checks = [("distance_symmetry", float(np.max(np.abs(d12 - d21))))]
    # polar roundtrip: from + to are mutually inverse
    defect = 0.0
    for k in range(50):
        z = Point(float(pts[k].real), float(pts[k].imag))
        theta, r = float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.1, 5))
        w = polar_from(z, theta, r)
        th2, r2 = polar_to(z, w)
        defect = max(defect, abs(r2 - r),
                     abs((th2 - theta + math.pi) % (2 * math.pi) - math.pi))
    checks.append(("polar_roundtrip", defect))
    # triangle inequality on sampled triples
    d01 = _dist_c(pts, np.roll(pts, 1))
    d02 = _dist_c(pts, np.roll(pts, 2))
    d12b = _dist_c(np.roll(pts, 1), np.roll(pts, 2))
    checks.append(("triangle_inequality",
                   float(np.max(np.maximum(0.0, d12b - d01 - d02)))))
    # ball volume against 2 pi (cosh r - 1) at r = 1
    checks.append(("ball_volume_r1",
                   abs(ball_volume(1.0) - 2 * math.pi * (math.cosh(1) - 1))))
    run.csv("geom_check.csv", ["check", "max_defect"], checks)
    worst = max(v for _, v in checks)
    if worst > tol:
        raise HyplabError(f"geometry defect {worst:.2e} exceeds {tol:.0e}")


def _cmd_group(run, args):
    G = _load_group(args.group)
    if args.action == "ball":
        ball = fuchsian.group_ball(G, G.base_point, args.radius)
        rows = []
        for (g, word), disp in zip(ball.elements, ball.displacements()):
            rows.append(("-".join(map(str, word)), g.a, g.b, g.c, g.d,
                         float(disp)))
        run.csv("group_ball.csv", ["word", "a", "b", "c", "d",
                                   "displacement"], rows)
        run.json("group_ball.json", {"group": G.name, "radius": args.radius,
                                     "count": len(ball)})
        run.diagnostics["enumeration"] = dataclasses.asdict(ball.stats)
    elif args.action == "injrad":
        val = fuchsian.injectivity_radius(G, G.base_point, args.rcap)
        run.json("injrad.json", {"group": G.name, "R_cap": args.rcap,
                                 "injectivity_radius": val})
    elif args.action == "systole":
        val = fuchsian.systole(G, args.search_radius)
        run.json("systole.json", {"group": G.name,
                                  "search_radius": args.search_radius,
                                  "systole": val})
    else:  # thin-part
        frac, err = fuchsian.thin_part_fraction(G, args.radius, args.n,
                                                args.seed)
        run.json("thin_part.json", {"group": G.name, "R": args.radius,
                                    "fraction": frac, "error": err})
    if args.action in ("systole", "thin-part"):
        _record_domain(run, G)


def _kernel_by_name(name, t):
    if name == "disc":
        return selberg.disc_kernel(t)
    if name == "heat":
        return selberg.RadialKernel(
            eval=lambda rho: selberg.heat_kernel(t, rho),
            support=selberg._heat_profile(t)[1])
    raise argparse.ArgumentTypeError(f"unknown kernel '{name}'")


def _cmd_selberg(run, args):
    tol = args.tol if args.tol is not None else 1e-5
    run.tolerances["sup_error"] = tol
    if args.action == "forward":
        k = _kernel_by_name(args.kernel, args.t)
        h = selberg.selberg_forward(k)
        u_grid = np.linspace(0.0, k.support * 0.999, 200)
        run.csv("pair_g.csv", ["u", "g"],
                [(float(u), selberg.abel_transform(k, float(u)))
                 for u in u_grid])
        s_grid = np.linspace(0.0, args.smax, 200)
        run.csv("multiplier_h.csv", ["s", "h"],
                [(float(s), float(h.eval(s))) for s in s_grid])
    elif args.action == "inverse":
        h = selberg.heat_multiplier(args.t)
        k = selberg.selberg_inverse(h, band=args.band)
        rho_grid = np.linspace(0.0, k.support, 200)
        run.csv("kernel_k.csv", ["rho", "k"],
                list(zip(rho_grid.tolist(), k.eval(rho_grid).tolist())))
    elif args.action == "roundtrip":
        k = _kernel_by_name(args.kernel, args.t)
        h = selberg.selberg_forward(k)
        k2 = selberg.selberg_inverse(h, band=args.band,
                                     roundtrip_check=False)
        h2 = selberg.selberg_forward(k2, error_budget=1e-6)
        # multiplier-space sup error is well defined even for kernels
        # with a jump (where band-limited inversion rings at the edge)
        s_grid = np.linspace(0.0, 0.5 * args.band, 60)
        sup_err = max(abs(h2.eval(s) - h.eval(s)) for s in s_grid)
        run.json("roundtrip.json", {"kernel": args.kernel, "t": args.t,
                                    "band": args.band, "sup_error": sup_err})
        if sup_err > tol:
            raise HyplabError(
                f"roundtrip sup error {sup_err:.2e} exceeds {tol:.0e}")
    else:  # heat
        rho = np.linspace(0.0, 6.0, 400)
        vals = selberg.heat_kernel(args.t, rho)
        run.csv("heat_kernel.csv", ["rho", "p_t"],
                [(float(r), float(v)) for r, v in zip(rho, vals)])
        run.json("heat.json", {"t": args.t,
                               "mass": selberg.heat_kernel_mass(args.t),
                               "C_t": selberg.heat_bound_constant(args.t)})


def _cmd_propagator(run, args):
    uses_group = args.action in ("hs", "ergodic-decay", "midpoint-check")
    if uses_group:
        G = _load_group(args.group)
    if args.action == "kernel":
        a = propagator.const_observable(1.0)
        z = Point(0.0, 1.0)
        w = polar_from(z, 0.3, args.r)
        est = propagator.kernel_PtaPt(a, z, w, args.t, args.n, args.seed)
        run.json("kernel.json", {"t": args.t, "r": args.r,
                                 "value": est.value, "error": est.error,
                                 **est.extras})
    elif args.action == "lens-volume":
        rows = []
        for r in np.linspace(0.0, 2.0 * args.t * 0.95, args.n_r):
            est = propagator.intersection_volume(args.t, float(r), args.n,
                                                 args.seed)
            rows.append((args.t, float(r), est.value, est.error))
        run.csv("lens_volume.csv", ["t", "r", "volume", "error"], rows)
    elif args.action == "hs":
        a = propagator.Observable(
            eval=lambda z: np.sign(np.real(z)), sup_bound=1.0)
        main, rem = propagator.hs_norm_estimate(G, a, args.T, args.radius,
                                                args.n, args.seed)
        run.json("hs.json", {"T": args.T, "R": args.radius,
                             "main": main.value, "main_error": main.error,
                             "remainder_bound": rem.value})
    elif args.action == "ergodic-decay":
        a = propagator.Observable(
            eval=lambda z: np.sign(np.real(z)), sup_bound=1.0)
        t_list = [float(v) for v in args.tlist.split(",")]
        rows = propagator.ergodic_average_decay(G, a, t_list, args.r,
                                                args.n, args.seed)
        run.csv("ergodic_decay.csv", ["t", "lens_volume", "deviation"], rows)
        # least-squares decay exponent of deviation vs lens volume
        vols = np.log([row[1] for row in rows])
        devs = np.log([max(row[2], 1e-300) for row in rows])
        theta = -float(np.polyfit(vols, devs, 1)[0])
        run.json("ergodic_decay.json", {"theta_hat": theta})
    else:  # midpoint-check
        def f(mc, theta, r):
            return np.exp(-np.asarray(r))
        lhs, rhs = propagator.midpoint_change_of_var_check(
            f, args.radius, G, args.n, args.seed)
        sigma = math.hypot(lhs.error, rhs.error)
        run.json("midpoint_check.json", {
            "lhs": lhs.value, "rhs": rhs.value,
            "lhs_error": lhs.error, "rhs_error": rhs.error,
            "deviation_sigmas": abs(lhs.value - rhs.value)
            / max(sigma, 1e-300)})
    if uses_group:
        _record_domain(run, G)


def _cmd_spectral_action(run, args):
    I = spectral_action.SpectralInterval(*args.interval)
    c_I, k0 = spectral_action.verify_period_bound(I, k_max=50,
                                                  grid_n=args.grid_n)
    s_grid, avgs = spectral_action.time_average_table(I, args.T, args.grid_n)
    run.csv("time_average.csv", ["s", "avg"],
            [(float(s), float(v)) for s, v in zip(s_grid, avgs)])
    i_min = int(np.argmin(avgs))
    run.json("spectral_action.json", {"interval": [I.a, I.b], "T": args.T,
                                      "c_I": c_I, "k0": k0,
                                      "C_I_estimate": float(avgs[i_min]),
                                      "argmin_s": float(s_grid[i_min])})


def _cylinder_spectrum(run, args, lam_max, degree):
    """synthetic.cylinder_spectrum, with its eigenvalue count and time
    recorded under diagnostics.spectrum."""
    from . import synthetic
    t0 = time.perf_counter()
    E = synthetic.cylinder_spectrum(args.L, args.W, lam_max, degree=degree,
                                    n_grid=args.n_grid)
    run.diagnostics.setdefault("spectrum", []).append(
        {"degree": degree, "eigenvalues": len(E.eigenvalues),
         "seconds": time.perf_counter() - t0})
    return E


def _cmd_trace(run, args):
    if args.action == "weyl":
        lam_lo, lam_hi = args.window
        f = trace.smoothed_window(lam_lo, lam_hi, args.eps)
        val = trace.weyl_density(f, math.sqrt(lam_hi + args.eps) + 1.0)
        run.json("weyl.json", {"window": [lam_lo, lam_hi], "eps": args.eps,
                               "weyl_density": val})
    elif args.action == "pretrace":
        from . import synthetic
        E = _cylinder_spectrum(run, args, args.lam_max, args.degree)
        spectral, s_tail = trace.heat_trace_spectral(E, args.t)
        geom = synthetic.cylinder_geometric_side(args.L, args.W, args.t,
                                                 degree=args.degree)
        weyl = E.volume * trace.weyl_density(
            lambda lam: math.exp(-args.t * lam),
            math.sqrt(max(args.lam_max - 0.25, 1.0)) + 30.0)
        run.json("pretrace.json", {
            "t": args.t, "degree": args.degree,
            "spectral_side": spectral, "spectral_tail": s_tail,
            "weyl_term": weyl, "geometric_side": geom,
            "defect": spectral - weyl - geom})
    elif args.action == "count":
        lam_lo, lam_hi = args.window
        rows = []
        for m in (int(v) for v in args.degrees.split(",")):
            E = _cylinder_spectrum(run, args, lam_hi + 1.0, m)
            ev = E.eigenvalues
            count = int(np.count_nonzero((ev >= lam_lo) & (ev <= lam_hi)))
            f = trace.smoothed_window(lam_lo, lam_hi, 1e-6)
            weyl = trace.weyl_density(f, math.sqrt(lam_hi + 1.0))
            rows.append((m, count, E.volume, count / E.volume, weyl))
        run.csv("counts.csv", ["degree", "count", "volume",
                               "count_per_area", "weyl_density"], rows)
    else:  # expfit
        f = trace.smoothed_window(1.25, 4.25, 0.05)
        fit = trace.exp_sum_fit(f, args.K, (0.0, args.xmax))
        run.csv("expfit.csv", ["rate", "coefficient"],
                list(zip(map(float, fit.rates),
                         map(float, fit.coefficients))))
        run.json("expfit.json", {"K": args.K, "sup_error": fit.sup_error,
                                 "ill_conditioned": fit.ill_conditioned})


def _cmd_qe(run, args):
    E = trace.load_eigendata(args.eigen)
    with open(args.observable) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("observable JSON must be an object")
    if "values" not in doc:
        raise ValueError("observable JSON has no field 'values'")
    a_vals = np.asarray(doc["values"], dtype=float)
    if args.R is not None:
        report = qe.qe_report(E, a_vals, args.interval, R=args.R,
                              ell_min=args.ell_min, rho_gap=args.rho_gap,
                              thin_volume=args.thin_volume)
    else:
        report = qe.qe_variance(E, a_vals, args.interval)
    report.to_json(run.path("qe_report.json"))
    run.csv("qe_terms.csv", ["lambda", "matrix_element", "sq_deviation"],
            report.per_term)


# ------------------------------------------------------------------ main

def _build_parser():
    p = argparse.ArgumentParser(
        prog="hyplab",
        description="Numerical toolkit for averaging operators, trace "
                    "sums and eigenfunction statistics on hyperbolic "
                    "surfaces.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--out", default="out")
    sub = p.add_subparsers(dest="cmd", required=True)

    sub.add_parser("geom-check", parents=[common]).set_defaults(
        func=_cmd_geom_check)

    g = sub.add_parser("group", parents=[common])
    g.add_argument("action", choices=["ball", "injrad", "systole",
                                      "thin-part"])
    g.add_argument("--group", default="cyclic_L2",
                   help="builtin name or JSON path")
    g.add_argument("--radius", type=float, default=4.0)
    g.add_argument("--rcap", type=float, default=8.0)
    g.add_argument("--search-radius", type=float, default=4.0)
    g.add_argument("--n", type=int, default=2000)
    g.set_defaults(func=_cmd_group)

    s = sub.add_parser("selberg", parents=[common])
    s.add_argument("action", choices=["forward", "inverse", "roundtrip",
                                      "heat"])
    s.add_argument("--kernel", default="disc", choices=["disc", "heat"])
    s.add_argument("--t", type=float, default=1.0)
    s.add_argument("--band", type=float, default=8.0)
    s.add_argument("--smax", type=float, default=8.0)
    s.set_defaults(func=_cmd_selberg)

    pr = sub.add_parser("propagator", parents=[common])
    pr.add_argument("action", choices=["kernel", "hs", "ergodic-decay",
                                       "midpoint-check", "lens-volume"])
    pr.add_argument("--group", default="cyclic_L2")
    pr.add_argument("--t", type=float, default=2.0)
    pr.add_argument("--T", type=float, default=2.0)
    pr.add_argument("--r", type=float, default=1.0)
    pr.add_argument("--radius", type=float, default=1.5)
    pr.add_argument("--tlist", default="2,3,4")
    pr.add_argument("--n", type=int, default=2000)
    pr.add_argument("--n-r", type=int, default=8)
    pr.set_defaults(func=_cmd_propagator)

    sa = sub.add_parser("spectral-action", parents=[common])
    sa.add_argument("--interval", type=_pair, default="1,2")
    sa.add_argument("--T", type=float, default=50.0)
    sa.add_argument("--grid-n", type=int, default=16)
    sa.set_defaults(func=_cmd_spectral_action)

    tr = sub.add_parser("trace", parents=[common])
    tr.add_argument("action", choices=["weyl", "pretrace", "count",
                                       "expfit"])
    tr.add_argument("--window", type=_pair, default="1.25,4.25")
    tr.add_argument("--eps", type=float, default=0.05)
    tr.add_argument("--L", type=float, default=2.0)
    tr.add_argument("--W", type=float, default=4.0)
    tr.add_argument("--t", type=float, default=1.0)
    tr.add_argument("--degree", type=int, default=1)
    tr.add_argument("--degrees", default="1,2,4")
    tr.add_argument("--lam-max", type=float, default=60.0)
    tr.add_argument("--n-grid", type=int, default=1500)
    tr.add_argument("--K", type=int, default=40)
    tr.add_argument("--xmax", type=float, default=5.0)
    tr.set_defaults(func=_cmd_trace)

    q = sub.add_parser("qe", parents=[common])
    q.add_argument("--eigen", required=True)
    q.add_argument("--observable", required=True,
                   help='JSON {"values": [...]} aligned with the mesh')
    q.add_argument("--interval", type=_pair, default="1.25,4.25")
    q.add_argument("--R", type=float, default=None)
    q.add_argument("--ell-min", type=float, default=1.0)
    q.add_argument("--rho-gap", type=float, default=0.5)
    q.add_argument("--thin-volume", type=float, default=0.0)
    q.set_defaults(func=_cmd_qe)
    return p


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    r = _Run(args)
    try:
        args.func(r, args)
    except (HyplabError, ValueError, OSError, KeyError, TypeError) as exc:
        _write_json(os.path.join(r.out_dir, "error.json"),
                    {"error": type(exc).__name__, "message": str(exc)})
        return 1
    r.finish(" ".join(["hyplab"] + list(argv)))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
