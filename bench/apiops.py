"""The api-session ops (named hyplab API calls) and their gates.

Each op is a function ``op(params, seed)`` returning its outputs; the
matching ``check_<op>(gate, params, seed, outputs)`` runs outside the
timed region with the tracer switched off.  hyplab functions are always
reached through their module (``propagator.apply_Pt``), so the traced
pass sees them through the wrappers.
"""

from __future__ import annotations

import math

import numpy as np

from hyplab import fuchsian, geom, propagator, selberg, spectral_action

from checks import lens_area
from workloads import derive_seed

# criterion 07's five randomized invariant test functions come from
# this generator seed
_MIDPOINT_FUNCTIONS_SEED = 424242
_PYTHAGORAS_GRID = [(t, r) for t in (2.0, 3.0, 4.0) for r in (0.8, 1.6)]
# ergodic_average_decay measures each lens volume with this many samples
_ERGODIC_LENS_SAMPLES = 20_000


def _sign_observable():
    return propagator.Observable(eval=lambda z: np.sign(np.real(z)),
                                 sup_bound=1.0)


# ------------------------------------------------------------ eigen-identity

def eigen_identity(p, seed):
    """P_t applied to the radial eigenfunction phi_s at its centre."""
    z0 = geom.Point(0.0, 1.0)
    z0c = z0.as_complex
    out = []
    for s in p["s"]:
        phi = selberg.spherical_oracle(s, 9.0)
        u = propagator.Observable(
            eval=lambda zc, phi=phi: phi(np.arccosh(
                1.0 + np.abs(zc - z0c) ** 2 / (2.0 * zc.imag * z0c.imag))),
            sup_bound=1.0)
        for t in p["t"]:
            ests = [propagator.apply_Pt(
                u, z0, t, p["chunk_n"],
                derive_seed(seed, f"eigen/{s}/{t}/{j}"))
                for j in range(p["chunks"])]
            value = sum(e.value for e in ests) / len(ests)
            sigma = math.sqrt(sum(e.error ** 2 for e in ests)) / len(ests)
            out.append((s, t, value, sigma))
    return out


def check_eigen_identity(gate, p, seed, out):
    for s, t, value, sigma in out:
        exact = gate.expected(spectral_action.h_t_closed(t, s))
        gate.mc(f"P_t phi_s = h_t(s) phi_s at t={t}, s={s}", value, exact,
                sigma)


# ------------------------------------------------------------------ midpoint

def _midpoint_functions(trials):
    rng = np.random.default_rng(_MIDPOINT_FUNCTIONS_SEED)
    fns = []
    for _ in range(trials):
        c = rng.uniform(0.5, 2.0, size=3)
        a = rng.uniform(0.5, 1.5)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        freq = int(rng.integers(1, 4))

        def f(mc, theta, r, c=c, a=a, phase=phase, freq=freq):
            mc, theta, r = map(np.asarray, (mc, theta, r))
            return (c[0] * np.exp(-a * r)
                    + c[1] * np.cos(freq * theta + phase) ** 2 * np.exp(-r)
                    + c[2] * np.abs(np.imag(mc)) * np.exp(-r * r))
        fns.append(f)
    return fns


def midpoint(p, seed):
    G = fuchsian.builtin_group(p["group"])
    return [propagator.midpoint_change_of_var_check(
        f, p["R"], G, p["n"], derive_seed(seed, f"midpoint/{k}"))
        for k, f in enumerate(_midpoint_functions(p["trials"]))]


def check_midpoint(gate, p, seed, out):
    for k, (lhs, rhs) in enumerate(out):
        gate.mc(f"trial {k}: lhs and rhs estimators agree", lhs.value,
                gate.expected(rhs.value), math.hypot(lhs.error, rhs.error))


# ---------------------------------------------------------------------- lens

def lens(p, seed):
    vols = [propagator.intersection_volume(t, p["r"], p["n"],
                                           derive_seed(seed, f"lens/{t}"))
            for t in p["t"]]
    pyth = max(propagator.pythagoras_check(t, r) for t, r in _PYTHAGORAS_GRID)
    return vols, pyth


def check_lens(gate, p, seed, out):
    vols, pyth = out
    r = p["r"]
    for t, est in zip(p["t"], vols):
        gate.mc(f"lens volume at t={t}", est.value,
                gate.expected(lens_area(t, r)), est.error)
    x = np.asarray(p["t"]) - 0.5 * r
    slope = float(np.polyfit(x, np.log([v.value for v in vols]), 1)[0])
    gate.check("log lens volume slope in [0.9, 1.1]", 0.9 <= slope <= 1.1,
               f"slope {slope:.4f}")
    gate.check("Pythagoras half-width defect <= 1e-9", pyth <= 1e-9,
               f"{pyth:.1e}")


# ------------------------------------------------------------------- ergodic

def ergodic(p, seed):
    G = fuchsian.builtin_group(p["group"])
    return propagator.ergodic_average_decay(
        G, _sign_observable(), list(p["t"]), p["r"], p["n"],
        derive_seed(seed, "ergodic"))


def check_ergodic(gate, p, seed, rows):
    r = p["r"]
    for t, vol, dev in rows:
        exact = lens_area(t, r)
        ball = geom.ball_volume(t)
        q = exact / ball  # acceptance of the rejection sampler
        sigma = ball * math.sqrt(q * (1.0 - q) / _ERGODIC_LENS_SAMPLES)
        gate.mc(f"lens volume at t={t}", vol, gate.expected(exact), sigma)
        # |a - mean a| <= 2 for a = sign(Re z), so the L^2 deviation too
        gate.check(f"deviation at t={t} in (0, 2]", 0.0 < dev <= 2.0,
                   f"{dev:.4f}")


# ------------------------------------------------------------------------ hs

def hs(p, seed, label="hs"):
    G = fuchsian.builtin_group(p["group"])
    return propagator.hs_norm_estimate(G, _sign_observable(), p["T"], p["R"],
                                       p["n"], derive_seed(seed, label))


def check_hs(gate, p, seed, out):
    main, remainder = out
    twin, _ = hs(p, seed, label="hs/twin")
    gate.mc("main term agrees with a twin estimate", main.value,
            gate.expected(twin.value), math.hypot(main.error, twin.error))
    if p["group"] == "cyclic_L2" and p["R"] <= 1.0:
        # every point of the cylinder is displaced by at least its core
        # length 2 >= 2R, so the thin part, hence the remainder, is empty
        gate.check("remainder is 0 (empty thin part)", remainder.value == 0.0,
                   f"{remainder.value!r}")


# ------------------------------------------------------------------- bad-call

def bad_call(p, seed):
    """An op that must fail: P_t at a negative time raises ValueError."""
    return propagator.apply_Pt(propagator.const_observable(1.0),
                               geom.Point(0.0, 1.0), p["t"], 10, seed)


def check_bad_call(gate, p, seed, out):
    gate.check("bad call raised", False, "the call returned a value")


OPS = {
    "eigen-identity": (eigen_identity, check_eigen_identity),
    "midpoint": (midpoint, check_midpoint),
    "lens": (lens, check_lens),
    "ergodic": (ergodic, check_ergodic),
    "hs": (hs, check_hs),
    "bad-call": (bad_call, check_bad_call),
}
