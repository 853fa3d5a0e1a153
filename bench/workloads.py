"""The benchmark's three workloads: their op lists, sizes and seeds.

An op is one ``hyplab`` CLI argv (run in a fresh interpreter) or one
named API call (run in the pass's long-lived interpreter).  ``full`` is
the measured size; ``tiny`` is a few-second pass used by the
benchmark's self-tests.  Every seed an op uses is derived from the
workload seed given on the command line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

WORKLOADS = ("cli-groups", "cli-transforms", "api-session")

# op time of one full pass on a shared 2-core AMD EPYC VM; a run makes
# as many whole passes as fit in --seconds at this length, at least one
NOMINAL_PASS_S = {"cli-groups": 13.0, "cli-transforms": 13.0,
                  "api-session": 23.0}

# families whose summed op time is reported as family.<name>_s
FAMILIES = ("group", "selberg", "spectral_action", "trace", "propagator",
            "eigen_identity")


@dataclass(frozen=True)
class Op:
    name: str
    family: str
    argv: tuple = ()                             # CLI ops
    params: dict = field(default_factory=dict)   # API ops


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one op, fixed by the workload seed and the
    op's label."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _cli(name, family, text):
    return Op(name, family, argv=tuple(text.split()))


_CLI_GROUPS = {
    "full": [
        _cli("ball-bolza-r7", "group", "group ball --group bolza --radius 7"),
        _cli("ball-bolza-r6", "group", "group ball --group bolza --radius 6"),
        _cli("systole-bolza", "group",
             "group systole --group bolza --search-radius 1"),
        _cli("thin-part-bolza", "group",
             "group thin-part --group bolza --radius 0.8 --n 2000"),
        _cli("injrad-bolza", "group", "group injrad --group bolza --rcap 4"),
        _cli("ball-cyclic-r9", "group",
             "group ball --group cyclic_L2 --radius 9"),
        _cli("geom-check", "geom", "geom-check"),
    ],
    "tiny": [
        _cli("ball-bolza-r3", "group", "group ball --group bolza --radius 3"),
        _cli("systole-cyclic", "group",
             "group systole --group cyclic_L2 --search-radius 1"),
        _cli("thin-part-cyclic", "group",
             "group thin-part --group cyclic_L2 --radius 0.8 --n 200"),
        _cli("injrad-cyclic", "group", "group injrad --group cyclic_L2 --rcap 3"),
        _cli("ball-cyclic-r9", "group",
             "group ball --group cyclic_L2 --radius 9"),
        _cli("geom-check", "geom", "geom-check"),
    ],
}

_CLI_TRANSFORMS = {
    "full": [
        _cli("roundtrip-disc", "selberg",
             "selberg roundtrip --kernel disc --t 1"),
        _cli("roundtrip-heat", "selberg",
             "selberg roundtrip --kernel heat --t 1 --band 16"),
        _cli("forward-disc", "selberg", "selberg forward --kernel disc --t 1"),
        _cli("inverse", "selberg", "selberg inverse --t 1"),
        _cli("heat-1", "selberg", "selberg heat --t 1"),
        _cli("heat-0.5", "selberg", "selberg heat --t 0.5"),
        _cli("spectral-action", "spectral_action",
             "spectral-action --interval 1,2 --T 200 --grid-n 64"),
        _cli("pretrace", "trace", "trace pretrace --L 2 --W 4 --t 1"),
        _cli("count", "trace", "trace count --degrees 1,2,4 --window 1.25,4.25"),
        _cli("expfit", "trace", "trace expfit"),
        _cli("qe", "qe", "qe --interval 0.3,4.5 --R 2"),
    ],
    "tiny": [
        _cli("forward-disc", "selberg", "selberg forward --kernel disc --t 1"),
        _cli("heat-1", "selberg", "selberg heat --t 1"),
        _cli("spectral-action", "spectral_action",
             "spectral-action --interval 1,2 --T 20 --grid-n 8"),
        _cli("count", "trace",
             "trace count --degrees 1 --window 1.25,4.25 --n-grid 300"),
        _cli("expfit", "trace", "trace expfit"),
        _cli("qe", "qe", "qe --interval 0.3,4.5 --R 2"),
    ],
}

# flat-mesh eigendata generated at set-up for the qe op:
# (mesh points, eigenfunctions)
EIGENDATA_SIZE = {"full": (2000, 400), "tiny": (200, 40)}

_API_SESSION = {
    "full": [
        Op("eigen-identity", "eigen_identity",
           params={"s": (0.5, 1.0, 2.0), "t": (1.0, 2.0, 3.0),
                   "chunks": 2, "chunk_n": 4_000_000}),
        Op("midpoint", "propagator",
           params={"group": "bolza", "trials": 5, "R": 2.0, "n": 50_000}),
        Op("lens", "propagator",
           params={"t": (3.0, 4.0, 5.0, 6.0), "r": 1.0, "n": 200_000}),
        Op("ergodic", "propagator",
           params={"group": "bolza", "t": (2.0, 3.0, 4.0), "r": 1.0,
                   "n": 2000}),
        Op("hs", "propagator",
           params={"group": "cyclic_L2", "T": 2.0, "R": 1.0, "n": 2000}),
    ],
    "tiny": [
        Op("eigen-identity", "eigen_identity",
           params={"s": (1.0,), "t": (1.0,), "chunks": 2,
                   "chunk_n": 100_000}),
        Op("midpoint", "propagator",
           params={"group": "bolza", "trials": 1, "R": 0.5, "n": 2000}),
        Op("lens", "propagator",
           params={"t": (3.0, 4.0), "r": 1.0, "n": 20_000}),
        Op("ergodic", "propagator",
           params={"group": "bolza", "t": (2.0, 3.0), "r": 1.0, "n": 100}),
        Op("hs", "propagator",
           params={"group": "cyclic_L2", "T": 2.0, "R": 1.0, "n": 100}),
    ],
}

# ops added by --inject bad-op: each must be counted as a failure
BAD_OPS = {
    "cli": _cli("bad-subcommand", "none", "no-such-subcommand"),
    "api": Op("bad-call", "none", params={"t": -1.0}),
}


def ops_for(workload: str, size: str) -> list:
    table = {"cli-groups": _CLI_GROUPS, "cli-transforms": _CLI_TRANSFORMS,
             "api-session": _API_SESSION}[workload]
    return list(table[size])
