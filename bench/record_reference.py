"""Record the reference outputs that the CLI gates compare against.

    python3 bench/record_reference.py

Runs every deterministic CLI op of both CLI workloads (full and tiny
sizes) once, in this process, and rewrites ``bench/reference.json``.
Only re-record at a commit whose outputs are known to be right: the
gates then hold later commits to these values (relative 1e-8; group
balls by count and sorted displacements).  Seeded ops (``geom-check``,
``thin-part``, ``qe``) are gated by proven facts instead and have no
reference.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from hyplab import cli  # noqa: E402

from checks import read_outputs  # noqa: E402
from workloads import ops_for  # noqa: E402

SEEDED = ("geom-check", "qe")


def record_op(argv, out_dir) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    if cli.run(list(argv) + ["--out", out_dir]) != 0:
        raise SystemExit(f"reference op failed: {' '.join(argv)}")
    docs = read_outputs(out_dir)
    if argv[:2] == ("group", "ball"):
        table = docs["group_ball.csv"]
        col = table["header"].index("displacement")
        return {"count": docs["group_ball.json"]["count"],
                "displacements": sorted(r[col] for r in table["rows"])}
    return docs


def main() -> None:
    out_dir = os.path.join(ROOT, ".bench_out", "reference")
    reference = {}
    for workload in ("cli-groups", "cli-transforms"):
        for size in ("full", "tiny"):
            for op in ops_for(workload, size):
                if op.argv[0] in SEEDED or op.argv[:2] == ("group",
                                                           "thin-part"):
                    continue
                key = " ".join(op.argv)
                if key not in reference:
                    reference[key] = record_op(op.argv, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
