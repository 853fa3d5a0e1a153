"""hyplab benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

from the root of a source checkout.  Workloads: ``cli-groups``,
``cli-transforms``, ``api-session`` (see bench/README.md).  A run makes
as many whole passes over the workload's ops as fit in ``--seconds`` at
the pass's nominal length (at least one) and reports the median over
passes.  Every op runs in a worker process (``worker.py``) one at a
time, is timed around the call only, and has its outputs gated; a
failed op is counted, never fatal.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` additionally makes one traced pass and prints the
per-layer metrics: span self times and work counts per hyplab function
and module, and the tracing overhead (traced minus untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON report with per-op times, gate results and machine facts.
Exit status is 0 whenever the benchmark ran, whatever the gates said,
and 2 when it cannot run (for example without a hyplab source tree).

Self-test options: ``--size tiny`` runs a few-second pass;
``--inject bad-op`` adds an op that must fail; ``--inject gate-miss``
shifts every recorded reference value by 1e-6 (relative and absolute).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import (BAD_OPS, EIGENDATA_SIZE, FAMILIES, NOMINAL_PASS_S,
                       WORKLOADS, derive_seed, ops_for)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

# every worker must end by this many seconds after the run started
RUN_DEADLINE_S = 170
# the api-session pass has one interpreter; its set-up is the median
# of this many interpreter starts
API_STARTUPS = 7
QE_INTERVAL = (0.3, 4.5)
SELF_TIME_TOLERANCE_S = 1e-3
LAYERS = ("geom", "fuchsian", "selberg", "propagator", "spectral_action",
          "trace", "synthetic", "qe", "cli", "bench")


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("samples_per_s"):
        return "1/s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "count"


# ------------------------------------------------------------ processes

class Runner:
    """Spawns worker processes for one run and keeps their files in a
    private directory under .bench_out."""

    def __init__(self, args):
        self.args = args
        self.dir = os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                 f"-{os.getpid()}")
        self.spans_dir = os.path.join(OUT, "spans",
                                      f"{args.workload}-seed{args.seed}")
        os.makedirs(self.dir)
        os.makedirs(self.spans_dir, exist_ok=True)
        self.n = 0
        self.t0 = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        nproc = len(os.sched_getaffinity(0))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            try:
                limit = min(int(self.env.get(var, nproc)), nproc)
            except ValueError:
                limit = nproc
            self.env[var] = str(max(1, limit))

    def spawn(self, job: dict) -> dict:
        """Run one worker; returns its result (None if it died) with the
        parent's spawn and end times."""
        self.n += 1
        path = os.path.join(self.dir, f"job{self.n}.json")
        job = dict(job, root=ROOT, seed=self.args.seed,
                   result=os.path.join(self.dir, f"result{self.n}.json"),
                   inject=self.args.inject)
        with open(path, "w") as fh:
            json.dump(job, fh)
        t_spawn = time.monotonic()
        try:
            rc = subprocess.run(
                [sys.executable, WORKER, path], env=self.env,
                stdout=sys.stderr, cwd=ROOT,
                timeout=max(1.0, self.t0 + RUN_DEADLINE_S - t_spawn)
            ).returncode
        except subprocess.TimeoutExpired:
            rc = None
        t_end = time.monotonic()
        result = None
        if rc == 0 and os.path.exists(job["result"]):
            with open(job["result"]) as fh:
                result = json.load(fh)
        return {"t_spawn": t_spawn, "t_end": t_end, "rc": rc,
                "result": result}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _op_job(runner, op, pass_id):
    return {"name": op.name, "family": op.family, "argv": list(op.argv),
            "params": op.params,
            "seed": derive_seed(runner.args.seed, op.name),
            "out": os.path.join(runner.dir, f"{pass_id}-{op.name}")}


def run_pass(runner, ops, pass_id: str, traced: bool, facts: bool) -> dict:
    """One pass over the workload's ops; returns per-op records and
    per-process set-up times."""
    args = runner.args
    procs = []   # (start + import seconds, extra set-up seconds, peak MB)
    records = []
    traces = []
    inputs = None

    def account(spawned, job_ops):
        res = spawned["result"]
        if res is None:
            # the worker died: every op of the job failed; the job's
            # elapsed time is charged to its first op
            elapsed = spawned["t_end"] - spawned["t_spawn"]
            for k, op in enumerate(job_ops):
                records.append({"name": op["name"], "family": op["family"],
                                "wall_s": elapsed if k == 0 else 0.0,
                                "cpu_s": 0.0, "ok": False, "checks": [],
                                "error": f"worker exit {spawned['rc']}",
                                "files_written": 0, "bytes_written": 0})
            return None
        procs.append((res["t_ready"] - spawned["t_spawn"], res["inputs_s"],
                      res["peak_rss_mb"]))
        records.extend(res["ops"])
        if "trace" in res:
            traces.append(res["trace"])
        return res

    if args.workload == "cli-transforms":
        spec = {"size": EIGENDATA_SIZE[args.size],
                "eigen": os.path.join(runner.dir, "eigen.json"),
                "observable": os.path.join(runner.dir, "observable.json"),
                "interval": QE_INTERVAL}
        res = account(runner.spawn({"kind": "inputs", "inputs": spec}), [])
        inputs = res["inputs"] if res else spec
    facts_out = None
    if args.workload == "api-session":
        jobs = [[_op_job(runner, op, pass_id) for op in ops]]
    else:
        jobs = [[_op_job(runner, op, pass_id)] for op in ops]
    for job_ops in jobs:
        kind = "cli" if job_ops[0]["argv"] else "api"
        job = {"kind": kind, "ops": job_ops, "trace": traced,
               "facts": facts and facts_out is None, "inputs": inputs,
               "spans": os.path.join(runner.spans_dir,
                                     f"{job_ops[0]['name']}.json")}
        res = account(runner.spawn(job), job_ops)
        if res and "facts" in res:
            facts_out = res["facts"]
    if args.workload == "api-session":
        for _ in range(API_STARTUPS - 1):
            account(runner.spawn({"kind": "startup"}), [])
    return {"records": records, "procs": procs, "traces": traces,
            "facts": facts_out}


# -------------------------------------------------------------- metrics

def pass_metrics(p: dict, workload: str) -> dict:
    records, procs = p["records"], p["procs"]
    starts = [start for start, _, _ in procs]
    interpreters = 1 if workload == "api-session" else len(starts)
    m = {
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mb": max([mb for _, _, mb in procs] or [0.0]),
        "setup_s": (interpreters * statistics.median(starts) if starts
                    else 0.0) + sum(extra for _, extra, _ in procs),
    }
    for fam in FAMILIES:
        m[f"family.{fam}_s"] = sum(r["wall_s"] for r in records
                                   if r["family"] == fam)
    return m


def layer_metrics(traced: dict, names):
    """Per-layer metrics of the traced pass, and per-op span totals."""
    functions = {}
    ops = {}
    spans = 0
    for tr in traced["traces"]:
        spans += tr["spans"]
        for fn, st in tr["functions"].items():
            acc = functions.setdefault(fn, {})
            for key, val in st.items():
                acc[key] = acc.get(key, 0) + val
        for op, st in tr["ops"].items():
            ops[op] = st
    m = {"tracing.spans": spans,
         "cli.bytes_written": sum(r["bytes_written"]
                                  for r in traced["records"]),
         "cli.files_written": sum(r["files_written"]
                                  for r in traced["records"])}
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            st.get("self_s", 0.0) for fn, st in functions.items()
            if fn.split(".")[0] == layer)
    sampler = functions.get("geom.sample_ball_complex", {})
    m["geom.samples_per_s"] = (sampler["points"] / sampler["self_s"]
                               if sampler.get("self_s") else 0.0)
    m["selberg.heat_profile_builds"] = functions.get(
        "selberg._heat_profile", {}).get("builds", 0)
    for name in names:
        if name in m or name.startswith(("family.", "tracing.")):
            continue
        fn, _, key = name.rpartition(".")
        m[name] = functions.get(fn, {}).get(key, 0)
    return m, ops


# ---------------------------------------------------------------- facts

def _source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "hyplab"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


# ----------------------------------------------------------------- main

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--inject", choices=("none", "bad-op", "gate-miss"),
                   default="none")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "hyplab", "__init__.py")):
        _die(f"no hyplab source tree under {SRC}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        _die(f"cannot read BENCHMARK.json: {exc}")
    # build: byte-compile once so no measured import compiles
    if not (compileall.compile_dir(os.path.join(SRC, "hyplab"), quiet=1)
            and compileall.compile_dir(HERE, quiet=1, maxlevels=0)):
        _die("byte-compiling the sources failed")

    ops = ops_for(args.workload, args.size)
    if args.inject == "bad-op":
        ops.append(BAD_OPS["api" if args.workload == "api-session"
                           else "cli"])
    passes = 1 if args.size == "tiny" else max(
        1, int(args.seconds // NOMINAL_PASS_S[args.workload]))

    runner = Runner(args)
    try:
        plain = [run_pass(runner, ops, f"pass{k}", traced=False,
                          facts=(k == 0))
                 for k in range(passes)]
        traced = (run_pass(runner, ops, "traced", traced=True, facts=False)
                  if args.trace else None)
    finally:
        runner.close()

    per_pass = [pass_metrics(p, args.workload) for p in plain]
    metrics = {k: statistics.median(m[k] for m in per_pass)
               for k in per_pass[0]}
    all_records = [r for p in plain + ([traced] if traced else [])
                   for r in p["records"]]
    attempted = len(all_records)
    failed = sum(1 for r in all_records if not r["ok"])
    invariant_ok = True
    report = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "passes": passes,
              "fail_ratio": failed / attempted,
              "machine": dict(plain[0]["facts"] or {},
                              git_commit=_git_commit(),
                              source_sha256=_source_digest()),
              "metrics": metrics,
              "ops": [{k: r[k] for k in ("name", "family", "wall_s", "cpu_s",
                                         "ok", "checks", "error")}
                      for r in plain[0]["records"]]}
    if traced:
        names = [m["name"] for m in spec["per_layer"]]
        layers, op_spans = layer_metrics(traced, names)
        traced_wall = pass_metrics(traced, args.workload)["wall_s"]
        layers["tracing.overhead_s"] = traced_wall - metrics["wall_s"]
        layers.update({k: v for k, v in metrics.items()
                       if k.startswith("family.")})
        # the self times of an op's spans must add up to the op's traced
        # wall time, up to the few microseconds spent entering the root span
        op_wall = {r["name"]: r["wall_s"] for r in traced["records"]}
        residual = max([abs(o["self_sum_s"] - op_wall[op])
                        for op, o in op_spans.items()] or [math.inf])
        invariant_ok = residual <= SELF_TIME_TOLERANCE_S
        total = sum(layers[f"layer.{l}.self_s"] for l in LAYERS) or 1.0
        report["trace"] = {
            "traced_wall_s": traced_wall, "self_time_residual_s": residual,
            "layer_share": {l: layers[f"layer.{l}.self_s"] / total
                            for l in LAYERS},
            "ops": op_spans}
        metrics.update(layers)
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    out = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics or entry["unit"] != _unit(name):
            _die(f"metric {name} [{entry['unit']}] is not produced")
        out[name] = {"value": metrics[name], "unit": entry["unit"]}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"report-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and invariant_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
