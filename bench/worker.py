"""One benchmark process: runs one job of a pass in a fresh interpreter.

    python3 bench/worker.py JOB.json

``run.py`` writes the job and reads the result the worker writes back.
The worker first imports every hyplab module; that import, with the
interpreter start before it, is the measured set-up of the process.
Then, by job kind:

* ``startup``: nothing more (a set-up measurement only);
* ``inputs``: generate the eigendata and observable for the qe op
  (timed as set-up) and the brute-force values its gate expects;
* ``cli`` / ``api``: run the listed ops.  Each op is timed around the
  call only (wall and process CPU time); its outputs are gated
  afterwards, outside the timed region and with the tracer off.

With ``trace`` set the tracer is installed before the first op, and
its span summary goes into the result; the spans themselves are written
to the job's ``spans`` path.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
import traceback

from tracing import MODULES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(tracer, op_id, fn):
    """Run fn() and time it; an exception is the op's failure, recorded
    with its traceback, not a crash of the worker."""
    error = None
    value = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        value = tracer.run_op(op_id, fn) if tracer else fn()
    except Exception:
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return value, error, {"wall_s": wall, "cpu_s": cpu, "rss_mb": _rss_mb()}


def _gate(job, tracer, check, *args):
    import checks
    gate = checks.Gate(checks.GATE_MISS if job.get("inject") == "gate-miss"
                       else 0.0)
    if tracer:
        tracer.enabled = False
    try:
        check(gate, *args)
    except Exception:
        gate.check("gate ran", False, traceback.format_exc(limit=3))
    finally:
        if tracer:
            tracer.enabled = True
    return gate


def _run_cli(job, tracer):
    import checks
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    cli = sys.modules["hyplab.cli"]
    results = []
    for op in job["ops"]:
        argv = list(op["argv"])
        out_dir = op["out"]
        full = argv + ["--seed", str(op["seed"]), "--out", out_dir]
        if argv[0] == "qe":
            full += ["--eigen", job["inputs"]["eigen"],
                     "--observable", job["inputs"]["observable"]]
        rc, error, times = _timed(tracer, op["name"], lambda: cli.run(full))
        files = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
        gate = _gate(job, tracer, checks.check_cli, argv,
                     rc if error is None else None, out_dir,
                     reference.get(" ".join(argv)),
                     (job.get("inputs") or {}).get("expected"))
        results.append(dict(
            name=op["name"], family=op["family"], error=error,
            ok=gate.ok and error is None, checks=gate.results,
            files_written=len(files),
            bytes_written=sum(os.path.getsize(os.path.join(out_dir, f))
                              for f in files),
            **times))
    return results


def _run_api(job, tracer):
    import apiops
    results = []
    for op in job["ops"]:
        fn, check = apiops.OPS[op["name"]]
        params, seed = op["params"], op["seed"]
        value, error, times = _timed(tracer, op["name"],
                                     lambda: fn(params, seed))
        if error is None:
            gate = _gate(job, tracer, check, params, seed, value)
            checks_run, ok = gate.results, gate.ok
        else:
            checks_run, ok = [], False
        results.append(dict(name=op["name"], family=op["family"],
                            error=error, ok=ok, checks=checks_run,
                            files_written=0, bytes_written=0, **times))
    return results


def _make_inputs(job):
    """Eigendata and observable for the qe op, plus the brute-force
    variance its gate expects.  Returns (seconds spent, inputs)."""
    import numpy as np
    from hyplab import synthetic, trace
    from workloads import derive_seed
    spec = job["inputs"]
    n_points, n_funcs = spec["size"]
    t0 = time.monotonic()
    E = synthetic.flat_mesh_eigendata(
        n_points, n_funcs, volume=1.0,
        seed=derive_seed(job["seed"], "eigendata"), lam_scale=4.0)
    rng = np.random.default_rng(derive_seed(job["seed"], "observable"))
    k = rng.uniform(1.0, 8.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    shift = rng.uniform(0.0, 0.5)
    a = np.sin(k * E.mesh_points[:, 0] + phase) + shift
    trace.save_eigendata(E, spec["eigen"])
    with open(spec["observable"], "w") as fh:
        json.dump({"values": a.tolist()}, fh)
    seconds = time.monotonic() - t0
    # brute force, one eigenfunction at a time
    lo, hi = spec["interval"]
    W = E.mesh_weights
    mean_a = float((W * a).sum() / W.sum())
    total, count = 0.0, 0
    for lam, v in zip(E.eigenvalues, E.mesh_values):
        if lo <= lam <= hi:
            total += (float((W * a * v * v).sum()) - mean_a) ** 2
            count += 1
    return seconds, dict(spec, expected={"variance_sum": total,
                                         "count": count})


def machine_facts() -> dict:
    import ctypes
    import platform
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    threads = int(getattr(lib, sym)())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def main(argv) -> int:
    with open(argv[1]) as fh:
        job = json.load(fh)
    for name in MODULES:
        importlib.import_module("hyplab." + name)
    t_ready = time.monotonic()
    src = os.path.realpath(os.path.join(job["root"], "src"))
    found = os.path.realpath(sys.modules["hyplab"].__file__)
    if not found.startswith(src + os.sep):
        print(f"hyplab imported from {found}, not from {src}",
              file=sys.stderr)
        return 3
    result = {"t_ready": t_ready, "ops": [], "inputs_s": 0.0}
    tracer = None
    if job["kind"] == "inputs":
        result["inputs_s"], result["inputs"] = _make_inputs(job)
    elif job["kind"] in ("cli", "api"):
        if job.get("trace"):
            tracer = Tracer()
            tracer.install()
        run = _run_cli if job["kind"] == "cli" else _run_api
        result["ops"] = run(job, tracer)
    # peak over the ops when there are ops (gates run after them)
    result["peak_rss_mb"] = max([op["rss_mb"] for op in result["ops"]]
                                or [_rss_mb()])
    if job.get("facts"):
        result["facts"] = machine_facts()
    if tracer:
        result["trace"] = tracer.summarize()
        tracer.write_spans(job["spans"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
