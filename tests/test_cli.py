"""Command-line front end: exit codes, output contract (CSV format,
manifest) and determinism."""

import csv
import json
import math
import time

import pytest

from hyplab import selberg
from hyplab.cli import run
from hyplab.geom import _threads
from hyplab.spectral_action import SpectralInterval, time_average_table


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_geom_check_success(tmp_path):
    out = tmp_path / "o"
    assert run(["geom-check", "--out", str(out)]) == 0
    man = read_manifest(out)
    assert man["command"].startswith("hyplab geom-check")
    assert man["seed"] == 0
    assert man["wall_time"] >= 0.0
    assert man["outputs"]
    assert man["diagnostics"]["threads"] == _threads() >= 1


def test_usage_error_exit_2(tmp_path):
    assert run(["no-such-command"]) == 2
    assert run(["selberg", "bogus-action"]) == 2


def test_numerical_failure_exit_1(tmp_path):
    out = tmp_path / "o"
    # an unreachable tolerance must fail loudly, not silently succeed
    code = run(["geom-check", "--tol", "1e-18", "--out", str(out)])
    assert code == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] and err["message"]
    assert not (out / "manifest.json").exists()


def test_group_injrad_value(tmp_path):
    out = tmp_path / "o"
    assert run(["group", "injrad", "--group", "bolza",
                "--rcap", "4.0", "--out", str(out)]) == 0
    doc = json.loads((out / "injrad.json").read_text())
    assert doc["injectivity_radius"] == pytest.approx(
        math.acosh(1.0 + math.sqrt(2.0)), abs=1e-9)


def test_csv_format_contract(tmp_path):
    out = tmp_path / "o"
    assert run(["group", "ball", "--group", "bolza", "--radius", "4",
                "--out", str(out)]) == 0
    raw = (out / "group_ball.csv").read_bytes()
    assert b"\r" not in raw  # LF endings
    with open(out / "group_ball.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "word"  # header row
    assert len(rows) == 9  # 8 shell elements + header
    float(rows[1][-1])  # numeric body


def test_group_ball_reaches_radius_10(tmp_path):
    """Pruned at R through the side pairings, the Bolza ball of radius
    10 finishes within the word cap of 24, which pruning at
    R + 2 delta_max reaches with branches still open."""
    out = tmp_path / "o"
    assert run(["group", "ball", "--group", "bolza", "--radius", "10",
                "--out", str(out)]) == 0
    assert json.loads((out / "group_ball.json").read_text())["count"] == 5432
    stats = read_manifest(out)["diagnostics"]["enumeration"]
    assert stats["rule"] == "sides" and stats["kept"] == 5432


def test_rerun_byte_identical_and_thread_independent(tmp_path):
    outs = []
    for i, seed in enumerate(("3", "3", "4")):
        out = tmp_path / f"o{i}"
        assert run(["group", "ball", "--group", "bolza", "--radius", "4",
                    "--seed", seed, "--out", str(out)]) == 0
        outs.append(out)
    bodies = [(o / "group_ball.csv").read_bytes() for o in outs]
    assert bodies[0] == bodies[1] == bodies[2]  # the ball ignores the seed
    hashes = [read_manifest(o)["config_hash"] for o in outs]
    assert hashes[0] == hashes[1]  # same config -> same hash
    assert hashes[2] != hashes[0]  # --seed is part of the config


def test_failed_rerun_leaves_no_stale_manifest(tmp_path):
    out = tmp_path / "o"
    assert run(["geom-check", "--out", str(out)]) == 0
    assert run(["selberg", "roundtrip", "--band", "1", "--out", str(out)]) == 1
    markers = {p.name for p in out.iterdir()} & {"manifest.json",
                                                 "error.json"}
    assert markers == {"error.json"}
    assert run(["geom-check", "--out", str(out)]) == 0
    assert not (out / "error.json").exists()
    assert not list(out.glob("*.tmp"))


def test_missing_input_field_is_a_clean_error(tmp_path):
    import numpy as np
    from hyplab.synthetic import flat_mesh_eigendata
    from hyplab.trace import save_eigendata

    good = tmp_path / "eig.json"
    save_eigendata(flat_mesh_eigendata(20, 5, seed=3), good)
    no_ev = tmp_path / "no_ev.json"
    no_ev.write_text(json.dumps({"volume": 1.0}))
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"values": list(np.ones(20))}))
    no_values = tmp_path / "no_values.json"
    no_values.write_text(json.dumps({"data": []}))
    group = tmp_path / "g.json"
    group.write_text(json.dumps({"generators": [[[2.0, 0.0], [0.0, 0.5]]],
                                 "max_word_length": 4}))
    cases = [
        (["qe", "--eigen", str(no_ev), "--observable", str(obs)],
         "'eigenvalues'"),
        (["qe", "--eigen", str(good), "--observable", str(no_values)],
         "'values'"),
        (["group", "ball", "--group", str(group)], "'base_point'"),
    ]
    for i, (argv, field) in enumerate(cases):
        out = tmp_path / f"o{i}"
        assert run(argv + ["--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValueError" and field in err["message"]
        assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("loader", ["eigen-data", "observable", "group"])
def test_top_level_list_is_a_clean_error(tmp_path, loader):
    from hyplab.synthetic import flat_mesh_eigendata
    from hyplab.trace import save_eigendata

    eig = tmp_path / "eig.json"
    save_eigendata(flat_mesh_eigendata(20, 5, seed=3), eig)
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"values": [1.0] * 20}))
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps([1.0, 2.0]))
    argv = {"eigen-data": ["qe", "--eigen", str(bad), "--observable", str(obs)],
            "observable": ["qe", "--eigen", str(eig), "--observable", str(bad)],
            "group": ["group", "ball", "--group", str(bad)]}[loader]
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err == {"error": "ValueError",
                   "message": f"{loader} JSON must be an object"}
    assert not (out / "manifest.json").exists()


def test_malformed_group_is_a_clean_error(tmp_path):
    """An empty group name and a generator that is not 2x2 fail with
    error.json and exit 1, not a traceback."""
    bad = tmp_path / "g.json"
    bad.write_text(json.dumps({"generators": [[[2, 0]]],
                               "base_point": [0.0, 1.0],
                               "max_word_length": 4}))
    for i, argv in enumerate([["propagator", "hs", "--group", ""],
                              ["group", "ball", "--group", str(bad)]]):
        out = tmp_path / f"o{i}"
        assert run(argv + ["--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValueError" and err["message"]
        assert not (out / "manifest.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code", [
    (["spectral-action", "--interval", "1,2,3"], 2),
    (["spectral-action", "--grid-n", "1"], 1),
    (["spectral-action", "--grid-n", "0"], 1),
    (["trace", "weyl", "--window", "1"], 2),
    (["trace", "count", "--window", "1,a"], 2),
    (["trace", "count", "--degrees", "0"], 1),
    (["trace", "pretrace", "--degree", "0"], 1),
    (["trace", "pretrace", "--L", "0"], 1),
    (["trace", "pretrace", "--W", "0"], 1),
    (["trace", "pretrace", "--W", "700", "--n-grid", "100"], 1),
    (["trace", "pretrace", "--W", "354", "--n-grid", "100"], 1),
    (["trace", "pretrace", "--lam-max", "nan"], 1),
    (["qe", "--eigen", "e.json", "--observable", "o.json",
      "--interval", "1,2,"], 2),
    (["propagator", "kernel", "--n", "1"], 1),
    (["propagator", "lens-volume", "--n", "1"], 1),
    (["propagator", "midpoint-check", "--n", "1"], 1),
    (["selberg", "forward", "--kernel", "heat", "--t", "0"], 1),
    (["selberg", "roundtrip", "--kernel", "heat", "--t", "0"], 1)],
    ids=["interval-3", "grid-n-1", "grid-n-0", "window-1", "window-letter",
         "degrees-0", "degree-0", "L-0", "W-0", "W-700", "W-354",
         "lam-max-nan", "qe-interval", "kernel-n-1", "lens-volume-n-1",
         "midpoint-check-n-1", "forward-heat-t-0", "roundtrip-heat-t-0"])
def test_malformed_input_is_a_clean_error(tmp_path, argv, code):
    """A malformed pair is a usage error (exit 2, nothing written); a
    degenerate cylinder or s-grid, a cylinder with more circular modes
    than ``synthetic._MAX_MODES``, a Monte Carlo estimate from one
    sample (which has no error bar) or a heat kernel at t = 0 is a
    ValueError (exit 1, error.json); none raises, warns, leaves a
    manifest or runs for more than seconds."""
    out = tmp_path / "o"
    t0 = time.monotonic()
    assert run(argv + ["--out", str(out)]) == code
    assert time.monotonic() - t0 < 20.0
    assert not (out / "manifest.json").exists()
    if code == 1:
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValueError" and err["message"]


def test_spectral_action_writes_the_time_average_table(tmp_path):
    out = tmp_path / "o"
    assert run(["spectral-action", "--interval", "1,2", "--T", "20",
                "--grid-n", "8", "--out", str(out)]) == 0
    s_grid, avgs = time_average_table(SpectralInterval(1.0, 2.0), 20.0,
                                      grid_n=8)
    with open(out / "time_average.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(float(s), float(a)) for s, a in rows] == list(zip(s_grid, avgs))
    doc = json.loads((out / "spectral_action.json").read_text())
    assert doc["C_I_estimate"] == avgs.min()
    assert doc["argmin_s"] == s_grid[avgs.argmin()]


def test_selberg_roundtrip_passes_default_tol(tmp_path):
    out = tmp_path / "o"
    assert run(["selberg", "roundtrip", "--kernel", "disc", "--t", "1",
                "--out", str(out)]) == 0
    doc = json.loads((out / "roundtrip.json").read_text())
    assert doc["sup_error"] <= 1e-5


def test_selberg_inverse_computes_at_most_one_rule(tmp_path):
    # every rule but the inverse's one plain rule of >= 512 nodes is read
    # from the table, so no rule of the Abel step costs an eigen-solve
    selberg._gauss_legendre.cache_clear()
    out = tmp_path / "o"
    assert run(["selberg", "inverse", "--t", "1", "--out", str(out)]) == 0
    rules = read_manifest(out)["diagnostics"]["gauss_legendre"]
    assert rules["computed_rules"] <= 1 and rules["table_rules"] > 0
    assert rules["computed_s"] >= 0.0


def test_trace_weyl_csv(tmp_path):
    out = tmp_path / "o"
    assert run(["trace", "weyl", "--window", "1.25,4.25",
                "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("action, extra, lam_max, degrees", [
    ("pretrace", ["--lam-max", "20", "--degree", "2"], 20.0, [2]),
    ("count", ["--degrees", "1,2", "--window", "1.25,4.25"], 5.25, [1, 2])])
def test_trace_manifest_records_spectrum(tmp_path, action, extra, lam_max,
                                         degrees):
    from hyplab.synthetic import cylinder_spectrum
    out = tmp_path / "o"
    assert run(["trace", action, "--n-grid", "300", *extra,
                "--out", str(out)]) == 0
    entries = read_manifest(out)["diagnostics"]["spectrum"]
    assert [e["degree"] for e in entries] == degrees
    for e in entries:
        E = cylinder_spectrum(2.0, 4.0, lam_max, degree=e["degree"],
                              n_grid=300)
        assert e["eigenvalues"] == len(E.eigenvalues)
        assert e["seconds"] >= 0.0


@pytest.mark.parametrize("argv", [
    ["group", "systole", "--group", "bolza", "--search-radius", "1"],
    ["group", "thin-part", "--group", "bolza", "--radius", "0.8",
     "--n", "200"],
    ["propagator", "midpoint-check", "--n", "200"],
    ["propagator", "hs", "--n", "20"],
    ["propagator", "ergodic-decay", "--group", "bolza", "--n", "20"]],
    ids=["systole", "thin-part", "midpoint-check", "hs", "ergodic-decay"])
def test_manifest_records_domain(tmp_path, argv):
    from hyplab.fuchsian import builtin_group, dirichlet_domain
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 0
    group = argv[argv.index("--group") + 1] if "--group" in argv \
        else "cyclic_L2"
    area, radius = dirichlet_domain(builtin_group(group))
    assert read_manifest(out)["diagnostics"]["domain"] == {
        "area": area, "radius": radius,
        "sides": 8 if group == "bolza" else 2}


def test_qe_subcommand(tmp_path):
    import numpy as np
    from hyplab.synthetic import flat_mesh_eigendata
    from hyplab.trace import save_eigendata

    E = flat_mesh_eigendata(30, 10, volume=2.0, seed=3, lam_scale=4.0)
    eig = tmp_path / "eig.json"
    save_eigendata(E, eig)
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps(
        {"values": list(np.sin(E.mesh_points[:, 0]))}))
    out = tmp_path / "o"
    assert run(["qe", "--eigen", str(eig), "--observable", str(obs),
                "--interval", "0.5,3.5", "--R", "1.5", "--ell-min", "3",
                "--rho-gap", "0.5", "--out", str(out)]) == 0
    doc = json.loads((out / "qe_report.json").read_text())
    assert doc["count"] >= 1
    assert doc["bound_main"] > 0.0
