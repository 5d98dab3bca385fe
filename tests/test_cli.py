import json
from math import pi

import numpy as np
import pytest

from tangentflats.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def sphere_file(tmp_path, r=pi / 4, name="sphere.body"):
    p = tmp_path / name
    p.write_text(f"kind = metric_sphere\nn = 3\nradius = {r!r}\n")
    return str(p)


def test_volumes_report(capsys):
    code, out, _ = run_cli(capsys, "volumes", "1", "3")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["schubert_ratio"] == pytest.approx(pi / 4, rel=1e-12)
    assert report["results"]["dimension"] == 4

    code, out, _ = run_cli(capsys, "volumes", "0", "1")
    assert json.loads(out)["results"]["schubert_ratio"] == pytest.approx(1 / pi, rel=1e-12)


def test_volumes_usage_error(capsys):
    code, _, err = run_cli(capsys, "volumes", "5", "3")
    assert code == 2
    assert "k" in err


@pytest.mark.parametrize("n", ["62", "200", "400"])
@pytest.mark.parametrize("k", ["0", "1"])
def test_volumes_beyond_double_precision_are_usage_errors(capsys, k, n):
    # at n = 62 |O(n+1)| underflows to 0, at 200 a division by it fails, and
    # at 400 |S^n| overflows
    code, out, err = run_cli(capsys, "volumes", k, n)
    assert code == 2 and out == ""
    assert "double precision" in err


def test_delta_exact_and_unsupported(capsys):
    code, out, _ = run_cli(capsys, "delta", "0", "5", "--samples", "10")
    assert code == 0
    assert json.loads(out)["results"]["expected_degree"]["mean"] == 1.0

    code, _, err = run_cli(capsys, "delta", "2", "4", "--samples", "10")
    assert code == 2
    assert "scope" in err


# `delta 1 3 --samples 20000` reports recorded before the transversal count
# went through the one Pluecker pairing constant; the counts must not move.
DELTA_REPORTS = {
    5: {"mean": 1.7251, "stderr": 0.004869567243016233, "samples": 20000,
        "degenerate": 0},
    17: {"mean": 1.7249, "stderr": 0.004871055928573695, "samples": 20000,
         "degenerate": 0},
}


@pytest.mark.parametrize("seed", sorted(DELTA_REPORTS))
def test_delta_reports_match_recorded_values(capsys, seed):
    code, out, _ = run_cli(capsys, "delta", "1", "3", "--samples", "20000",
                           "--seed", str(seed), "--workers", "1")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["expected_degree"] == DELTA_REPORTS[seed]
    assert report["degenerate_counts"] == {"discarded_draws": 0}


def test_delta_reports_are_reproducible(capsys):
    args = ("delta", "1", "3", "--samples", "20000", "--seed", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    # report round-trips losslessly
    assert json.loads(json.dumps(r1)) == r1


def test_delta_refuses_when_every_draw_is_degenerate(capsys, monkeypatch):
    from tangentflats import schubert
    monkeypatch.setattr(schubert, "_delta13_batch",
                        lambda seed, batch, size: (0, 0, 0, size))
    code, _, err = run_cli(capsys, "delta", "1", "3", "--samples", "100")
    assert code == 3
    assert "all 100 draws were degenerate" in err


def test_omega_sphere(capsys, tmp_path):
    body = sphere_file(tmp_path)
    code, out, _ = run_cli(capsys, "omega", body, "--k", "1")
    assert code == 0
    assert json.loads(out)["results"]["tangent_ratio"] == pytest.approx(4 / pi, rel=1e-6)
    code, out, _ = run_cli(capsys, "omega", body, "--k", "0")
    assert json.loads(out)["results"]["tangent_ratio"] == pytest.approx(
        2 * np.sin(pi / 4) ** 2, rel=1e-6)


def test_omega_nonconvex_on_convex_path_is_refused(capsys, tmp_path):
    p = tmp_path / "bumpy.body"
    p.write_text(
        "kind = implicit\nn = 3\nconvex = true\n"
        "term = 1.0 0 4 0 0\nterm = 1.0 0 0 4 0\nterm = 1.0 0 0 0 4\n"
        "term = -0.9 0 2 2 0\nterm = -0.9 0 0 2 2\nterm = -0.9 0 2 0 2\n"
        "term = -0.3 4 0 0 0\n")
    code, _, err = run_cli(capsys, "omega", str(p), "--method", "convex",
                           "--level", "3")
    assert code == 3
    assert "curvature" in err


def test_omega_malformed_body_file(capsys, tmp_path):
    p = tmp_path / "bad.body"
    p.write_text("kind = metric_sphere\nn = 3\nradius == 0.5\n")
    code, _, err = run_cli(capsys, "omega", str(p))
    assert code == 2
    assert "line 3" in err


def test_omega_csv_sweep(capsys, tmp_path):
    body = sphere_file(tmp_path)
    code, out, _ = run_cli(capsys, "omega", body, "--k", "1",
                           "--sweep-radius", "0.3", "1.2", "4",
                           "--format", "csv", "--level", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("name,value")
    assert len(lines) == 5


@pytest.mark.parametrize("count", ["-1", "nan", "2.5"])
def test_omega_sweep_count_must_be_a_positive_integer(capsys, tmp_path, count):
    code, _, err = run_cli(capsys, "omega", sphere_file(tmp_path),
                           "--sweep-radius", "0.3", "1.2", count, "--level", "2")
    assert code == 2
    assert "COUNT" in err


def test_omega_sweep_needs_a_metric_sphere(capsys, tmp_path):
    p = tmp_path / "ellipsoid.body"
    p.write_text("kind = ellipsoid\nn = 3\nsemiaxes = 1.0 0.8 0.5\n")
    code, _, err = run_cli(capsys, "omega", str(p), "--sweep-radius", "0.3",
                           "1.2", "4", "--level", "2")
    assert code == 2
    assert "metric sphere" in err


def test_tau_formula_mode(capsys, tmp_path):
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(4)]
    code, out, _ = run_cli(capsys, "tau", *bodies, "--mode", "formula")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["average_tangent_count"] == pytest.approx(
        1.7262 * (4 / pi) ** 4, rel=1e-5)


def test_tau_wrong_body_count(capsys, tmp_path):
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(3)]
    code, _, err = run_cli(capsys, "tau", *bodies)
    assert code == 2
    assert "4 body files" in err


def test_tau_flat_dimension_out_of_range(capsys, tmp_path):
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(4)]
    code, _, err = run_cli(capsys, "tau", *bodies, "--k", "5")
    assert code == 2
    assert "need 0 <= k <= n-1, got (k, n) = (5, 3)" in err


def test_tau_empirical_smoke(capsys, tmp_path):
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(4)]
    code, out, _ = run_cli(capsys, "tau", *bodies, "--mode", "empirical",
                           "--trials", "6", "--seed", "1", "--workers", "1")
    assert code == 0
    entry = json.loads(out)["results"]["average_tangent_count"]
    assert entry["mean"] % 2 != 1             # mean of even counts
    assert entry["samples"] <= 6


def test_intrinsic_report_and_refusal(capsys, tmp_path):
    body = sphere_file(tmp_path, r=pi / 6)
    code, out, _ = run_cli(capsys, "intrinsic", body, "--eps", "0.1")
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["sum_identity_residual"]) < 1e-5
    assert all(res[f"bound_ok_k{k}"] for k in range(3))
    # eps = 0 reports the region volume as the tube volume
    code, out, _ = run_cli(capsys, "intrinsic", body)
    res = json.loads(out)["results"]
    assert res["tube_volume"] == res["volume"]
    # beyond the reach estimate: explicit refusal
    code, _, err = run_cli(capsys, "intrinsic", body, "--eps", "1.5")
    assert code == 3
    assert "validity" in err


def test_out_file(capsys, tmp_path):
    body = sphere_file(tmp_path)
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "intrinsic", body, "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["command"] == "intrinsic"


IMPLICIT_BODY = ("kind = implicit\nn = 3\nconvex = true\n"
                 "term = 1.0 0 4 0 0\nterm = 1.0 0 0 4 0\nterm = 1.0 0 0 0 4\n"
                 "term = 1.2 0 2 2 0\nterm = 1.2 0 0 2 2\nterm = 1.2 0 2 0 2\n"
                 "term = -1.0 4 0 0 0\n")


@pytest.mark.parametrize("argv", [
    ("tau", "BODIES", "--mode", "empirical", "--trials", "0"),
    ("tau", "BODIES", "--mode", "empirical", "--trials", "-3"),
    ("tau", "BODIES", "--mode", "empirical", "--workers", "0"),
    ("delta", "1", "3", "--samples", "0"),
    ("volumes", "1", "3", "--level", "0"),
    ("delta", "1", "3", "--level", "0"),
    ("omega", "BODY", "--level", "0"),
    ("tau", "BODIES", "--level", "-1"),
    ("intrinsic", "BODY", "--level", "0"),
], ids=["trials-0", "trials-negative", "workers-0", "samples-0",
        "volumes-level-0", "delta-level-0", "omega-level-0",
        "tau-level-negative", "intrinsic-level-0"])
def test_nonpositive_counts_are_usage_errors(capsys, tmp_path, argv):
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(4)]
    placeholders = {"BODIES": bodies, "BODY": bodies[:1]}
    argv = [a for arg in argv for a in placeholders.get(arg, [arg])]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_delta_source_value_must_be_finite_and_nonnegative(capsys, tmp_path,
                                                           value):
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(4)]
    with pytest.raises(SystemExit) as exc:
        main(["tau", *bodies, "--delta-source", f"value:{value}"])
    assert exc.value.code == 2
    assert "needs a finite x >= 0" in capsys.readouterr().err


def test_tau_empirical_refuses_implicit_body(capsys, tmp_path):
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(3)]
    implicit = tmp_path / "quartic.body"
    implicit.write_text(IMPLICIT_BODY)
    code, _, err = run_cli(capsys, "tau", *bodies, str(implicit),
                           "--mode", "empirical", "--trials", "2")
    assert code == 2
    assert "quadrics" in err


def test_tau_path_failure_prints_path_log(capsys, tmp_path, monkeypatch):
    from tangentflats import cli

    def losing_solver(*args, **kwargs):
        raise cli.PathFailureError("2 of 32 paths lost before t = 1",
                                   ["path 3: stalled at t = 0.500000000000, "
                                    "residual 1.000e-02",
                                    "path 17: stalled at t = 0.250000000000, "
                                    "residual 3.000e-01"])

    monkeypatch.setattr(cli, "average_tangent_count_empirical", losing_solver)
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(4)]
    code, _, err = run_cli(capsys, "tau", *bodies, "--mode", "empirical",
                           "--trials", "2")
    assert code == 4
    lines = err.splitlines()
    assert lines[0] == "error: 2 of 32 paths lost before t = 1"
    assert lines[1].startswith("path 3: stalled at t = 0.5")
    assert lines[2].startswith("path 17: stalled at t = 0.25")


def test_tau_accepts_a_thin_ellipsoid(capsys, tmp_path):
    # eigenvalues -1, 1, 1 and 1e10: nonsingular at any scale
    thin = tmp_path / "thin.body"
    thin.write_text("kind = ellipsoid\nn = 3\nsemiaxes = 1e-5 1 1\n")
    spheres = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(3)]
    code, _, err = run_cli(capsys, "tau", str(thin), *spheres, "--mode",
                           "empirical", "--trials", "1")
    assert code in (0, 3), err


def test_omega_flat_dimension_out_of_range(capsys, tmp_path):
    code, _, err = run_cli(capsys, "omega", sphere_file(tmp_path), "--k", "7")
    assert code == 2
    assert "need 0 <= k <= n-1, got (k, n) = (7, 3)" in err


def test_tau_formula_refuses_body_not_star_shaped(capsys, tmp_path):
    # x1^2 - x2^2 + 0.1 (x0^2 + x3^2) stays positive along the x1 axis
    saddle = tmp_path / "saddle.body"
    saddle.write_text("kind = implicit\nn = 3\nconvex = true\n"
                      "term = 1.0 0 2 0 0\nterm = -1.0 0 0 2 0\n"
                      "term = 0.1 2 0 0 0\nterm = 0.1 0 0 0 2\n")
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(3)]
    code, _, err = run_cli(capsys, "tau", str(saddle), *bodies, "--level", "1")
    assert code == 3
    assert "not star-shaped" in err


def test_intrinsic_negative_tube_radius(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["intrinsic", sphere_file(tmp_path), "--eps", "-1"])
    assert exc.value.code == 2
    assert "must be at least 0" in capsys.readouterr().err


def test_intrinsic_refuses_implicit_body(capsys, tmp_path):
    implicit = tmp_path / "quartic.body"
    implicit.write_text(IMPLICIT_BODY)
    code, _, err = run_cli(capsys, "intrinsic", str(implicit))
    assert code == 2
    assert "polar body is implemented for quadric-backed kinds only" in err


def _lose_paths(monkeypatch, offsets):
    """Make every tracker attempt on substream 2^32 + o, o in offsets, lose
    paths.  A trial's attempts use substreams trial + 2^32 + attempt."""
    from tangentflats import tangency
    solve = tangency._solve_batch

    def losing(forms, rngs, *args):
        return [tangency.PathFailureError("1 of 32 paths lost", ["path 0"])
                if r.stream_id - (1 << 32) in offsets else result
                for result, r in zip(solve(forms, rngs, *args), rngs)]

    monkeypatch.setattr(tangency, "_solve_batch", losing)


def test_tau_counts_path_failures_apart_from_degenerate(capsys, tmp_path,
                                                        monkeypatch):
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(4)]
    argv = ("tau", *bodies, "--mode", "empirical", "--seed", "3",
            "--workers", "1")
    # every attempt of trial 0 fails; trials 1 and 2 recover on a retry
    _lose_paths(monkeypatch, {0, 1, 2})
    code, out, _ = run_cli(capsys, *argv, "--trials", "20")
    assert code == 0
    assert json.loads(out)["degenerate_counts"] == {
        "discarded_trials": 1, "path_failure_trials": 1}
    # both of two trials lost: refused, naming both counts
    _lose_paths(monkeypatch, {0, 1, 2, 3})
    code, _, err = run_cli(capsys, *argv, "--trials", "2")
    assert code == 3
    assert "2 of 2 trials discarded (0 degenerate, 2 lost paths after " \
        "every retry)" in err
    # followed by the log of the first trial that lost paths
    assert err.splitlines()[1:] == ["trial 0: 1 of 32 paths lost", "path 0"]


# Reports of `intrinsic --eps 0.05` recorded before the quadrature shared one
# surface sample per body; quadric roots are closed-form, so every field
# must stay bitwise the same.
INTRINSIC_REPORTS = {
    "semiaxes = 1.0 0.8 0.5": {
        "V_0": 0.3210937776567672, "V_1": 0.3144556848254653,
        "V_2": 0.1789062223432333, "polar_volume": 2.71968672572981,
        "reach_estimate": 0.2500001073552304,
        "sum_identity_residual": 1.7763568394002505e-15,
        "tube_volume": 1.1832851059963283, "volume": 0.9428112535575844},
    "semiaxes = 1.4 0.7 1.1": {
        "V_0": 0.24310922248251868, "V_1": 0.32825852836158204,
        "V_2": 0.2568907775174814, "polar_volume": 1.620406283790956,
        "reach_estimate": 0.3500001563298924,
        "sum_identity_residual": 3.552713678800501e-15,
        "tube_volume": 2.1086239463354586, "volume": 1.7696344848732442},
    f"radius = {pi / 6!r}": {
        "V_0": 0.37500000000000977, "V_1": 0.2756644477108886,
        "V_2": 0.12500000000000047, "polar_volume": 3.8590372210415778,
        "reach_estimate": 1.0471975511965979,
        "sum_identity_residual": 1.0658141036401503e-14,
        "tube_volume": 0.7401025513076871, "volume": 0.5691690873451256},
}


@pytest.mark.parametrize("line", sorted(INTRINSIC_REPORTS))
def test_intrinsic_reports_match_recorded_values(capsys, tmp_path, line):
    kind = "ellipsoid" if line.startswith("semiaxes") else "metric_sphere"
    body = tmp_path / "b.body"
    body.write_text(f"kind = {kind}\nn = 3\n{line}\n")
    code, out, _ = run_cli(capsys, "intrinsic", str(body), "--eps", "0.05")
    assert code == 0
    expected = dict(INTRINSIC_REPORTS[line],
                    **{f"bound_ok_k{k}": True for k in range(3)})
    assert json.loads(out)["results"] == expected


def test_intrinsic_samples_the_surface_once(capsys, tmp_path, monkeypatch):
    from tangentflats import curvature, intrinsic
    calls = {"surface_points": 0, "_radial_roots": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((curvature, "surface_points"),
                         (curvature, "_radial_roots"),
                         (intrinsic, "_radial_roots")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    body = tmp_path / "e.body"
    body.write_text("kind = ellipsoid\nn = 3\nsemiaxes = 1.0 0.8 0.5\n")
    code, _, _ = run_cli(capsys, "intrinsic", str(body), "--eps", "0.05")
    assert code == 0
    assert calls["surface_points"] == 1
    assert calls["_radial_roots"] <= 2             # the body and its polar
