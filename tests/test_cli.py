import dataclasses
import json
from math import atan, cos, pi, sin

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tangentflats.cli import (MAX_LEVEL, MAX_PLANE_SAMPLES, MAX_SAMPLES, MAX_SWEEP_RADII,
                              MAX_TRIALS, main)
from tangentflats.volumes import sphere_tangent_ratio


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


def test_main_builds_one_parser_and_runs_the_current_command(capsys, monkeypatch):
    # a replaced cmd_* runs, as perfbench's tracer needs, from a parser built once
    from tangentflats import cli
    calls = []
    monkeypatch.setattr(cli, "cmd_volumes", lambda args: calls.append(args.k) or {
        "parameters": {}, "results": {}})
    cli.build_parser.cache_clear()
    for k in ("1", "0"):
        code, out, _ = run_cli(capsys, "volumes", k, "3")
        assert code == 0 and json.loads(out)["command"] == "volumes"
    assert calls == [1, 0]
    assert (cli.build_parser.cache_info().misses, cli.build_parser.cache_info().hits) == (1, 1)


def test_volumes_usage_error(capsys):
    code, _, err = run_cli(capsys, "volumes", "5", "3")
    assert code == 2
    assert "k" in err


@pytest.mark.parametrize("n", ["62", "200", "400"])
@pytest.mark.parametrize("k", ["0", "1"])
def test_volumes_beyond_double_precision_are_usage_errors(capsys, k, n):
    # from n = 62 the reported |O(n+1)| underflows to 0 (the Grassmannian
    # volumes do not pass through it), and at 400 |S^n| overflows
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


# `delta 1 3 --samples 20000` reports recorded when each draw became the fixed
# line (e1, e1), a second line in normal form from two uniforms and two
# uniform lines as (a, b) pairs (a new random stream); the counts must not
# move.  (At seed 17 the mean and stderr equal those of the previous stream.)
DELTA_REPORTS = {
    5: {"mean": 1.7267, "stderr": 0.004857626511658378, "samples": 20000,
        "degenerate": 0},
    17: {"mean": 1.7194, "stderr": 0.004911658398078083, "samples": 20000,
         "degenerate": 0},
}
DELTA_DIAGNOSTICS = {
    5: {"count1_draws": 0, "svd_draws": 2, "min_condition": 0.004389087759270375},
    17: {"count1_draws": 0, "svd_draws": 0, "min_condition": 0.010388989707865132},
}


@pytest.mark.parametrize("seed", sorted(DELTA_REPORTS))
def test_delta_reports_match_recorded_values(capsys, seed):
    code, out, _ = run_cli(capsys, "delta", "1", "3", "--samples", "20000",
                           "--seed", str(seed), "--workers", "1")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["expected_degree"] == DELTA_REPORTS[seed]
    assert report["degenerate_counts"] == {"discarded_draws": 0}


@pytest.mark.parametrize("seed", sorted(DELTA_DIAGNOSTICS))
def test_delta_diagnostics_match_recorded_values_for_any_workers(capsys, seed):
    # batch totals combined by sum and min, so one block for every --workers
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, "delta", "1", "3", "--samples", "20000",
                               "--seed", str(seed), "--workers", workers)
        assert code == 0
        assert json.loads(out)["diagnostics"] == DELTA_DIAGNOSTICS[seed]


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
                        lambda seed, batch, size: (0, 0, 0, size, 0, 0, 0.0))
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


@pytest.mark.parametrize("count", ["1e20", str(MAX_SWEEP_RADII + 1)])
def test_omega_sweep_count_has_an_upper_bound(capsys, tmp_path, count):
    # refused before np.linspace allocates the radii: 1e20 of them would not fit
    code, out, err = run_cli(capsys, "omega", sphere_file(tmp_path),
                             "--sweep-radius", "0.3", "1.2", count, "--level", "1")
    assert code == 2 and out == ""
    assert f"COUNT must be an integer in [1, {MAX_SWEEP_RADII}]" in err


@pytest.mark.parametrize("command, text", [
    ("omega", "kind = ellipsoid\nn = 3\nsemiaxes = 1 1 nan\n"),
    ("intrinsic", "kind = ellipsoid\nn = 3\nsemiaxes = 1 1 nan\n"),
    ("omega", "kind = affine_sphere\nn = 3\ncenter = 0 0 nan\nradius = 0.5\n"),
    ("tau", "kind = ellipsoid\nn = 3\nsemiaxes = 1 1 1e-300\n"),    # 1/a^2 = inf
    ("omega", "kind = implicit\nn = 3\nterm = nan 4 0 0 0\n"),
    ("omega", "kind = implicit\nn = 3\nterm = 1 4 0 0 0\ncenter = nan 0 0 0\n"),
    ("omega", "kind = implicit\nn = 3\nterm = 1 4 0 0 0\ncenter = 0 0 0 0\n"),
])
def test_nonfinite_body_parameters_are_usage_errors(capsys, tmp_path, command, text):
    body = tmp_path / "nonfinite.body"
    body.write_text(text)
    bodies = [str(body)] * (4 if command == "tau" else 1)
    code, out, err = run_cli(capsys, command, *bodies, "--level", "1", *(
        ["--mode", "empirical", "--trials", "1", "--workers", "1"] if command == "tau" else []))
    assert code == 2 and out == "", err
    assert "finite" in err or "positive" in err


def test_tau_formula_mode(capsys, tmp_path):
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(4)]
    code, out, _ = run_cli(capsys, "tau", *bodies, "--mode", "formula")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["average_tangent_count"] == pytest.approx(
        1.7262 * (4 / pi) ** 4, rel=1e-5)


def ellipsoid_file(tmp_path, semiaxes, name="ellipsoid.body"):
    p = tmp_path / name
    p.write_text(f"kind = ellipsoid\nn = 3\nsemiaxes = {semiaxes}\n")
    return str(p)


def counted_calls(monkeypatch, names):
    """Counts the calls to the named curvature functions, patched in every
    module that imported the name, as the benchmark's tracer patches them."""
    import sys
    from tangentflats import curvature
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items() if key.startswith("tangentflats")]
    for name in calls:
        original = getattr(curvature, name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted(name, original))
    return calls


def test_tau_formula_takes_sphere_ratios_from_the_closed_form(capsys, tmp_path,
                                                             monkeypatch):
    calls = counted_calls(monkeypatch, ("surface_grid", "surface_sample"))
    radii = (pi / 6, pi / 4, pi / 3, 1.2)
    bodies = [sphere_file(tmp_path, r, name=f"s{i}.body") for i, r in enumerate(radii)]
    code, out, _ = run_cli(capsys, "tau", *bodies, "--mode", "formula")
    assert code == 0
    assert calls == {"surface_grid": 0, "surface_sample": 0}
    report = json.loads(out)
    assert report["diagnostics"] == {"routes": ["closed_form"] * 4, "nodes": 0}
    for i, (body, r) in enumerate(zip(bodies, radii)):
        ratio = report["results"][f"ratio_{i}"]
        assert ratio == sphere_tangent_ratio(1, 3, r)
        code, out, _ = run_cli(capsys, "omega", body, "--k", "1")
        assert code == 0
        assert ratio == pytest.approx(json.loads(out)["results"]["tangent_ratio"],
                                      rel=1e-12, abs=0)


def test_tau_formula_samples_only_the_bodies_that_are_not_spheres(
        capsys, tmp_path, monkeypatch):
    # the ellipsoid ratios are the ones recorded when every body took the
    # quadrature, bit for bit
    calls = counted_calls(monkeypatch, ("surface_grid", "surface_sample"))
    bodies = [sphere_file(tmp_path, pi / 6, name="s0.body"),
              ellipsoid_file(tmp_path, "1.0 0.8 0.5", name="e1.body"),
              sphere_file(tmp_path, pi / 3, name="s2.body"),
              ellipsoid_file(tmp_path, "1.4 0.7 1.1", name="e3.body")]
    code, out, _ = run_cli(capsys, "tau", *bodies, "--mode", "formula")
    assert code == 0
    report = json.loads(out)
    assert calls == {"surface_grid": 1, "surface_sample": 2}
    assert (report["results"]["ratio_1"], report["results"]["ratio_3"]) == (
        1.2578227393018613, 1.3130341134463281)
    assert report["diagnostics"] == {
        "routes": ["closed_form", "quadrature", "closed_form", "quadrature"],
        "nodes": 2 * 8192}


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


@pytest.mark.parametrize("semiaxes, circumradius, eps",
                         [("3 3 3", atan(3), 0.3), ("2.5 3 4", atan(4), 0.2)])
def test_intrinsic_reach_of_a_large_ellipsoid_is_its_circumradius_bound(
        capsys, tmp_path, semiaxes, circumradius, eps):
    # the tubes of the lifted body and of its antipode meet at eps = pi/2 - R;
    # the curvature bound alone (pi/4) let (3, 3, 3) report a tube volume of
    # 12.09 at eps = 0.5, above the pi^2 of all of RP^3
    reach, body = pi / 2 - circumradius, ellipsoid_file(tmp_path, semiaxes)
    code, _, err = run_cli(capsys, "intrinsic", body, "--eps", "0.5")
    assert code == 3 and f"exceeds the validity estimate {reach:.6g}" in err
    code, out, _ = run_cli(capsys, "intrinsic", body, "--eps", str(eps))
    report = json.loads(out)
    assert report["diagnostics"]["reach_source"] == "circumradius"
    assert report["results"]["reach_estimate"] == pytest.approx(reach, rel=1e-12)
    assert report["results"]["tube_volume"] <= pi ** 2


def test_intrinsic_tube_of_a_round_ellipsoid_is_the_cap_of_its_metric_sphere(capsys,
                                                                            tmp_path):
    # semiaxes (3, 3, 3) bound the metric sphere of radius arctan 3, whose
    # eps-tube is the cap of radius arctan 3 + eps, of volume 2 pi (r - sin r cos r)
    r, eps = atan(3), 0.3
    tubes = [json.loads(run_cli(capsys, "intrinsic", body, "--eps", str(eps))[1])
             ["results"]["tube_volume"]
             for body in (ellipsoid_file(tmp_path, "3 3 3"), sphere_file(tmp_path, r))]
    cap = 2 * pi * (r + eps - sin(r + eps) * cos(r + eps))
    assert tubes == pytest.approx([cap, cap], rel=1e-12)


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


@pytest.mark.parametrize("argv, bound", [
    (("delta", "1", "3", "--samples", str(MAX_SAMPLES + 1)), MAX_SAMPLES),
    (("tau", "BODIES", "--delta-source", f"mc:{MAX_SAMPLES + 1}"), MAX_SAMPLES),
    (("tau", "BODIES", "--mode", "empirical", "--trials", str(MAX_TRIALS + 1)),
     MAX_TRIALS),
    (("omega", "BODY", "--method", "semialgebraic", "--samples", "1000000000000"),
     MAX_PLANE_SAMPLES),
    (("omega", "BODY", "--level", str(MAX_LEVEL + 1)), MAX_LEVEL),
], ids=["samples", "delta-source-mc", "trials", "omega", "level"])
def test_sample_and_trial_counts_have_an_upper_bound(capsys, tmp_path, argv, bound):
    # refused by the argument parser, before any task list or draw is made
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(4)]
    argv = [a for arg in argv for a in {"BODIES": bodies, "BODY": bodies[:1]}.get(arg, [arg])]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"must be at most {bound}" in capsys.readouterr().err


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
    """Make every attempt of trial + attempt in offsets lose its path 0: one
    regular path becomes a lost one, with a one-line log.  A tracked attempt
    is known by its substream, trial + 2^32 + attempt, and the sphere route's
    first attempt by its trial's position in the batch (one chunk, from 0)."""
    from tangentflats import homotopy, tangency
    solve_batch, sphere_trials = homotopy._solve_batch, tangency._sphere_trials

    def lose(results, keys):
        return [dataclasses.replace(result, tracked=result.tracked - 1, failed=1,
                                    path_log=("path 0",)) if key in offsets else result
                for result, key in zip(results, keys)]

    monkeypatch.setattr(homotopy, "_solve_batch", lambda forms, rngs, *args: lose(
        solve_batch(forms, rngs, *args), [r.stream_id - (1 << 32) for r in rngs]))
    monkeypatch.setattr(tangency, "_sphere_trials", lambda forms, ww: lose(
        sphere_trials(forms, ww), range(len(forms))))


def test_tau_counts_path_failures_apart_from_degenerate(capsys, tmp_path,
                                                        monkeypatch):
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(4)]
    argv = ("tau", *bodies, "--mode", "empirical", "--seed", "3",
            "--workers", "1")
    # every attempt of trial 0 fails; trials 1 and 2 recover on a retry
    _lose_paths(monkeypatch, {0, 1, 2})
    code, out, _ = run_cli(capsys, *argv, "--trials", "20")
    assert code == 0
    report = json.loads(out)
    assert report["degenerate_counts"] == {
        "discarded_trials": 1, "path_failure_trials": 1}
    # three trials retried on the second attempt and two on the third; the
    # lost trial's one-line path log is its one lost path.  Retries start from
    # the 32-path total degree, where 20 sphere paths stall on the excess
    # component: 17 trials add the sphere route's 12 regular roots, trials 1
    # and 2 add 12 and 20 singular, and trial 0's last attempt 11, 20 and its
    # lost path
    diagnostics = report["diagnostics"]
    assert (diagnostics["retries"], diagnostics["paths_regular"],
            diagnostics["paths_singular"], diagnostics["paths_lost"]) == (5, 239, 60, 1)
    # both of two trials lost: refused, naming both counts
    monkeypatch.undo()
    _lose_paths(monkeypatch, {0, 1, 2, 3})
    code, _, err = run_cli(capsys, *argv, "--trials", "2")
    assert code == 3
    assert "2 of 2 trials discarded (0 degenerate, 2 lost paths after " \
        "every retry)" in err
    # followed by the log of the first trial that lost paths
    assert err.splitlines()[1:] == ["trial 0: 1 of 32 paths lost", "path 0"]


# Reports of `intrinsic --eps 0.05`, re-recorded when the cap volumes became
# closed-form and the shape operators batched matmuls; those moved the
# volumes, the tube volume and some V_j by at most 1.2e-15 relative.  The
# node-last arrays and closed-form 2 x 2 curvatures moved V_0 of the first
# ellipsoid and V_1 of the second by one ulp, and the second's residual from
# 3.55e-15 to 2.66e-15.  A change that moves any field again must name it and
# re-record it.
INTRINSIC_REPORTS = {
    "semiaxes = 1.0 0.8 0.5": {
        "V_0": 0.3210937776567672, "V_1": 0.3144556848254653,
        "V_2": 0.1789062223432333, "polar_volume": 2.7196867257298107,
        "reach_estimate": 0.2500001073552304,
        "sum_identity_residual": 1.7763568394002505e-15,
        "tube_volume": 1.1832851059963287, "volume": 0.9428112535575849},
    "semiaxes = 1.4 0.7 1.1": {
        "V_0": 0.2431092224825186, "V_1": 0.32825852836158204,
        "V_2": 0.2568907775174814, "polar_volume": 1.6204062837909567,
        "reach_estimate": 0.3500001563298924,
        "sum_identity_residual": 2.6645352591003757e-15,
        "tube_volume": 2.1086239463354595, "volume": 1.769634484873245},
    f"radius = {pi / 6!r}": {
        "V_0": 0.37500000000000977, "V_1": 0.2756644477108886,
        "V_2": 0.12500000000000047, "polar_volume": 3.8590372210415786,
        "reach_estimate": 1.0471975511965979,
        "sum_identity_residual": 1.1546319456101628e-14,
        "tube_volume": 0.7401025513076878, "volume": 0.5691690873451263},
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


def test_omega_evaluates_the_gradient_once_per_surface_sample(capsys, tmp_path,
                                                              monkeypatch):
    # surface_points hands its gradient to shape_operators, which used to
    # evaluate it again at the same nodes; the report is the one recorded
    # before, bit for bit
    from tangentflats.bodies import ConvexBody
    body = tmp_path / "quartic.body"
    body.write_text(IMPLICIT_BODY)
    calls, gradient = [], ConvexBody.surface_gradient

    def counted(self, x):
        calls.append(len(x))
        return gradient(self, x)

    monkeypatch.setattr(ConvexBody, "surface_gradient", counted)
    code, out, _ = run_cli(capsys, "omega", str(body), "--k", "1")
    assert code == 0 and calls == [8192]
    report = json.loads(out)
    report.pop("wall_time_s")
    assert report == {
        "command": "omega", "degenerate_counts": {},
        "parameters": {"body": str(body), "k": 1, "level": 4, "method": "convex"},
        "results": {"tangent_ratio": 1.2741399695891786},
        "diagnostics": {"max_abs_principal_curvature": 1.4183210043222,
                        "min_principal_curvature": 0.600000400402014,
                        "min_ray_cosine": 0.9959619296450472, "nodes": 8192},
        "seed": 0, "version": "0.1.0"}


# Calls one command makes to the curvature functions the benchmark's tracer
# times, as recorded before the surface arrays went node-last: one surface
# sample per body (intrinsic's second radial-root call is the polar body's).
# A path that bypasses one of these functions leaves its timing reading 0.
HOOK_CALLS = {
    "intrinsic": {"surface_grid": 1, "_radial_roots": 2, "surface_points": 1,
                  "shape_operators": 1},
    "omega": {"surface_grid": 1, "_radial_roots": 1, "surface_points": 1,
              "shape_operators": 1},
}


@pytest.mark.parametrize("command", sorted(HOOK_CALLS))
def test_surface_commands_call_each_traced_function_as_recorded(
        capsys, tmp_path, monkeypatch, command):
    calls = counted_calls(monkeypatch, HOOK_CALLS[command])
    body = tmp_path / "b.body"
    if command == "intrinsic":
        body.write_text("kind = ellipsoid\nn = 3\nsemiaxes = 1.0 0.8 0.5\n")
        argv = ("intrinsic", str(body), "--eps", "0.05")
    else:
        body.write_text(IMPLICIT_BODY)
        argv = ("omega", str(body), "--k", "1")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == HOOK_CALLS[command]


@st.composite
def implicit_body_texts(draw):
    """Implicit body files in RP^3: terms of one degree with random
    exponents and coefficients, and a random convexity declaration."""
    degree = draw(st.integers(1, 8))
    # cut points of a composition of `degree` into four exponents
    exponent = st.lists(st.integers(0, degree), min_size=3, max_size=3).map(
        lambda r: np.diff([0, *sorted(r), degree]).tolist())
    coeff = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    terms = draw(st.lists(st.tuples(coeff, exponent), min_size=1, max_size=8))
    if draw(st.booleans()):     # a term in x0^d alone: F(e_0) is mostly nonzero
        terms.append((draw(coeff), [degree, 0, 0, 0]))
    lines = ["kind = implicit", "n = 3",
             f"convex = {str(draw(st.booleans())).lower()}"]
    lines += [f"term = {c!r} " + " ".join(map(str, e)) for c, e in terms]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=implicit_body_texts())
def test_generated_implicit_bodies_end_in_a_documented_exit_code(
        capsys, tmp_path, text):
    body = tmp_path / "generated.body"
    body.write_text(text)
    for command in ("omega", "intrinsic"):
        code, out, err = run_cli(capsys, command, str(body), "--level", "1")
        assert code in (0, 2, 3), (command, code, err)
        if code == 0:
            assert "NaN" not in out and "Infinity" not in out, out


def refuse_constant(name):
    raise ValueError(f"the report holds {name}")


# non-finite values, values whose squares or inverse squares overflow or
# underflow, and the largest and smallest doubles
EXTREME_FLOATS = (float("nan"), float("inf"), 0.0, 5e-324, 1e-300, 1e-160, 1e-7,
                  1e7, 1e160, 1e300, 1.7976931348623157e308)


def body_floats(lo, hi):
    """Floats in [lo, hi] three times in four, else an extreme value of
    either sign."""
    usual = st.floats(lo, hi)
    extreme = st.sampled_from([*EXTREME_FLOATS, *(-x for x in EXTREME_FLOATS)])
    return st.one_of(usual, usual, usual, extreme)


@st.composite
def quadric_body_texts(draw):
    """Ellipsoid, affine-sphere and quadric body files in RP^3 whose numbers
    are mostly in range; a quadric is a symmetric perturbation of
    diag(-1, 1, 1, 1), the unit ball, and the others sometimes name a chart
    from -1 to 4, of which 0 to 3 exist."""
    kind = draw(st.sampled_from(["ellipsoid", "affine_sphere", "quadric"]))

    def numbers(count, lo, hi):
        return " ".join(repr(draw(body_floats(lo, hi))) for _ in range(count))

    if kind == "ellipsoid":
        lines = [f"semiaxes = {numbers(3, 0.3, 2.0)}"]
    elif kind == "affine_sphere":
        lines = [f"center = {numbers(3, -0.6, 0.6)}", f"radius = {numbers(1, 0.1, 1.0)}"]
    else:
        A = [[-1.0 if i == j == 0 else float(i == j) for j in range(4)] for i in range(4)]
        for i in range(4):
            for j in range(i, 4):
                A[i][j] = A[j][i] = A[i][j] + draw(body_floats(-0.3, 0.3))
        lines = ["row = " + " ".join(map(repr, row)) for row in A]
    if kind != "quadric" and draw(st.booleans()):
        lines.append(f"chart = {draw(st.integers(-1, 4))}")
    return "\n".join([f"kind = {kind}", "n = 3", *lines]) + "\n"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=quadric_body_texts())
def test_generated_quadric_bodies_end_in_a_documented_exit_code(
        capsys, tmp_path, text):
    body = tmp_path / "generated.body"
    body.write_text(text)
    for argv in (["omega", str(body)], ["intrinsic", str(body)],
                 ["tau", *[str(body)] * 4, "--mode", "empirical", "--trials", "1",
                  "--workers", "1"]):
        code, out, err = run_cli(capsys, *argv, "--level", "1")
        assert code in (0, 2, 3), (argv[0], code, err)
        if code == 0:
            json.loads(out, parse_constant=refuse_constant)


@pytest.mark.parametrize("command, text", [
    ("omega", "kind = quadric\nn = -1\n"),
    ("intrinsic", "kind = quadric\nn = -1\n"),
    ("intrinsic", "kind = metric_sphere\nn = 1\nradius = 0.5\n"),
    ("intrinsic", "kind = ellipsoid\nn = 0\nsemiaxes = \n"),
    ("omega --k 0", "kind = implicit\nn = 1\nterm = 1 2 0\nterm = -1 0 2\n"),
    ("omega", "kind = implicit\nn = 3\nterm = 1 2 0 0 0\nterm = -1 0 2 0 0\n"
              "term = -1 0 0 2 0\nterm = -1 0 0 0 2\ncenter = 1 0\n"),
])
def test_small_dimension_body_files_are_usage_errors(capsys, tmp_path, command, text):
    # body files parse from n = 1 on, and every command needs n >= 2
    body = tmp_path / "small.body"
    body.write_text(text)
    command, *flags = command.split()
    code, out, err = run_cli(capsys, command, str(body), *flags, "--level", "1")
    assert code == 2 and out == "", err
    assert "n >= " in err or "center must have 4 homogeneous coordinates" in err


@pytest.mark.parametrize("text, message", [
    ("kind = metric_sphere\nn = 3\n", "missing required key 'radius'"),
    ("kind = quadric\nn = -1\n", "need n >= 1, got n = -1"),
    ("kind = implicit\nn = 3\nterm = 1 2 0 0 0\nterm = -1 0 2 0 0\n"
     "term = -1 0 0 2 0\nterm = -1 0 0 0 2\ncenter = 1 0\n",
     "center must have 4 homogeneous coordinates"),
    ("kind = dodecahedron\nn = 3\n", "unknown body kind 'dodecahedron'"),
    ("kind = ellipsoid\nn = 3\nsemiaxes = 1 0.8 0.5\nchart = 7\n",
     "chart must be one of 0..3, got 7"),
])
def test_whole_file_body_errors_name_no_line(capsys, tmp_path, text, message):
    body = tmp_path / "q.body"
    body.write_text(text)
    code, out, err = run_cli(capsys, "omega", str(body), "--level", "1")
    assert code == 2 and out == ""
    assert err == f"error: {body}: {message}\n"


# Fuzzed command lines.  Flags that set the amount of work only ever take
# values up to --workers 1, 1,000 samples, 1 trial and level 2, so that no
# process pool starts and every command finishes in well under a second.
NUMBER_TOKENS = st.one_of(
    st.integers(-3, 5).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e400",
                     "5e-324", "99999999999999999999", "-99999999999999999999",
                     "0.5", "2.5", "", "x", "0x10"]),
    st.floats().map(repr))
CAPPED = {
    "--samples": ["1", "1000", "0", "-1", "nan", "inf", "1e3", "x"],
    "--trials": ["1", "0", "-1", "nan", "2.5"],
    "--level": ["1", "2", "0", "-1", "nan", "inf", "1e9"],
    "--workers": ["1", "0", "-1", "nan", "x"],
    "--mode": ["formula", "empirical", "x"],
    "--method": ["auto", "convex", "semialgebraic", "h-integral", "x"],
    "--format": ["report", "csv", "x"],
}
DELTA_SOURCES = st.one_of(
    st.sampled_from(["exact", "reference", "mc:1000", "mc:1", "mc:0", "mc:-5",
                     "mc:nan", "mc:1e3", "x"]),
    NUMBER_TOKENS.map("value:{}".format))


@st.composite
def fuzzed_argv(draw, bodies):
    """A subcommand, its positionals and a list of flags, valid or not."""
    command = draw(st.sampled_from(["delta", "tau", "omega", "intrinsic", "volumes",
                                    "bogus", "--version"]))
    body = st.sampled_from(bodies)
    if command in ("delta", "volumes"):
        positional = draw(st.lists(NUMBER_TOKENS, min_size=0, max_size=3))
    elif command == "tau":
        positional = draw(st.lists(body, min_size=0, max_size=5))
    else:
        positional = draw(st.lists(body, min_size=0, max_size=2))
    flag = st.one_of(
        st.sampled_from(sorted(CAPPED)).flatmap(
            lambda name: st.sampled_from(CAPPED[name]).map(lambda v: [name, v])),
        st.tuples(st.sampled_from(["--seed", "--k", "--n", "--eps"]),
                  NUMBER_TOKENS).map(list),
        DELTA_SOURCES.map(lambda v: ["--delta-source", v]),
        st.tuples(NUMBER_TOKENS, NUMBER_TOKENS, st.sampled_from(
            ["1", "3", "0", "-1", "nan", "inf", "1e20", "10001"])).map(
                lambda lo_hi_count: ["--sweep-radius", *lo_hi_count]),
        st.sampled_from([["--bogus"], ["--"], ["-x"]]),
        st.text("ab1.e", max_size=4).map(lambda t: [t]))
    flags = [token for f in draw(st.lists(flag, max_size=4)) for token in f]
    caps = ["--workers", "1", "--level", "2"]
    if command in ("delta", "omega"):
        caps += ["--samples", "1000"]
    if command == "tau":
        caps += ["--trials", "1"]
    return [command, *positional, *caps, *flags]


@pytest.fixture(scope="module")
def fuzz_bodies(tmp_path_factory):
    """Body files for fuzzed command lines: three valid bodies in RP^3, one
    in RP^1, a malformed file, a missing path and a directory."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = {"sphere": "kind = metric_sphere\nn = 3\nradius = 0.5\n",
             "points": "kind = metric_sphere\nn = 1\nradius = 0.5\n",
             "ellipsoid": "kind = ellipsoid\nn = 3\nsemiaxes = 1.0 0.8 0.5\n",
             "quartic": IMPLICIT_BODY, "malformed": "kind = sphere\nn three\n"}
    for name, text in texts.items():
        (root / f"{name}.body").write_text(text)
    return [str(root / f"{name}.body") for name in (*texts, "missing")] + [str(root)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_command_lines_end_in_a_documented_exit_code(capsys, fuzz_bodies, data):
    argv = data.draw(fuzzed_argv(fuzz_bodies))
    try:
        code = main(argv)
    except SystemExit as exc:       # argparse: usage errors and --version
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0 and out.startswith("{"):
        json.loads(out, parse_constant=refuse_constant)


def test_delta_refuses_more_than_five_percent_degenerate_draws(capsys, monkeypatch):
    from tangentflats import schubert
    count = schubert._count_batch

    def degenerate_share(share):
        """_count_batch with the first `share` of each batch degenerate."""
        def counting(lines):
            counts, degenerate, disc, cond = count(lines)
            forced = np.arange(counts.size) < share * counts.size
            return np.where(forced, -1, counts), degenerate | forced, disc, cond
        return counting

    argv = ("delta", "1", "3", "--samples", "1000", "--workers", "1")
    monkeypatch.setattr(schubert, "_count_batch", degenerate_share(0.10))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", "error: 100 of 1000 draws were degenerate\n")
    monkeypatch.setattr(schubert, "_count_batch", degenerate_share(0.04))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["degenerate_counts"] == {"discarded_draws": 40}


REPORT_KEYS = {"command", "parameters", "seed", "wall_time_s", "results",
               "degenerate_counts", "version"}
SURFACE_DIAGNOSTICS = {"nodes", "min_principal_curvature",
                       "max_abs_principal_curvature", "min_ray_cosine"}
FORMULA_DIAGNOSTICS = {"routes", "nodes"}
TAU_DIAGNOSTICS = {"chunks", "paths_regular", "paths_singular", "paths_lost", "retries",
                   "path_steps", "max_path_steps", "rejected_steps", "min_dt", "solves"}


@pytest.mark.parametrize("argv", [
    ("volumes", "1", "3"),
    ("delta", "1", "3", "--samples", "2000"),
    ("omega", "SPHERE"),
    ("omega", "SPHERE", "--sweep-radius", "0.3", "1.2", "2"),
    ("tau", *["SPHERE"] * 4),
    ("tau", "SPHERE", "ELLIPSOID", "SPHERE", "ELLIPSOID"),
    ("tau", *["SPHERE"] * 4, "--mode", "empirical", "--trials", "2"),
    ("intrinsic", "SPHERE"),
], ids=["volumes", "delta", "omega", "omega-sweep", "tau-formula",
        "tau-formula-quadrature", "tau-empirical", "intrinsic"])
def test_every_report_has_the_same_keys_and_reproduces(capsys, tmp_path, argv):
    files = {"SPHERE": sphere_file(tmp_path),
             "ELLIPSOID": ellipsoid_file(tmp_path, "1.0 0.8 0.5")}
    argv = [files.get(a, a) for a in argv]
    reports = []
    for _ in range(2):
        code, out, err = run_cli(capsys, *argv, "--level", "2", "--workers", "1")
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    surface = argv[0] in ("omega", "intrinsic") and "--sweep-radius" not in argv
    empirical = "empirical" in argv
    assert set(reports[0]) == REPORT_KEYS | (
        {"diagnostics"} if surface or argv[0] in ("delta", "tau") else set())
    if argv[0] == "tau" and not empirical:
        assert set(reports[0]["diagnostics"]) == FORMULA_DIAGNOSTICS
        routes = reports[0]["diagnostics"]["routes"]
        assert routes == ["closed_form" if a == files["SPHERE"] else "quadrature"
                          for a in argv[1:5]]
        assert reports[0]["diagnostics"]["nodes"] == 512 * routes.count("quadrature")
    if empirical:       # four spheres: the eigenvalue route's two fields too
        assert set(reports[0]["diagnostics"]) == TAU_DIAGNOSTICS | {
            "null_space_ratio", "root_separation"}
        assert reports[0]["diagnostics"]["paths_regular"] == 2 * 12
    if surface:
        assert set(reports[0]["diagnostics"]) == SURFACE_DIAGNOSTICS | (
            {"reach_source"} if argv[0] == "intrinsic" else set())
        assert reports[0]["diagnostics"]["nodes"] == 512
    assert reports[0]["command"] == argv[0]
    assert all(r.pop("wall_time_s") >= 0 for r in reports)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv, message", [
    (("volumes", "5", "3"), "need 0 <= k <= n-1, got (k, n) = (5, 3)"),
    (("volumes", "1", "63"),
     "(k, n) = (1, 63): the volumes overflow or underflow double precision"),
    (("omega", "SPHERE", "--k", "3"), "need 0 <= k <= n-1, got (k, n) = (3, 3)"),
    (("omega", "QUARTIC", "--sweep-radius", "0.3", "1.2", "4"),
     "--sweep-radius needs a metric sphere body"),
    (("omega", "SPHERE", "--sweep-radius", "0.3", "1.2", "0"),
     f"--sweep-radius COUNT must be an integer in [1, {MAX_SWEEP_RADII}], got 0.0"),
    (("omega", "SPHERE", "--method", "h-integral", "--sweep-radius", "0.2", "1.2", "2"),
     "--sweep-radius takes the convex method, got h-integral"),
    (("omega", "SPHERE", "--method", "semialgebraic", "--sweep-radius", "0.2", "1.2", "2"),
     "--sweep-radius takes the convex method, got semialgebraic"),
    (("omega", "SPHERE4", "--method", "h-integral"), "h-integral method needs n = 3"),
    (("tau", *["SPHERE"] * 4, "--k", "3"), "need 0 <= k <= n-1, got (k, n) = (3, 3)"),
    (("tau", *["SPHERE"] * 3), "(k, n) = (1, 3) needs 4 body files, got 3"),
    (("tau", *["SPHERE"] * 3, "SPHERE4"), "all bodies must live in the same RP^n"),
    (("tau", *["SPHERE"] * 3, "QUARTIC", "--mode", "empirical"),
     "empirical mode counts tangent lines to quadrics in RP^3 only"),
    # each polar axis keeps 4 points, so at any level 2 * 4^11 nodes
    (("omega", "SPHERE12"), "the grid on S^11 needs 8388608 nodes, over 1048576"),
    (("intrinsic", "SPHERE12"), "the grid on S^11 needs 8388608 nodes, over 1048576"),
    # 2 Gamma((n+1)/2) of the closed-form ratio overflowed from n = 342 (to a
    # traceback from n = 343), and the matrix of n = 10^6 did not fit in memory
    (("tau", "--k", "0", "--n", "400", "--delta-source", "exact", *["SPHERE400"] * 400),
     "{SPHERE400}: need n <= 341, got n = 400"),
    (("omega", "SPHERE1000000"), "{SPHERE1000000}: need n <= 341, got n = 1000000"),
    (("tau", "--k", "0", "--n", "342", "--delta-source", "exact", *["SPHERE342"] * 342),
     "{SPHERE342}: need n <= 341, got n = 342"),
    # expected degree times four ratios of 1.2004 overflowed to a report of Infinity
    (("tau", *["WIDE"] * 4, "--delta-source", "value:1e308"),
     "the average tangent count overflows double precision"),
], ids=["volumes-k", "volumes-precision", "omega-k", "sweep-body", "sweep-count",
        "sweep-h-integral", "sweep-semialgebraic", "h-integral-n", "tau-k",
        "tau-body-count", "tau-dimensions", "tau-empirical-kind", "omega-grid-nodes",
        "intrinsic-grid-nodes", "tau-body-dimension", "omega-body-dimension",
        "tau-first-infinite-ratio", "tau-infinite-product"])
def test_command_refusals_exit_2_with_one_error_line(capsys, tmp_path, argv, message):
    quartic = tmp_path / "quartic.body"
    quartic.write_text(IMPLICIT_BODY)
    files = {"SPHERE": sphere_file(tmp_path), "QUARTIC": str(quartic),
             "WIDE": sphere_file(tmp_path, 0.9553, "wide.body")}
    for n in (4, 12, 342, 400, 10 ** 6):
        body = tmp_path / f"sphere{n}.body"
        body.write_text(f"kind = metric_sphere\nn = {n}\nradius = 0.5\n")
        files[f"SPHERE{n}"] = str(body)
    code, out, err = run_cli(capsys, *[files.get(a, a) for a in argv], "--level", "1")
    assert (code, out, err) == (2, "", f"error: {message.format(**files)}\n")


def test_tau_at_the_largest_body_dimension_reports_finite_ratios(capsys, tmp_path):
    # n = 341 is the last n whose closed-form sphere ratio is finite
    body = tmp_path / "sphere341.body"
    body.write_text("kind = metric_sphere\nn = 341\nradius = 0.5\n")
    code, out, err = run_cli(capsys, "tau", "--k", "0", "--n", "341", "--delta-source",
                             "exact", *[str(body)] * 341)
    assert code == 0, err
    assert 0 < json.loads(out)["results"]["ratio_340"] < 1e-100


# Reports recorded before main took over building and emitting them, with
# wall_time_s dropped: the tangent counts of twenty ellipsoid trials and the
# h-integral of an implicit quartic must stay the same to the last bit.  The
# node-last surface arrays moved both h-integral fields by one ulp, and added
# its diagnostics block; the tau report's diagnostics block came later, and
# its tracker work was recorded again when the corrector began to stop at
# convergence.
ELLIPSOID_SEMIAXES = ("1.0 0.8 0.5", "1.4 0.7 1.1", "0.6 0.9 1.2", "1.3 1.0 0.7")


def test_tau_empirical_ellipsoid_report_matches_recorded_values(capsys, tmp_path):
    bodies = []
    for i, semiaxes in enumerate(ELLIPSOID_SEMIAXES):
        body = tmp_path / f"e{i}.body"
        body.write_text(f"kind = ellipsoid\nn = 3\nsemiaxes = {semiaxes}\n")
        bodies.append(str(body))
    code, out, _ = run_cli(capsys, "tau", *bodies, "--mode", "empirical",
                           "--trials", "20", "--seed", "4", "--workers", "1")
    assert code == 0
    report = json.loads(out)
    report.pop("wall_time_s")
    assert report == {
        "command": "tau",
        "degenerate_counts": {"discarded_trials": 0, "path_failure_trials": 0},
        "parameters": {"bodies": bodies, "delta_source": "reference", "k": 1,
                       "mode": "empirical", "n": 3, "trials": 20},
        "results": {"average_tangent_count": {"degenerate": 0, "mean": 4.2, "samples": 20,
                                              "stderr": 0.4328607409463598},
                    "expected_degree": 1.7262},
        "diagnostics": {"chunks": 1, "paths_regular": 640, "paths_singular": 0,
                        "paths_lost": 0, "retries": 0, "path_steps": 9676,
                        "max_path_steps": 48, "rejected_steps": 2898,
                        "min_dt": 0.0008342742919921876, "solves": 53163},
        "seed": 4, "version": "0.1.0"}


# The diagnostics block of 60 trials on the main theorem's spheres, two
# chunks (53 and 7 trials), recorded when the sphere route became one
# eigenvalue solve a trial: the tracker work is that of retries alone, none
# here, so min_dt is null.  The route's largest null-space ratio is a
# rounding error and its smallest root separation moves in the last bits
# with the BLAS thread count, so they are held to a bound and a tolerance.
# Chunk totals are combined by sum, max and min, so --workers moves nothing.
SPHERE_TAU_DIAGNOSTICS = {
    "chunks": 2, "paths_regular": 720, "paths_singular": 0, "paths_lost": 0,
    "retries": 0, "path_steps": 0, "max_path_steps": 0, "rejected_steps": 0,
    "min_dt": None, "solves": 0}
SPHERE_ROOT_SEPARATION = 0.0007307879109943775


def test_tau_sphere_diagnostics_match_recorded_values_for_any_workers(capsys, tmp_path):
    bodies = [sphere_file(tmp_path, r, f"s{i}.body")
              for i, r in enumerate((pi / 6, pi / 4, pi / 3, pi / 4))]
    eigen = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, "tau", *bodies, "--mode", "empirical", "--trials",
                               "60", "--seed", "5", "--workers", workers)
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        eigen.append((diagnostics.pop("null_space_ratio"), diagnostics.pop("root_separation")))
        assert diagnostics == SPHERE_TAU_DIAGNOSTICS
        assert 0.0 < eigen[-1][0] < 1e-11
        assert eigen[-1][1] == pytest.approx(SPHERE_ROOT_SEPARATION, rel=1e-9)
        assert json.loads(out)["results"]["average_tangent_count"] == {
            "degenerate": 0, "mean": 3.1666666666666665, "samples": 60,
            "stderr": 0.25285563048540816}
    assert eigen[0] == eigen[1]


def test_tau_sphere_report_is_strict_json(capsys, tmp_path):
    # no path is tracked, so the smallest step tried is math.inf, which
    # json.dumps would print as Infinity; the report holds null instead
    bodies = [sphere_file(tmp_path, r, f"s{i}.body")
              for i, r in enumerate((pi / 6, pi / 4, pi / 3, pi / 4))]
    code, out, _ = run_cli(capsys, "tau", *bodies, "--mode", "empirical", "--trials",
                           "20", "--seed", "1", "--workers", "1")
    assert code == 0
    report = json.loads(out, parse_constant=refuse_constant)
    assert report["diagnostics"]["min_dt"] is None
    assert report["diagnostics"]["retries"] == 0


def test_omega_h_integral_report_matches_recorded_values(capsys, tmp_path):
    body = tmp_path / "quartic.body"
    body.write_text(IMPLICIT_BODY)
    code, out, _ = run_cli(capsys, "omega", str(body), "--method", "h-integral")
    assert code == 0
    report = json.loads(out)
    report.pop("wall_time_s")
    assert report == {
        "command": "omega", "degenerate_counts": {},
        "parameters": {"body": str(body), "k": 1, "level": 4, "method": "h-integral"},
        "results": {"tangent_ratio": 1.274139969589182,
                    "tangent_volume": 19.75316821325549},
        "diagnostics": {"max_abs_principal_curvature": 1.4183210043222,
                        "min_principal_curvature": 0.600000400402014,
                        "min_ray_cosine": 0.9959619296450472, "nodes": 8192},
        "seed": 0, "version": "0.1.0"}
