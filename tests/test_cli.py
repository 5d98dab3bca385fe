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


def test_delta_exact_and_unsupported(capsys):
    code, out, _ = run_cli(capsys, "delta", "0", "5", "--samples", "10")
    assert code == 0
    assert json.loads(out)["results"]["expected_degree"]["mean"] == 1.0

    code, _, err = run_cli(capsys, "delta", "2", "4", "--samples", "10")
    assert code == 2
    assert "scope" in err


def test_delta_reports_are_reproducible(capsys):
    args = ("delta", "1", "3", "--samples", "20000", "--seed", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    # report round-trips losslessly
    assert json.loads(json.dumps(r1)) == r1


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
], ids=["trials-0", "trials-negative", "workers-0", "samples-0"])
def test_nonpositive_counts_are_usage_errors(capsys, tmp_path, argv):
    bodies = [sphere_file(tmp_path, name=f"s{i}.body") for i in range(4)]
    argv = [a for arg in argv for a in (bodies if arg == "BODIES" else [arg])]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


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
