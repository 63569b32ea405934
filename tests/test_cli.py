import json
import os
import subprocess
import sys

import pytest
import scipy.linalg

from cerenkov_fiber import spectra
from cerenkov_fiber.cli import EXIT_SOLVER, EXIT_VALIDATION, main
from cerenkov_fiber.config import load_config, make_model

SMALL = dict(
    radial_count=6,
    polar_count=4,
    azimuthal_count=1,
    n_max=1,
    pairs=3,
)

# dim 1,891 over the dense cutoff
GAUSS = dict(radial_count=10, polar_count=6, n_max=2, experiment={"dense_cutoff": 1000})


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def run(args):
    return main(args)


def test_cerenkov_table_contains_forward_solution(tmp_path, config_path):
    code = run([
        "cerenkov", "--config", config_path, "--out", str(tmp_path),
        "--p", "2,0,0", "--e", "2", "--thetas", "3",
    ])
    assert code == 0
    lines = (tmp_path / "cerenkov.csv").read_text().strip().split("\n")
    assert lines[1] == "cos_theta,root_count,root_1,root_2"
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert last[1] == "2"
    assert [float(last[2]), float(last[3])] == pytest.approx([0.0, 2.0])


def test_scan_free_theory_energies(tmp_path, config_path):
    code = run([
        "scan", "--config", config_path, "--out", str(tmp_path),
        "--pmin", "0.2", "--pmax", "0.8", "--steps", "3", "--g", "0",
    ])
    assert code == 0
    lines = (tmp_path / "scan.csv").read_text().strip().split("\n")
    body = [line.split(",") for line in lines[2:]]
    for cells in body:
        p, e0 = float(cells[0]), float(cells[1])
        assert e0 == pytest.approx(0.5 * p * p, abs=1e-9)
    record = json.loads((tmp_path / "scan.json").read_text())
    assert record["config"]["radial_count"] == 6


def test_golden_rule_below_threshold(tmp_path, config_path):
    code = run([
        "golden-rule", "--config", config_path, "--out", str(tmp_path),
        "--p", "0.9,0,0", "--g", "0.1",
    ])
    assert code == 0
    record = json.loads((tmp_path / "golden_rule.json").read_text())
    assert record["rate"] == 0.0
    assert record["threshold_cos"] is None


@pytest.mark.filterwarnings("ignore:overlap window captured")
def test_spectrum_and_virial_and_overlap(tmp_path, config_path):
    assert run([
        "spectrum", "--config", config_path, "--out", str(tmp_path),
        "--p", "0.5,0,0", "--g", "0.05",
    ]) == 0
    record = json.loads((tmp_path / "spectrum.json").read_text())
    assert record["eigenvalues"][0] <= 0.125 + 1e-9
    assert record["vacuum_overlap"] > 0.9

    assert run([
        "virial", "--config", config_path, "--out", str(tmp_path),
        "--p", "0.5,0,0", "--g", "0.05", "--kappa", "inf",
    ]) == 0
    virial = json.loads((tmp_path / "virial.json").read_text())
    assert virial["kappa"] == "inf"
    assert "residual" in virial

    assert run([
        "virial", "--config", config_path, "--out", str(tmp_path),
        "--p", "0.5,0,0", "--g", "0.05", "--sector", "2,forward",
    ]) == 0
    sector = json.loads((tmp_path / "virial.json").read_text())
    assert sector["shell_n"] == 2
    assert sector["cone_kind"] == "forward"

    assert run([
        "overlap", "--config", config_path, "--out", str(tmp_path),
        "--p", "0.5,0,0", "--g", "0.05", "--window", "auto",
    ]) == 0
    lines = (tmp_path / "overlap.csv").read_text().strip().split("\n")
    assert lines[2] == "energy,weight"


def test_trial_scaling_csv(tmp_path, config_path):
    code = run([
        "trial-scaling", "--config", config_path, "--out", str(tmp_path),
        "--p", "1.5,0,0", "--eps-min", "0.02", "--eps-max", "0.2", "--points", "4",
    ])
    assert code == 0
    lines = (tmp_path / "trial_scaling.csv").read_text().strip().split("\n")
    assert lines[1] == "epsilon,element_abs,norm,ratio"
    assert len(lines) == 6


def test_deterministic_outputs(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run([
            "scan", "--config", config_path, "--out", str(out),
            "--pmin", "0.3", "--pmax", "0.9", "--steps", "3", "--g", "0.05",
        ]) == 0
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()


def _overlap_argv(config, out, *extra):
    return [
        "overlap", "--config", str(config), "--out", str(out),
        "--p", "1.5,0,0", "--g", "0.05", *extra,
    ]


@pytest.mark.filterwarnings("ignore:overlap window captured")
def test_overlap_gauss_outputs_reproduce(tmp_path):
    # dim 1,891 above the dense cutoff: the vacuum-Lanczos path, which has
    # no random start vector
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(GAUSS))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(_overlap_argv(path, out)) == 0
    text = (out1 / "overlap.csv").read_text()
    assert text == (out2 / "overlap.csv").read_text()
    lines = text.split("\n")
    assert lines[2].startswith("# rows=gauss_nodes nodes=")
    assert "captured_bracket=" in lines[2]
    assert lines[3] == "energy,weight"


def test_overlap_gauss_memory_budget_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(GAUSS))
    # room for five Lanczos vectors of dim 1,891; the bracket needs more
    monkeypatch.setattr(spectra, "LANCZOS_MEMORY_BUDGET", 5 * 8 * 1891)
    code = run(_overlap_argv(path, tmp_path))
    assert code == EXIT_SOLVER
    assert not (tmp_path / "overlap.csv").exists()
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "solver"


@pytest.mark.parametrize(
    "window", ["0.2,0.1", "1.1,1.1", "nan,1.2", "1.0,inf", "-inf,1.2"]
)
def test_overlap_window_validation(tmp_path, capsys, config_path, window):
    code = run(_overlap_argv(config_path, tmp_path, f"--window={window}"))
    assert code == EXIT_VALIDATION
    assert not (tmp_path / "overlap.csv").exists()
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "validation"


def test_scan_and_virial_on_symmetric_grid(tmp_path):
    # dim 2,701 over the default dense cutoff, Schur block 73 under it: the
    # levels above the ground state come in doublets
    cfg = dict(radial_count=6, polar_count=3, azimuthal_count=4)
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(cfg))
    assert run([
        "scan", "--config", str(path), "--out", str(tmp_path),
        "--pmin", "0.5", "--pmax", "1.5", "--steps", "3", "--g", "0.1",
    ]) == 0
    lines = (tmp_path / "scan.csv").read_text().strip().split("\n")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert [row["status"] for row in rows] == ["ok"] * 3
    model = make_model(load_config(str(path)))
    for row in rows:
        h = model.hamiltonian(model.on_axis(float(row["p"])), 0.1).matrix
        exact = scipy.linalg.eigvalsh(h.toarray(), subset_by_index=(0, 0))
        assert float(row["e0"]) == pytest.approx(exact[0], abs=1e-10)
    assert run([
        "virial", "--config", str(path), "--out", str(tmp_path),
        "--p", "0,0,0.5", "--g", "0.1",
    ]) == 0


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate pulls in scipy.optimize; only golden_rule_rate needs it
    code = (
        "import sys, cerenkov_fiber.cli; "
        "print('scipy.integrate' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert out.stdout.strip() == "False"


def test_unknown_flag_exit_code(capsys, config_path):
    code = run(["scan", "--config", config_path, "--bogus", "1"])
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"


def test_invalid_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k_min": -2.0}))
    code = run([
        "golden-rule", "--config", str(bad), "--p", "1.5,0,0", "--g", "0.1",
    ])
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"


def test_bad_vector_exit_code(capsys, config_path):
    code = run([
        "golden-rule", "--config", config_path, "--p", "1.5,0", "--g", "0.1",
    ])
    assert code == EXIT_VALIDATION


def test_solver_failure_exit_code(tmp_path, capsys):
    cfg = dict(SMALL)
    cfg["solver_maxiter"] = 1
    cfg["solver_tol"] = 1e-14
    cfg["radial_count"] = 20
    cfg["polar_count"] = 8
    cfg["n_max"] = 2
    cfg["experiment"] = {"dense_cutoff": 10}
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(cfg))
    code = run([
        "spectrum", "--config", str(path), "--out", str(tmp_path),
        "--p", "0.5,0,0", "--g", "0.05", "--pairs", "4",
    ])
    assert code == EXIT_SOLVER
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "solver"
