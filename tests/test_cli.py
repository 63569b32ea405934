import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from cerenkov_fiber.cli import EXIT_SOLVER, EXIT_VALIDATION, main
from cerenkov_fiber.config import load_config, make_model

SMALL = dict(
    radial_count=6,
    polar_count=4,
    azimuthal_count=1,
    n_max=1,
    pairs=3,
)

# dim 1,891 over the dense cutoff, Schur complement 61 under it
SHIFT_INVERT = dict(
    radial_count=10, polar_count=6, n_max=2, experiment={"dense_cutoff": 1000}
)


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


def test_overlap_shift_invert_outputs_reproduce(tmp_path):
    # dim 1,891 above the dense cutoff, 20 pairs near P^2/2: the shift-invert path
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(SHIFT_INVERT))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run([
            "overlap", "--config", str(path), "--out", str(out),
            "--p", "0.5,0,0", "--g", "0.05",
        ]) == 0
    assert (out1 / "overlap.csv").read_bytes() == (out2 / "overlap.csv").read_bytes()


def test_overlap_shift_invert_failure_exit_code(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0))
        )

    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(SHIFT_INVERT))
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    code = run([
        "overlap", "--config", str(path), "--out", str(tmp_path),
        "--p", "0.5,0,0", "--g", "0.05",
    ])
    assert code == EXIT_SOLVER
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "solver"


def test_overlap_shift_invert_residual_check(tmp_path, capsys, monkeypatch):
    true_eigsh = scipy.sparse.linalg.eigsh

    def one_vector_perturbed(*args, **kwargs):
        vals, vecs = true_eigsh(*args, **kwargs)
        vecs[:, -1] += 1e-6 * np.random.default_rng(1).standard_normal(len(vecs))
        return vals, vecs

    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(SHIFT_INVERT))
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", one_vector_perturbed)
    code = run([
        "overlap", "--config", str(path), "--out", str(tmp_path),
        "--p", "0.5,0,0", "--g", "0.05",
    ])
    assert code == EXIT_SOLVER
    assert not (tmp_path / "overlap.csv").exists()
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "solver"


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
