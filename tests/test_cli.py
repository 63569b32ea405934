import json
import os
import subprocess
import sys

import pytest
import scipy.linalg
from conftest import empty_windows

from cerenkov_fiber import cli, spectra
from cerenkov_fiber.cli import EXIT_SOLVER, EXIT_VALIDATION, main
from cerenkov_fiber.config import config_from_dict, load_config, make_model

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


@pytest.mark.filterwarnings("ignore:overlap window captured")
def test_deterministic_outputs(tmp_path, config_path):
    # every file of every command reproduces byte for byte and carries the
    # config fingerprint
    commands = [
        ["spectrum", "--p", "0.5,0,0", "--g", "0.05"],
        ["scan", "--pmin", "0.3", "--pmax", "0.9", "--steps", "3", "--g", "0.05"],
        ["virial", "--p", "0.5,0,0", "--g", "0.05"],
        ["cerenkov", "--p", "2,0,0", "--thetas", "3"],
        ["golden-rule", "--p", "1.5,0,0", "--g", "0.1"],
        [
            "trial-scaling", "--p", "1.5,0,0",
            "--eps-min", "0.02", "--eps-max", "0.2", "--points", "3",
        ],
        ["overlap", "--p", "0.5,0,0", "--g", "0.05"],
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        for command in commands:
            common = ["--config", config_path, "--out", str(out)]
            assert run(command + common) == 0, command
    names = sorted(os.listdir(out1))
    assert names == [
        "cerenkov.csv", "golden_rule.json", "overlap.csv", "scan.csv",
        "scan.json", "spectrum.json", "trial_scaling.csv", "virial.json",
    ]
    assert sorted(os.listdir(out2)) == names
    fingerprint = load_config(config_path).fingerprint()
    for name in names:
        text = (out1 / name).read_text()
        assert text == (out2 / name).read_text(), name
        if name.endswith(".csv"):
            assert text.split("\n")[0] == f"# fingerprint={fingerprint}", name
        else:
            assert json.loads(text)["fingerprint"] == fingerprint, name


def test_scan_csv_and_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL, experiment={"n_shell_max": 2})))
    assert run([
        "scan", "--config", str(path), "--out", str(tmp_path),
        "--pmin", "0.2", "--pmax", "0.8", "--steps", "4", "--g", "0",
    ]) == 0
    fingerprint = load_config(str(path)).fingerprint()
    lines = (tmp_path / "scan.csv").read_text().split("\n")
    assert lines[0] == f"# fingerprint={fingerprint}"
    header = lines[1].split(",")
    assert header == [
        "p", "e0", "grad_e_fh", "grad_e_fd", "curvature_fd",
        "n_shell_1", "n_shell_2", "vacuum_overlap", "status",
    ]
    assert len(lines) == 7 and lines[-1] == ""
    record = json.loads((tmp_path / "scan.json").read_text())
    assert record["fingerprint"] == fingerprint
    assert record["columns"] == header
    assert len(record["rows"]) == 4
    for line, row in zip(lines[2:], record["rows"]):
        assert set(row) == {
            "p", "e0", "grad_e_fh", "grad_e_fd", "curvature_fd",
            "shell_numbers", "vacuum_overlap", "status",
        }
        cells = line.split(",")
        assert [float(c) for c in cells[:5]] == [row[k] for k in header[:5]]
        assert [float(c) for c in cells[5:7]] == row["shell_numbers"]
        assert cells[-1] == row["status"] == "ok"


def test_overlap_csv(tmp_path, config_path):
    assert run([
        "overlap", "--config", config_path, "--out", str(tmp_path),
        "--p", "0.5,0,0", "--g", "0.02",
    ]) == 0
    lines = (tmp_path / "overlap.csv").read_text().strip().split("\n")
    assert lines[0] == f"# fingerprint={load_config(config_path).fingerprint()}"
    assert lines[1].startswith("# captured_weight=")
    assert lines[2] == "energy,weight"


@pytest.fixture(scope="module")
def gauss_empty_windows():
    """Windows of the GAUSS model's vacuum measure at P = (0, 0, 0.5),
    g = 0.05 that hold no weight, from a full eigh."""
    model = make_model(config_from_dict(GAUSS))
    mat = model.hamiltonian(model.on_axis(0.5), 0.05).matrix.toarray()
    vals, vecs = scipy.linalg.eigh(mat)
    return empty_windows(vals, vecs[0] ** 2)


@pytest.mark.parametrize(
    "dense_cutoff, which",
    [
        pytest.param(1000, 0, id="gauss-below"),
        pytest.param(1000, 1, id="gauss-gap"),
        pytest.param(2000, 0, id="dense-below"),
    ],
)
def test_overlap_empty_window_csv(tmp_path, gauss_empty_windows, dense_cutoff, which):
    # a window without weight writes the header-only file; the Gauss path
    # adds its rule line, with the certified bracket's upper end
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(GAUSS, experiment={"dense_cutoff": dense_cutoff})))
    cfg = load_config(str(path))
    lo, hi = map(float, gauss_empty_windows[which])
    with pytest.warns(UserWarning, match="captured only 0.0000"):
        assert run(_overlap_argv(
            path, tmp_path, f"--window={lo!r},{hi!r}", p="0,0,0.5"
        )) == 0
    expected = [
        f"# fingerprint={cfg.fingerprint()}",
        "# captured_weight=0.0 low_capture=true",
    ]
    model = make_model(cfg)
    if model.basis.dimension > dense_cutoff:
        with pytest.warns(UserWarning, match="captured only 0.0000"):
            dist = spectra.vacuum_overlap_distribution(
                model, model.on_axis(0.5), 0.05, window=(lo, hi)
            )
        lower, upper = dist.bracket
        assert dist.nodes >= 1 and lower == 0.0
        expected.append(
            f"# rows=gauss_nodes nodes={dist.nodes} captured_bracket=0.0,{upper!r}"
        )
    expected.append("energy,weight")
    assert (tmp_path / "overlap.csv").read_text().splitlines() == expected


def _overlap_argv(config, out, *extra, p="1.5,0,0"):
    return [
        "overlap", "--config", str(config), "--out", str(out),
        "--p", p, "--g", "0.05", *extra,
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


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    # scipy.integrate pulls in scipy.optimize, a slow import; neither the
    # package import nor a golden-rule rate (overlap's automatic window, here
    # on the Gauss path of the overlap_interior benchmark config) needs it.
    # No command runs ARPACK either, so scipy.sparse.linalg stays unloaded
    # through scan, virial and a multi-pair solve on the Schur path
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"radial_count": 10, "polar_count": 7}))
    common = ["--config", str(config), "--out", str(tmp_path)]
    at = ["--p", "1.5,0,0"]
    commands = [
        [],
        ["overlap", "--g", "0.05"] + at,
        ["golden-rule", "--g", "0.1"] + at,
        ["scan", "--pmin", "1.1", "--pmax", "1.5", "--steps", "2", "--g", "0.05"],
        ["spectrum", "--g", "0.05", "--pairs", "4"] + at,
        ["virial", "--g", "0.05"] + at,
    ]
    code = (
        "import json, sys\n"
        "from cerenkov_fiber.cli import main\n"
        "common, commands = json.loads(sys.argv[1]), json.loads(sys.argv[2])\n"
        "loaded = []\n"
        "for args in commands:\n"
        "    assert not args or main(args + common) == 0\n"
        "    loaded.append([m for m in ('scipy.integrate', 'scipy.optimize',"
        " 'scipy.sparse.linalg') if m in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(common), json.dumps(commands)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert json.loads(out.stdout.strip().split("\n")[-1]) == [[]] * len(commands)
    assert json.loads((tmp_path / "spectrum.json").read_text())["method"] == "schur"
    assert "# rows=gauss_nodes" in (tmp_path / "overlap.csv").read_text()
    assert json.loads((tmp_path / "golden_rule.json").read_text())["rate"] > 0.0


def test_scan_and_virial_solve_for_the_ground_pair_only(tmp_path, monkeypatch):
    # every quantity of a scan row and of virial reads the ground pair, so no
    # solve asks for `pairs` (here 4) eigenpairs
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"radial_count": 6, "polar_count": 3, "experiment": {"dense_cutoff": 50}}
    ))
    counts = []
    true_solve = spectra.lowest_eigenpairs

    def recorded(op, count, **kwargs):
        result = true_solve(op, count, **kwargs)
        counts.append((count, result.method))
        return result

    monkeypatch.setattr(spectra, "lowest_eigenpairs", recorded)
    common = ["--config", str(config), "--out", str(tmp_path), "--g", "0.05"]
    scan = ["scan", "--pmin", "0.5", "--pmax", "1.5", "--steps", "2"]
    assert run(scan + common) == 0
    assert len(counts) == 10  # five solves per row
    assert run(["virial", "--p", "1.5,0,0"] + common) == 0
    assert run(["virial", "--p", "0.5,0,0", "--sector", "1,forward"] + common) == 0
    assert counts == [(1, "schur")] * 12


@pytest.mark.parametrize("command", ["golden-rule", "overlap"])
def test_divergent_golden_rule_exits_with_validation_record(tmp_path, capsys, command):
    # beta <= -1: int_0 r^(2 beta + 1) dr diverges, so there is no rate and
    # no automatic overlap window
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL, beta=-1.5)))
    code = run([
        command, "--config", str(path), "--out", str(tmp_path),
        "--p", "1.5,0,0", "--g", "0.1",
    ])
    assert code == EXIT_VALIDATION
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "validation"
    assert "diverges" in err["message"]
    assert not (tmp_path / "golden_rule.json").exists()
    assert not (tmp_path / "overlap.csv").exists()


@pytest.mark.parametrize("thetas", ["0", "-3"])
def test_cerenkov_thetas_below_one_exit_with_usage_record(tmp_path, capsys, thetas):
    code = run([
        "cerenkov", "--out", str(tmp_path), "--p", "1.5,0,0", "--thetas", thetas,
    ])
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert "--thetas" in err["message"]
    assert not (tmp_path / "cerenkov.csv").exists()


@pytest.mark.parametrize(
    "points, eps_min, eps_max, flag",
    [
        ("0", "0.02", "0.2", "--points"),
        ("-2", "0.02", "0.2", "--points"),
        ("4", "0.02", "nan", "eps-max"),
        ("4", "nan", "0.2", "eps-min"),
        ("4", "0.02", "inf", "eps-max"),
        ("4", "0.2", "0.2", "eps-min < eps-max"),
        ("4", "0.3", "0.2", "eps-min < eps-max"),
        ("4", "0", "0.2", "0 < eps-min"),
    ],
)
def test_trial_scaling_bad_window_exits_with_usage_record(
    tmp_path, capsys, monkeypatch, points, eps_min, eps_max, flag
):
    # rejected before the model is built, with a message naming the flag
    def no_model(cfg):
        raise AssertionError("model built for a bad trial-scaling window")

    monkeypatch.setattr(cli, "make_model", no_model)
    code = run([
        "trial-scaling", "--out", str(tmp_path), "--p", "1.5,0,0",
        "--eps-min", eps_min, "--eps-max", eps_max, "--points", points,
    ])
    assert code == EXIT_VALIDATION
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "usage"
    assert flag in err["message"]
    assert not (tmp_path / "trial_scaling.csv").exists()


def test_whole_spectrum_above_dense_cutoff_exits_with_validation_record(
    tmp_path, capsys
):
    # SMALL has dimension 25; --pairs past it is clamped to the dimension
    path = tmp_path / "cutoff.json"
    path.write_text(json.dumps({**SMALL, "experiment": {"dense_cutoff": 10}}))
    code = run([
        "spectrum", "--config", str(path), "--out", str(tmp_path),
        "--p", "0.5,0,0", "--g", "0.05", "--pairs", "1000000",
    ])
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"
    assert "dense_cutoff=10" in err["message"]
    assert not (tmp_path / "spectrum.json").exists()


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


def test_bad_vector_exit_code(tmp_path, capsys, config_path):
    for vector in ("1.5,0", "1.5,0,x", "nan,0,0", "1.5,inf,0", "1.5,0,-inf"):
        code = run([
            "golden-rule", "--config", config_path, "--out", str(tmp_path),
            "--p", vector, "--g", "0.1",
        ])
        assert code == EXIT_VALIDATION, vector
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"
        assert "--p" in err["message"]
    assert not (tmp_path / "golden_rule.json").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["golden-rule", "--p", "1.5,0,0", "--g", "nan"], "--g"),
        (["golden-rule", "--p", "1.5,0,0", "--g", "inf"], "--g"),
        (["spectrum", "--p", "0.5,0,0", "--g=-inf"], "--g"),
        (["cerenkov", "--p", "1.5,0,0", "--e", "nan", "--thetas", "5"], "--e"),
        (["cerenkov", "--p", "inf,0,0", "--thetas", "5"], "--p"),
        (["trial-scaling", "--p", "1.5,0,0", "--e", "nan", "--eps-min", "0.02",
          "--eps-max", "0.2", "--points", "3"], "--e"),
        (["scan", "--pmin", "nan", "--pmax", "0.9", "--steps", "3", "--g", "0.05"],
         "--pmin"),
        (["scan", "--pmin", "0.3", "--pmax", "inf", "--steps", "3", "--g", "0.05"],
         "--pmax"),
        (["virial", "--p", "0.5,0,0", "--g", "0.1", "--kappa", "nan"], "--kappa"),
        (["virial", "--p", "0.5,0,0", "--g", "0.1", "--kappa=-inf"], "--kappa"),
    ],
)
def test_non_finite_flag_exits_with_usage_record(
    tmp_path, capsys, monkeypatch, argv, flag
):
    # rejected while the command line is parsed, before any model is built
    def no_model(cfg):
        raise AssertionError("model built for a non-finite flag")

    monkeypatch.setattr(cli, "make_model", no_model)
    code = run(argv + ["--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "usage"
    assert flag in err["message"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--mode", "perpendicular"], "--sector"),
        (["--sector", "1,forward", "--kappa", "30"], "--kappa"),
    ],
)
def test_virial_flag_without_effect_exits_with_usage_record(
    tmp_path, capsys, monkeypatch, extra, flag
):
    # --mode selects the sector generator and --kappa the fiber identity's
    # window: a flag the chosen identity would ignore is refused
    def no_model(cfg):
        raise AssertionError("model built for an ignored virial flag")

    monkeypatch.setattr(cli, "make_model", no_model)
    argv = ["virial", "--out", str(tmp_path), "--p", "1.5,0,0", "--g", "0.1"]
    code = run(argv + extra)
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert flag in err["message"]
    assert not (tmp_path / "virial.json").exists()


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
