"""The benchmark's own tests: its oracles against the program on a tiny
model, and each output check against deliberately corrupted output."""

import json
import shutil
import warnings

import numpy as np
import pytest
import scipy.linalg

import oracles
from workloads import WORKLOADS

from cerenkov_fiber import cli
from cerenkov_fiber.config import config_from_dict, make_model
from cerenkov_fiber.grids import build_grid
from cerenkov_fiber.spectra import second_order_energy

# dim 703: small enough for dense diagonalization, fine enough that the
# kappa = inf virial residual is small against its terms.
TINY = {
    "radial_count": 12,
    "radial_spacing": "linear",
    "polar_count": 3,
    "n_max": 2,
    "pairs": 2,
}
CFG = oracles.full_config(TINY)


@pytest.fixture(scope="module")
def model():
    return make_model(config_from_dict(dict(TINY)))


def test_grid_oracle_matches_program():
    run_cfg = config_from_dict(dict(TINY))
    grid = build_grid(run_cfg.radial_spec(), run_cfg.angular_spec())
    k, vol = oracles.grid_modes(CFG)
    np.testing.assert_allclose(k, grid.k, rtol=0, atol=1e-15)
    np.testing.assert_allclose(vol, grid.vol, rtol=1e-14)
    np.testing.assert_allclose(
        oracles.coupling(CFG, grid.magnitudes),
        run_cfg.form_factor().value(grid.magnitudes),
        rtol=1e-14,
    )


def test_second_order_oracle_matches_program_and_spectrum(model):
    P = np.array([0.5, 0.0, 0.0])
    e2 = oracles.second_order_energy(CFG, P)
    assert e2 == pytest.approx(
        second_order_energy(P, model.form_factor, model.grid), rel=1e-13
    )
    g = 1e-3
    shift = (model.lowest(P, g).ground_energy - 0.5 * P @ P) / g**2
    assert shift == pytest.approx(e2, rel=1e-4)


def test_second_order_oracle_rejects_resonance():
    with pytest.raises(ValueError):
        oracles.second_order_energy(CFG, [1.5, 0.0, 0.0])


def test_sum_rule_oracle_matches_full_spectrum(model):
    P, g = np.array([1.5, 0.0, 0.0]), 0.05
    vals, vecs = scipy.linalg.eigh(model.hamiltonian(P, g).matrix.toarray())
    weights = vecs[0] ** 2
    assert weights.sum() == pytest.approx(1.0, rel=1e-12)
    moment = np.sum(weights * (vals - 0.5 * P @ P) ** 2)
    assert moment == pytest.approx(oracles.vacuum_second_moment(CFG, g), rel=1e-10)


def test_free_energy_bound(model):
    P = 0.5 * oracles.SCAN_AXIS
    # below threshold the bare vacuum is the free ground state
    assert model.lowest(P, 0.0).ground_energy == oracles.free_energy_bound(CFG, P)
    for p in (0.5, 1.1, 1.5):
        P = p * oracles.SCAN_AXIS
        assert model.lowest(P, 0.05).ground_energy <= oracles.free_energy_bound(CFG, P)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One clean output directory per workload, written by the CLI on TINY."""
    root = tmp_path_factory.mktemp("outputs")
    config_path = root / "tiny.json"
    config_path.write_text(json.dumps(TINY))
    dirs = {}
    for name, workload in WORKLOADS.items():
        dirs[name] = root / name
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the low-capture overlap warning
            assert cli.main(workload.argv(str(dirs[name]), str(config_path))) == 0
    return dirs


def _run_check(name, out_dir):
    workload = WORKLOADS[name]
    return workload.check(str(out_dir), CFG, workload.args)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_output_passes(outputs, name):
    assert _run_check(name, outputs[name]) == []


def _edit_csv(path, edit):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    header, *rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    col = {c: i for i, c in enumerate(header)}
    comments, rows = edit(comments, col, rows)
    body = [",".join(r) for r in [header] + rows]
    path.write_text("\n".join(comments + body) + "\n")


def _scan_cell(column, value):
    def edit(comments, col, rows):
        rows[1][col[column]] = value(rows[1], col)
        return comments, rows

    return lambda out: _edit_csv(out / "scan.csv", edit)


def _drop_scan_row(out):
    _edit_csv(out / "scan.csv", lambda comments, col, rows: (comments, rows[:-1]))


def _virial_fields(**changes):
    def corrupt(out):
        path = out / "virial.json"
        rec = json.loads(path.read_text())
        for key, change in changes.items():
            rec[key] = change(rec)
        path.write_text(json.dumps(rec))

    return corrupt


def _overlap_rows(edit):
    def rows_edit(comments, col, rows):
        return comments, edit(rows)

    return lambda out: _edit_csv(out / "overlap.csv", rows_edit)


def _negate_first_weight(rows):
    rows[0][1] = repr(-abs(float(rows[0][1])) - 1e-6)
    return rows


def _triple_weights(rows):
    for r in rows:
        r[1] = repr(3.0 * float(r[1]))
    return rows


def _move_heaviest_far(rows):
    heaviest = max(range(len(rows)), key=lambda i: float(rows[i][1]))
    rows[heaviest][0] = repr(float(rows[heaviest][0]) + 10.0)
    return rows


def _change_header(out):
    def edit(comments, col, rows):
        return [c.replace("weight=", "weight=1") for c in comments], rows

    _edit_csv(out / "overlap.csv", edit)


CORRUPTIONS = [
    ("scan_above", _scan_cell("status", lambda r, c: "failed"), "status"),
    ("scan_above", _scan_cell("e0", lambda r, c: "0.9"), "free-state bound"),
    (
        "scan_above",
        _scan_cell("grad_e_fd", lambda r, c: repr(float(r[c["grad_e_fh"]]) + 1e-3)),
        "disagree",
    ),
    ("scan_above", _scan_cell("vacuum_overlap", lambda r, c: "1.5"), "outside [0, 1]"),
    ("scan_above", _scan_cell("vacuum_overlap", lambda r, c: "-0.1"), "outside [0, 1]"),
    ("scan_above", _scan_cell("n_shell_1", lambda r, c: "-0.001"), "negative shell"),
    ("scan_above", _scan_cell("n_shell_1", lambda r, c: "10.0"), "sum to"),
    ("scan_above", _drop_scan_row, "rows, expected"),
    ("virial_large", _virial_fields(e0=lambda r: 0.126), "above P^2/2"),
    ("virial_large", _virial_fields(e0=lambda r: r["e0"] + 0.01), "g^4"),
    ("virial_large", _virial_fields(eigen_residual=lambda r: 1e-6), "eigen_residual"),
    (
        "virial_large",
        _virial_fields(residual=lambda r: r["residual"] + 1e-8),
        "signed sum",
    ),
    (
        "virial_large",
        _virial_fields(
            residual=lambda r: r["residual"] + 0.01,
            source_term=lambda r: r["source_term"] - 0.01,
        ),
        "not small",
    ),
    ("overlap_interior", _overlap_rows(_negate_first_weight), "negative weights"),
    ("overlap_interior", _overlap_rows(_triple_weights), "Bessel"),
    ("overlap_interior", _overlap_rows(_move_heaviest_far), "sum rule"),
    ("overlap_interior", _change_header, "captured_weight"),
]


@pytest.mark.parametrize(
    "name, corrupt, expected",
    CORRUPTIONS,
    ids=[f"{name}-{expected}" for name, _, expected in CORRUPTIONS],
)
def test_check_rejects_corrupted_output(outputs, tmp_path, name, corrupt, expected):
    out = tmp_path / name
    shutil.copytree(outputs[name], out)
    corrupt(out)
    failures = _run_check(name, out)
    assert any(expected in msg for msg in failures), failures


def test_workload_configs_are_valid():
    for workload in WORKLOADS.values():
        with open(workload.config_path) as fh:
            config_from_dict(json.load(fh))
