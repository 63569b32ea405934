import json

import pytest

from cerenkov_fiber.cli import EXIT_VALIDATION, main
from cerenkov_fiber.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    load_config,
    make_model,
)


def test_default_config_validates_and_builds():
    cfg = RunConfig().validate()
    model = make_model(cfg)
    assert model.basis.dimension > 1
    assert model.grid.k_min == pytest.approx(0.05)  # 0.05 * cutoff default


def test_fingerprint_stable_and_sensitive():
    a = RunConfig()
    b = RunConfig()
    assert a.fingerprint() == b.fingerprint()
    c = RunConfig(beta=1.5)
    assert c.fingerprint() != a.fingerprint()


def test_round_trip_through_file(tmp_path):
    cfg = RunConfig(radial_count=5, polar_count=3, n_max=1, experiment={"gamma": 0.2})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = load_config(path)
    assert loaded == cfg
    assert loaded.fingerprint() == cfg.fingerprint()


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"k_mim": 0.1})


def test_precondition_violations_surface_as_config_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"k_min": -1.0})
    with pytest.raises(ConfigError):
        config_from_dict({"radial_spacing": "cubic"})
    with pytest.raises(ConfigError):
        config_from_dict({"smooth_width": 2.0})
    with pytest.raises(ConfigError):
        config_from_dict({"n_max": -1})
    with pytest.raises(ConfigError):
        config_from_dict({"solver_tol": 0.0})
    with pytest.raises(ConfigError):
        config_from_dict({"pairs": 0})


def test_bad_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(ConfigError):
        load_config(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(array)


EXPERIMENT_RULES = {
    "unknown key": {"bogus_key": 1},
    "dense_cutoff below 1": {"dense_cutoff": 0},
    "dense_cutoff not an integer": {"dense_cutoff": 2.5},
    "n_shell_max below 1": {"n_shell_max": 0},
    "fd_step not positive": {"fd_step": -1},
    "curvature_step not positive": {"curvature_step": 0.0},
    "gamma not positive": {"gamma": -0.2},
    "plateau cosine above 1": {"cone_plateau_cos": 1.5, "cone_support_cos": 0.5},
    "support cosine below -1": {"cone_plateau_cos": 0.9, "cone_support_cos": -1.1},
    "one cone cosine alone": {"cone_plateau_cos": 0.9},
    "not an object": [],
}


@pytest.mark.parametrize(
    "experiment", EXPERIMENT_RULES.values(), ids=EXPERIMENT_RULES.keys()
)
def test_experiment_rules_exit_with_validation_record(tmp_path, capsys, experiment):
    with pytest.raises(ConfigError, match="experiment"):
        config_from_dict({"experiment": experiment})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": experiment}))
    code = main(["golden-rule", "--config", str(path), "--p", "1.5,0,0", "--g", "0.1"])
    assert code == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err.strip())["error"] == "validation"


def test_experiment_defaults_and_values():
    assert RunConfig().extras().dense_cutoff == 2000
    cfg = config_from_dict({"experiment": {"dense_cutoff": 50, "fd_step": 2e-3}})
    assert make_model(cfg).dense_cutoff == 50
    assert cfg.extras().fd_step == 2e-3
    assert cfg.to_dict()["experiment"] == {"dense_cutoff": 50, "fd_step": 2e-3}


FIELD_TYPES = {
    "n_max a string": {"n_max": "3"},
    "solver_tol a string": {"solver_tol": "x"},
    "e_cut a string": {"e_cut": "1"},
    "k_min null": {"k_min": None},
    "amplitude a string": {"amplitude": "1"},
    "pairs not an integer": {"pairs": 2.5},
    "radial_count not an integer": {"radial_count": 2.5},
    "polar_count a boolean": {"polar_count": True},
    "solver_maxiter not an integer": {"solver_maxiter": 2.5},
    "solver_maxiter below 1": {"solver_maxiter": 0},
}


@pytest.mark.parametrize("fields", FIELD_TYPES.values(), ids=FIELD_TYPES.keys())
def test_field_types_exit_with_validation_record(tmp_path, capsys, fields):
    with pytest.raises(ConfigError):
        config_from_dict(dict(fields))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    code = main([
        "spectrum", "--config", str(path), "--out", str(tmp_path),
        "--p", "0.5,0,0", "--g", "0.05",
    ])
    assert code == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err.strip())["error"] == "validation"
    assert not (tmp_path / "spectrum.json").exists()


def test_spectrum_pairs_below_one_exit_with_usage_record(tmp_path, capsys):
    code = main([
        "spectrum", "--out", str(tmp_path), "--p", "0.5,0,0", "--g", "0.05",
        "--pairs", "0",
    ])
    assert code == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"
    assert not (tmp_path / "spectrum.json").exists()
