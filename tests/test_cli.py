import builtins
import errno
import json
import re
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fedgm import cli, experiments, federation, objective
from fedgm.cli import (
    apply_overrides,
    cmd_grad_check,
    config_hash,
    main,
    parse_config,
    parse_config_dict,
)
from fedgm.errors import DivergenceError, ParseError, UsageError
from fedgm.config import Config, DataSpec
from fedgm.federation import HyperParams, MetricsTable, run_da, run_dg
from fedgm.model import init_params, save_checkpoint

BASE = {
    "experiment": "smoke",
    "mode": "dg",
    "data": {"kind": "rotated_moons", "angles": [0.0, 30.0, 60.0], "n_per_domain": 80, "noise_sigma": 0.1},
    "held_out": 2,
    "arch": [2, 8],
    "augmentation": {"kind": "gaussian_noise", "sigma": 0.1},
    "hp": {"rounds": 2, "lr0": 0.05, "lr1": 0.01},
    "seeds": [0],
}

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_parse_minimal_config_defaults(tmp_path):
    payload = dict(BASE)
    del payload["hp"]
    del payload["augmentation"]
    cfg = parse_config(_write(tmp_path, payload))
    assert cfg.hp.lam == 0.5
    assert cfg.hp.rounds == 30
    assert cfg.hp.batch == 16
    assert cfg.hp.lr0 == 1e-3 and cfg.hp.lr1 == 1e-4
    assert cfg.hp.momentum == 0.9 and cfg.hp.weight_decay == 5e-4
    assert cfg.hp.local_epochs == 1
    assert cfg.hp.tau == 0.9
    assert cfg.hp.min_votes == 1  # two sources -> single vote suffices
    assert cfg.augmentation.kind == "identity"
    assert cfg.out_dir == "runs/smoke"


def test_parse_min_votes_default_with_three_sources(tmp_path):
    payload = dict(BASE)
    payload["data"] = dict(payload["data"], angles=[0.0, 20.0, 40.0, 60.0])
    cfg = parse_config(_write(tmp_path, payload))
    assert cfg.hp.min_votes == 2


def test_parse_lambda_range_error(tmp_path):
    payload = dict(BASE, hp={"lambda": 1.5})
    with pytest.raises(ParseError, match=r"lambda.*\[0, 1\]"):
        parse_config(_write(tmp_path, payload))


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("hp", "momentum", -3.0, r"hp.momentum must lie in \[0, 1\)"),
        ("hp", "momentum", 1.0, r"hp.momentum must lie in \[0, 1\)"),
        ("hp", "weight_decay", -1.0, "hp.weight_decay must be >= 0"),
        ("data", "noise_sigma", -1.0, "data.noise_sigma must be >= 0"),
    ],
)
def test_parse_momentum_decay_and_noise_ranges(tmp_path, section, key, value, message):
    payload = dict(BASE, **{section: dict(BASE[section], **{key: value})})
    with pytest.raises(ParseError, match=message):
        parse_config(_write(tmp_path, payload))


TEXTURED = {"kind": "textured", "n_domains": 3, "n_per_domain": 30}


# each of these parsed before, and the run then failed in init_params, a
# generator or the round loop after the output directory was made
@pytest.mark.parametrize(
    "data, arch, message",
    [
        (dict(BASE["data"], classes=1), [2, 8], r"data.classes must be >= 2, got 1"),
        (dict(BASE["data"], classes=4, n_per_domain=3), [2, 8], "n_per_domain 3 cannot hold"),
        # 3 rows hold 3 classes, but the train split keeps 2 of them
        (dict(BASE["data"], classes=3, n_per_domain=3), [2, 8], "3 classes in a train split of 2 rows"),
        (dict(BASE["data"], n_per_domain=0), [2, 8], "n_per_domain 0 cannot hold"),
        (dict(TEXTURED, side=4), [16, 8], r"data.side must lie in \[8, 32\], got 4"),
        (dict(TEXTURED, side=40), [1600, 8], r"data.side must lie in \[8, 32\], got 40"),
        (dict(TEXTURED, side=8, n_domains=1), [64, 8], "need at least 2 domains"),
    ],
    ids=[
        "one-class", "more-classes-than-rows", "more-classes-than-train-rows", "no-rows", "side-4", "side-40", "one-domain",
    ],
)
def test_parse_rejects_data_a_run_would_reject(data, arch, message):
    with pytest.raises(ParseError, match=message):
        parse_config_dict(dict(BASE, data=data, arch=arch))


AMIX = {"kind": "amplitude_mix", "eta_max": 0.5}

# each of these parsed before, and the first batch's augment or the round
# loop then failed after the output directory was made
_AUGMENTATION_A_RUN_WOULD_REJECT = pytest.mark.parametrize(
    "data, arch, augmentation, message",
    [
        (BASE["data"], [2, 8], AMIX, "amplitude_mix needs square grids, got width 2"),
        (
            dict(TEXTURED, side=8),
            [64, 8],
            {"kind": "input_rotation", "max_degrees": 30.0},
            "input_rotation needs 2-d rows, got width 64",
        ),
        # 21 rows leave 17 training rows, and 17 = 16 + 1
        (dict(TEXTURED, side=8, n_per_domain=21), [64, 8], AMIX, r"batch 16 .* 17 training rows of domain 0"),
    ],
    ids=["amix-on-moons", "rotation-on-grids", "amix-one-row-batch"],
)


@_AUGMENTATION_A_RUN_WOULD_REJECT
def test_parse_rejects_augmentation_a_run_would_reject(data, arch, augmentation, message):
    with pytest.raises(ParseError, match=message):
        parse_config_dict(dict(BASE, data=data, arch=arch, augmentation=augmentation))


@_AUGMENTATION_A_RUN_WOULD_REJECT
def test_run_rejects_augmentation_before_making_out_dir(tmp_path, capsys, data, arch, augmentation, message):
    out = tmp_path / "out"
    payload = dict(BASE, data=data, arch=arch, augmentation=augmentation, out_dir=str(out))
    assert main(["run-dg", "--config", str(_write(tmp_path, payload))]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("value", ["null", "5", '"kind"', "[]"])
def test_non_object_augmentation_is_a_parse_error(tmp_path, capsys, value):
    with pytest.raises(ParseError, match="config.augmentation: expected"):
        parse_config_dict(dict(BASE, augmentation=json.loads(value)))
    out = tmp_path / "out"
    good = _write(tmp_path, dict(BASE, out_dir=str(out)))
    assert main(["run-dg", "--config", str(good), "--override", f"augmentation={value}"]) == 1
    err = capsys.readouterr().err
    assert "error: config.augmentation: expected" in err and "Traceback" not in err
    assert not out.exists()


def test_help_lists_every_hp_default(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    defaults = HyperParams()
    for f in fields(HyperParams):
        if f.name != "seed":
            key = "lambda" if f.name == "lam" else f.name
            assert f"{key}={json.dumps(getattr(defaults, f.name))}" in text
    assert "min_votes=2 (1 when only 2 sources)" in text


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_non_finite_numbers_rejected(tmp_path, capsys, number):
    payload = dict(BASE, out_dir=str(tmp_path / "out"))
    text = json.dumps(payload).replace('"noise_sigma": 0.1', f'"noise_sigma": {number}')
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["run-dg", "--config", str(bad)]) == 1
    assert f"non-finite number {number}" in capsys.readouterr().err
    good = _write(tmp_path, payload)
    assert main(["run-dg", "--config", str(good), "--override", f"data.angles=[0,30,{number}]"]) == 1
    assert f"override 'data.angles=[0,30,{number}]': non-finite number {number}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_keys_rejected(tmp_path, capsys):
    payload = dict(BASE, out_dir=str(tmp_path / "out"))
    text = json.dumps(payload).replace('"lr0": 0.05', '"lr0": 0.05, "lambda": 0.2, "lambda": 0.9')
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["run-dg", "--config", str(bad)]) == 1
    assert f'config {bad}: repeated key "lambda"' in capsys.readouterr().err
    good = _write(tmp_path, payload)
    override = 'augmentation={"kind": "gaussian_noise", "sigma": 0.1, "sigma": 0.3}'
    assert main(["run-dg", "--config", str(good), "--override", override]) == 1
    assert f"override '{override}': repeated key \"sigma\"" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override, field",
    [
        ("hp.lr0={big}", "hp.lr0"),
        ("data.noise_sigma={big}", "data.noise_sigma"),
        ("augmentation.sigma={big}", "augmentation.sigma"),
        ("data.angles=[0,{big},60]", "data.angles[1]"),
    ],
)
def test_integer_too_large_for_a_float_named(tmp_path, capsys, override, field):
    good = _write(tmp_path, dict(BASE, out_dir=str(tmp_path / "out")))
    override = override.format(big="1" + "0" * 400)
    assert main(["run-dg", "--config", str(good), "--override", override]) == 1
    assert f"{field}: integer too large for a float" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_unknown_key_named(tmp_path):
    payload = dict(BASE, hp={"lamda": 0.3})
    with pytest.raises(ParseError, match="hp.lamda"):
        parse_config(_write(tmp_path, payload))
    payload = dict(BASE, lamda=0.3)
    with pytest.raises(ParseError, match="config.lamda"):
        parse_config(_write(tmp_path, payload))
    # hp.gm_enabled is the only switch for the matching terms
    payload = dict(BASE, gradient_matching=False)
    with pytest.raises(ParseError, match="config.gradient_matching"):
        parse_config(_write(tmp_path, payload))
    # clients always run in sequence; there is no execution-mode key
    payload = dict(BASE, parallel_clients=True)
    with pytest.raises(ParseError, match="config.parallel_clients"):
        parse_config(_write(tmp_path, payload))


def test_parse_missing_required_key(tmp_path):
    payload = dict(BASE)
    del payload["held_out"]
    with pytest.raises(ParseError, match="held_out"):
        parse_config(_write(tmp_path, payload))


def test_parse_type_mismatch(tmp_path):
    payload = dict(BASE, held_out="two")
    with pytest.raises(ParseError, match="held_out"):
        parse_config(_write(tmp_path, payload))


def test_parse_duplicate_seed_rejected(tmp_path):
    payload = dict(BASE, seeds=[0, 3, 0])
    with pytest.raises(ParseError, match="seed 0 is listed more than once"):
        parse_config(_write(tmp_path, payload))


def test_parse_arch_width_checked(tmp_path):
    payload = dict(BASE, arch=[3, 8])
    with pytest.raises(ParseError, match="arch"):
        parse_config(_write(tmp_path, payload))


NAN, INF = float("nan"), float("inf")


def _set(node, key, value):
    """Set the dotted ``key`` on a raw config dict or on a Config."""
    *path, name = key.split(".")
    for part in path:
        node = node[part] if isinstance(node, dict) else getattr(node, part)
    if isinstance(node, dict):
        node[name] = value
    else:
        setattr(node, cli.HP_KEYS[name] if path == ["hp"] else name, value)


# each value is refused with the same message whether the config is read
# from JSON or built in Python; before Config.validate checked every field,
# the Python-built ones ran as the wrong arm, raised TypeError or diverged
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("hp.lambda", True, "hp.lambda must be a finite number, got True"),
        ("hp.tau", True, "hp.tau must be a finite number, got True"),
        ("hp.momentum", False, "hp.momentum must be a finite number, got False"),
        ("hp.gm_enabled", "no", "hp.gm_enabled must be true or false, got 'no'"),
        ("hp.inter_normalize", 1, "hp.inter_normalize must be true or false, got 1"),
        ("arch", [2, True, 32], "arch must be a non-empty list of positive integers, got [2, True, 32]"),
        ("arch", [2, 32.0, 32], "arch must be a non-empty list of positive integers, got [2, 32.0, 32]"),
        ("hp.lambda", "0.5", "hp.lambda must be a finite number, got '0.5'"),
        ("data.angles", [0.0, "30", 60.0], "data.angles must be a list of finite numbers, got [0.0, '30', 60.0]"),
        ("hp.lr0", INF, "hp.lr0 must be a finite number, got inf"),
        ("data.noise_sigma", INF, "data.noise_sigma must be a finite number, got inf"),
        ("data.angles", [0.0, NAN, 60.0], "data.angles must be a list of finite numbers, got [0.0, nan, 60.0]"),
        ("seeds", [0, 0], "seeds: seed 0 is listed more than once"),
        ("mode", "dga", "mode must be 'dg' or 'da', got 'dga'"),
        ("arch", [], "arch must be a non-empty list of positive integers, got []"),
        ("arch", [2, 0], "arch must be a non-empty list of positive integers, got [2, 0]"),
        ("arch", "2,8", "arch must be a non-empty list of positive integers, got '2,8'"),
        ("seeds", [], "seeds must be a non-empty list of non-negative integers, got []"),
        ("seeds", [-1], "seeds must be a non-empty list of non-negative integers, got [-1]"),
        ("seeds", [True], "seeds must be a non-empty list of non-negative integers, got [True]"),
        ("data.angles", [], "data: need at least 2 domains, one held out and one source, got 0"),
    ],
)
def test_json_and_python_configs_get_one_check(monkeypatch, key, value, message):
    raw = json.loads(json.dumps(BASE))
    _set(raw, key, value)
    with pytest.raises(ParseError) as parsed:
        parse_config_dict(raw)
    assert str(parsed.value) == message
    config = parse_config_dict(json.loads(json.dumps(BASE)))
    _set(config, key, json.loads(json.dumps(value)))
    monkeypatch.setattr(federation, "local_train", mock.Mock(side_effect=AssertionError("trained")))
    runner = {"dg": run_dg, "da": run_da}.get(config.mode, Config.validate)
    with pytest.raises(UsageError) as built:
        runner(config)
    assert str(built.value) == message


# a value of a type no field takes, and one of a wrong type for each annotation
WRONG_TYPE = {"str": 1, "int": 2.0, "float": "0.5", "bool": 1, "list[int]": (2, 8), "list[float]": "0"}


@pytest.mark.parametrize(
    "prefix, owner, name",
    [
        (prefix, owner, f.name)
        for prefix, owner in (("", Config), ("data.", DataSpec), ("hp.", HyperParams))
        for f in fields(owner)
        if f.name not in ("data", "augmentation", "hp")
    ],
)
@pytest.mark.parametrize("wrong", ["annotated", None])
def test_validate_checks_the_type_of_every_field(prefix, owner, name, wrong):
    # a field added without a check in Config.validate fails here
    annotation = {f.name: f.type for f in fields(owner)}[name]
    value = WRONG_TYPE[annotation] if wrong == "annotated" else None
    config = parse_config_dict(json.loads(json.dumps(BASE)))
    node = {Config: config, DataSpec: config.data, HyperParams: config.hp}[owner]
    setattr(node, name, value)
    key = "lambda" if name == "lam" else name
    with pytest.raises(UsageError, match=rf"^{re.escape(prefix + key)}\b"):
        config.validate()


def test_overrides_dotted_paths():
    raw = apply_overrides(BASE, ["hp.lambda=0.3", "experiment=other"])
    assert raw["hp"]["lambda"] == 0.3
    assert raw["experiment"] == "other"
    assert BASE["hp"].get("lambda") is None  # original untouched


def test_config_hash_stable_and_sensitive():
    a = parse_config_dict(json.loads(json.dumps(BASE)))
    b = parse_config_dict(json.loads(json.dumps(BASE)))
    assert config_hash(a) == config_hash(b)
    c = parse_config_dict(apply_overrides(BASE, ["hp.lambda=0.25"]))
    assert config_hash(c) != config_hash(a)
    # the output directory is where a run goes, not what it computes
    d = parse_config_dict(dict(BASE, out_dir="runs/a"))
    e = parse_config_dict(dict(BASE, out_dir="runs/b"))
    assert config_hash(d) == config_hash(e) == config_hash(a)


def test_a_numpy_integer_config_hashes_and_runs_as_a_plain_one(tmp_path, capsys):
    plain = parse_config_dict(dict(BASE, out_dir=str(tmp_path / "a")))
    numpy_ints = replace(plain, seeds=[np.int64(0)], hp=replace(plain.hp, rounds=np.int64(2)), out_dir=str(tmp_path / "b"))
    numpy_ints.validate()
    assert config_hash(numpy_ints) == config_hash(plain)
    assert cli.cmd_run(plain) == cli.cmd_run(numpy_ints) == 0
    summaries = [json.loads((tmp_path / d / "summary.json").read_text()) for d in "ab"]
    for summary in summaries:
        summary["config"].pop("out_dir")
    assert summaries[0] == summaries[1]


def test_run_dg_writes_expected_files(tmp_path):
    payload = dict(BASE, seeds=[0, 1], out_dir=str(tmp_path / "out"))
    cfg_path = _write(tmp_path, payload)
    assert main(["run-dg", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert (out / "seed_0.csv").exists() and (out / "seed_1.csv").exists()
    assert (out / "model_seed_0.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) >= {"config_hash", "final", "per_round_rows"}
    assert len(summary["final"]["per_seed"]) == 2
    header = (out / "seed_0.csv").read_text().splitlines()[0]
    assert header == "round,phase,domain_id,metric,value"


def test_run_dg_identical_invocations_identical_bytes(tmp_path):
    p1 = dict(BASE, out_dir=str(tmp_path / "a"))
    p2 = dict(BASE, out_dir=str(tmp_path / "b"))
    assert main(["run-dg", "--config", str(_write(tmp_path, p1, "a.json"))]) == 0
    assert main(["run-dg", "--config", str(_write(tmp_path, p2, "b.json"))]) == 0
    csv_a = (tmp_path / "a" / "seed_0.csv").read_bytes()
    csv_b = (tmp_path / "b" / "seed_0.csv").read_bytes()
    assert csv_a == csv_b


def test_run_dg_override_recorded_in_summary(tmp_path):
    payload = dict(BASE, out_dir=str(tmp_path / "out"))
    cfg_path = _write(tmp_path, payload)
    assert main(["run-dg", "--config", str(cfg_path), "--override", "hp.lambda=0.3"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["hp"]["lambda"] == 0.3


def test_run_dg_seed_flag_appends(tmp_path, capsys):
    payload = dict(BASE, out_dir=str(tmp_path / "out"))
    cfg_path = _write(tmp_path, payload)
    # flag seeds pass the same checks as config seeds
    assert main(["run-dg", "--config", str(cfg_path), "--seed", "-1"]) == 1
    assert "non-negative" in capsys.readouterr().err
    assert main(["run-dg", "--config", str(cfg_path), "--seed", "4", "--seed", "4"]) == 1
    assert "seed 4 is listed more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["run-dg", "--config", str(cfg_path), "--seed", "7"]) == 0
    assert (tmp_path / "out" / "seed_7.csv").exists()


def test_run_bad_config_exit_code(tmp_path):
    payload = dict(BASE, hp={"lambda": 2.0})
    assert main(["run-dg", "--config", str(_write(tmp_path, payload))]) == 1


def test_override_on_non_object_config(tmp_path, capsys):
    cfg_path = _write(tmp_path, [1, 2])
    assert main(["run-dg", "--config", str(cfg_path), "--override", "hp.lambda=0.3"]) == 1
    assert "config: expected an object" in capsys.readouterr().err


def test_run_mode_mismatch(tmp_path):
    assert main(["run-da", "--config", str(_write(tmp_path, BASE))]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_divergence_exit_code(tmp_path):
    payload = dict(
        BASE,
        out_dir=str(tmp_path / "out"),
        hp={"rounds": 2, "lr0": 1e200, "lr1": 1e199},
    )
    assert main(["run-dg", "--config", str(_write(tmp_path, payload))]) == 2


def test_run_da_smoke(tmp_path):
    payload = dict(
        BASE,
        mode="da",
        out_dir=str(tmp_path / "out"),
        hp={"rounds": 2, "lr0": 0.05, "lr1": 0.01, "tau": 0.7, "min_votes": 1},
        data={"kind": "rotated_moons", "angles": [0.0, 30.0, 60.0], "n_per_domain": 150, "noise_sigma": 0.1},
    )
    assert main(["run-da", "--config", str(_write(tmp_path, payload))]) == 0
    rows = (tmp_path / "out" / "seed_0.csv").read_text().splitlines()
    assert any(",pseudo," in r for r in rows)
    assert any(",eval_target," in r for r in rows)


def test_grad_check_default_passes():
    assert cmd_grad_check([6, 8, 5], trials=5, tolerance=1e-5, seed=0) == 0


def test_grad_check_impossible_tolerance():
    assert cmd_grad_check([6, 8, 5], trials=2, tolerance=0.0, seed=0) == 3


def test_grad_check_cli_reproducible(capsys):
    assert main(["grad-check", "--trials", "2", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["grad-check", "--trials", "2", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    # a malformed --arch is a usage error, not a traceback
    for arch in ("6,x", "6", "6,0,5"):
        assert main(["grad-check", "--arch", arch, "--trials", "2"]) == 1
        assert "error: --arch" in capsys.readouterr().err


def test_grad_check_fails_a_nan_gradient(monkeypatch, capsys):
    real = objective.total_loss_gradient
    monkeypatch.setattr(objective, "total_loss_gradient", lambda *args: real(*args) * np.nan)
    assert main(["grad-check", "--trials", "2"]) == 3
    assert "worst relative error (|g| > 1e-6): inf" in capsys.readouterr().out


def test_grad_check_fails_a_nan_head_gradient(monkeypatch, capsys):
    real = objective.head_grad
    monkeypatch.setattr(objective, "head_grad", lambda tape, *args: tape.constant(tape.value(real(tape, *args)) * np.nan))
    assert main(["grad-check", "--trials", "3"]) == 3
    out, err = capsys.readouterr()
    assert "worst closed-form head-gradient deviation: inf" in out
    assert err == "tolerance violated: head inf > 1.000e-10\n"


@pytest.mark.parametrize(
    "rel, abs_err, head, named",
    [
        (1e-9, 1e-6, 0.0, "tolerance violated: abs 1.000e-06 > 1.000e-07\n"),
        (1e-9, 0.0, 1e-9, "tolerance violated: head 1.000e-09 > 1.000e-10\n"),
        (
            1e-3,
            1e-6,
            1e-9,
            "tolerance violated: rel 1.000e-03 > 1.000e-05 at trial 1, coordinate 4\n"
            "tolerance violated: abs 1.000e-06 > 1.000e-07\n"
            "tolerance violated: head 1.000e-09 > 1.000e-10\n",
        ),
    ],
    ids=["abs", "head", "all"],
)
def test_grad_check_names_each_violated_bound(monkeypatch, capsys, rel, abs_err, head, named):
    monkeypatch.setattr(cli, "finite_difference_errors", lambda *args: (rel, (1, 4), abs_err))
    monkeypatch.setattr(cli, "head_gradient_deviation", lambda *args: head)
    assert cmd_grad_check([6, 8, 5], trials=1, tolerance=1e-5, seed=0) == 3
    assert capsys.readouterr().err == named


@pytest.mark.parametrize(
    "flag, value", [("--tolerance", "nan"), ("--tolerance", "inf"), ("--tolerance", "-1e-5"), ("--seed", "-1")]
)
def test_grad_check_rejects_bad_tolerance_and_seed(capsys, flag, value):
    # NaN fails every comparison, so it would pass any gradient
    assert main(["grad-check", "--trials", "1", f"{flag}={value}"]) == 1
    assert f"error: {flag}: expected" in capsys.readouterr().err


def test_gen_data_writes_csvs(tmp_path):
    cfg_path = _write(tmp_path, BASE)
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == ["domain_0.csv", "domain_1.csv", "domain_2.csv"]
    lines = (out / "domain_0.csv").read_text().splitlines()
    assert lines[0] == "domain_id,y,x0,x1"
    assert len(lines) == 81


@pytest.mark.parametrize("name", ["dg_moons.json", "dg_textured.json"])
def test_gen_data_cells_read_back_to_the_generated_bytes(tmp_path, name):
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(CONFIGS / name), "--out", str(out)]) == 0
    config = parse_config(CONFIGS / name)
    for ds in federation.build_domains(replace(config, hp=replace(config.hp, seed=config.seeds[0]))):
        cells = [line.split(",") for line in (out / f"domain_{ds.domain_id}.csv").read_text().splitlines()[1:]]
        assert [c[0] for c in cells] == [str(ds.domain_id)] * ds.N
        y = np.array([int(c[1]) for c in cells], dtype=np.int64)
        X = np.array([[float(v) for v in c[2:]] for c in cells])
        assert y.tobytes() == ds.y.tobytes()
        assert X.tobytes() == ds.X.tobytes()


def test_gen_data_rerun_identical(tmp_path):
    cfg_path = _write(tmp_path, BASE)
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d1")]) == 0
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d2")]) == 0
    assert (tmp_path / "d1" / "domain_1.csv").read_bytes() == (tmp_path / "d2" / "domain_1.csv").read_bytes()


def test_gen_data_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1


@pytest.mark.parametrize("command", ["run-dg", "gen-data"])
def test_config_that_is_not_utf8_exits_1(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(json.dumps(BASE).encode().replace(b"smoke", b"sm\xffoke"))
    assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert f"config {bad}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, build",
    [
        ("dg_moons.json", lambda: experiments.dg_config(3, 0, True)),
        ("da_moons.json", lambda: experiments.da_config(1, 0)),
        ("dg_textured.json", lambda: experiments.swap_config(3, 0, "amplitude_mix")),
    ],
)
def test_example_configs_are_the_committed_experiments(name, build):
    def comparable(config):
        return replace(config, experiment="", out_dir="", seeds=[], hp=replace(config.hp, seed=0))

    assert comparable(parse_config(CONFIGS / name)) == comparable(build())


def test_da_min_votes_above_source_count_rejected(tmp_path):
    # 3 domains, one held out: 2 sources can vote, so a quorum of 3 never forms
    payload = dict(BASE, mode="da", hp=dict(BASE["hp"], min_votes=3))
    with pytest.raises(ParseError, match="hp.min_votes 3 exceeds the 2 source domains"):
        parse_config(_write(tmp_path, payload))
    config = parse_config(_write(tmp_path, dict(BASE, mode="da")))
    config.hp.min_votes = 3
    with pytest.raises(UsageError, match="hp.min_votes 3 exceeds the 2 source domains"):
        run_da(config)
    assert parse_config(_write(tmp_path, dict(payload, mode="dg"))).hp.min_votes == 3  # dg does not vote


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_seed_keeps_finished_seeds(tmp_path, monkeypatch, capsys):
    real = cli.run_dg

    def runner(config):
        if config.hp.seed == 1:
            raise DivergenceError("non-finite loss nan at round 2, step 3")
        return real(config)

    monkeypatch.setattr(cli, "run_dg", runner)
    out = tmp_path / "out"
    cfg_path = _write(tmp_path, dict(BASE, seeds=[0, 1, 2], out_dir=str(out)))
    assert main(["run-dg", "--config", str(cfg_path)]) == 2
    assert "seed 1: diverged: non-finite loss nan at round 2, step 3" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] == {"1": "non-finite loss nan at round 2, step 3"}
    assert list(summary["final"]["per_seed"]) == ["0"]
    assert summary["final"]["headline_mean"] == summary["final"]["per_seed"]["0"]
    assert (out / "seed_0.csv").exists() and (out / "model_seed_0.json").exists()
    assert not (out / "seed_2.csv").exists()  # the run stops at the diverging seed
    # a run where every seed finishes has no such key
    assert main(["run-dg", "--config", str(_write(tmp_path, dict(BASE, out_dir=str(out))))]) == 0
    assert "diverged" not in json.loads((out / "summary.json").read_text())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_last_update_that_overflows_is_a_divergence(tmp_path, capsys):
    # one step per round, on a finite loss, moves parameters past float64's range
    out = tmp_path / "out"
    payload = dict(
        BASE,
        data=dict(BASE["data"], n_per_domain=50, noise_sigma=100.0),
        arch=[2, 4],
        hp={"rounds": 1, "batch": 40, "lr0": 1e308, "lr1": 1e308},
        out_dir=str(out),
    )
    assert main(["run-dg", "--config", str(_write(tmp_path, payload))]) == 2
    assert "seed 0: diverged: non-finite parameters after round 1, step 0" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["diverged"]) == ["0"] and summary["final"]["per_seed"] == {}
    assert not (out / "model_seed_0.json").exists()


def _write_csv(tmp_path, path):
    MetricsTable([(1, "train", 0, "total", 0.5)] * 50).write_csv(path)


def _save_checkpoint(tmp_path, path):
    save_checkpoint(init_params([2, 8], 2, 0), path)


def _run_dg(tmp_path, path):
    return main(["run-dg", "--config", str(_write(tmp_path, dict(BASE, out_dir=str(path.parent))))])


def _gen_data(tmp_path, path):
    return main(["gen-data", "--config", str(_write(tmp_path, BASE)), "--out", str(path.parent)])


@pytest.mark.parametrize(
    "name, write",
    [("seed_0.csv", _write_csv), ("model.json", _save_checkpoint), ("summary.json", _run_dg), ("domain_1.csv", _gen_data)],
)
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, capsys, name, write):
    out = tmp_path / "out"
    out.mkdir()
    path = out / name
    path.write_text("previous\n")
    real_open = builtins.open

    class DiskFull:
        """A file that takes half of the first chunk written to it, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return DiskFull(fh) if "w" in mode and str(file).startswith(str(out)) and name in str(file) else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    if write in (_run_dg, _gen_data):
        assert write(tmp_path, path) == 1  # main reports the failed write
        assert "No space left on device" in capsys.readouterr().err
    else:
        with pytest.raises(OSError, match="No space left on device"):
            write(tmp_path, path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []
