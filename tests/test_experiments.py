"""The committed runs: each builder is its config file with only the study's
fields replaced, each section hands ``run_all`` its runs in the committed
order, and ``run_all`` sends each config to its mode's runner."""

from dataclasses import replace
from pathlib import Path

import pytest

from fedgm import experiments
from fedgm.cli import parse_config
from fedgm.errors import ParseError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _committed(name, held_out, seed, **hp):
    """configs/<name> with the held-out domain, the seed and ``hp`` replaced by hand."""
    config = parse_config(CONFIGS / name)
    return replace(config, held_out=held_out, seeds=[seed], hp=replace(config.hp, seed=seed, **hp))


class _Table:
    """A MetricsTable stand-in whose every final value is 0.5."""

    def final_value(self, phase, metric, domain_id=None):
        return 0.5


@pytest.fixture
def sections(monkeypatch):
    """Each section's configs as it hands them to ``run_all``, from one pass of
    the three reducers over stand-in tables."""
    handed = []

    def spy(configs):
        handed.append(configs)
        return {key: _Table() for key in configs}

    monkeypatch.setattr(experiments, "run_all", spy)
    experiments.da_extension(experiments.dg_directional())
    experiments.augmentation_swap()
    return dict(zip(("dg", "da", "swap"), handed, strict=True))


def test_each_dg_run_is_the_committed_file_with_fold_seed_and_arm_replaced(sections):
    expected = {
        f"fold{fold}_seed{seed}_{arm}": _committed("dg_moons.json", fold, seed, gm_enabled=arm == "gm")
        for fold in range(4) for seed in experiments.SEEDS for arm in ("gm", "baseline")
    }
    assert list(sections["dg"]) == list(expected)  # fold, then seed, then arm, gm first
    assert sections["dg"] == expected
    assert experiments.dg_config(2, 4, False) == expected["fold2_seed4_baseline"]


def test_each_da_run_is_the_committed_file_with_its_seed_replaced(sections):
    target = experiments.DA_TARGET
    expected = {f"fold{target}_seed{seed}_da": _committed("da_moons.json", target, seed) for seed in experiments.SEEDS}
    assert list(sections["da"]) == list(expected)
    assert sections["da"] == expected


def test_each_swap_run_is_the_committed_file_with_fold_seed_and_arm_replaced(sections):
    expected = {
        f"fold{fold}_{arm}_seed{seed}": replace(_committed("dg_textured.json", fold, seed), augmentation=spec)
        for fold in range(4) for arm, spec in experiments.SWAP_ARMS.items() for seed in experiments.SWAP_SEEDS
    }
    assert list(sections["swap"]) == list(expected)  # fold, then arm, then seed
    assert sections["swap"] == expected


def test_two_built_configs_share_no_mutable_list():
    a, b = experiments.dg_config(3, 0, True), experiments.dg_config(3, 0, True)
    assert a == b
    assert a.data is not b.data and a.data.angles is not b.data.angles
    assert a.arch is not b.arch and a.seeds is not b.seeds


def test_run_all_sends_each_config_to_its_modes_runner_in_insertion_order(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "run_dg", lambda config: calls.append(("run_dg", config)) or "dg table")
    monkeypatch.setattr(experiments, "run_da", lambda config: calls.append(("run_da", config)) or "da table")
    configs = {
        "z_dg": experiments.dg_config(3, 0, True),
        "a_da": experiments.da_config(experiments.DA_TARGET, 0),
        "m_dg": experiments.swap_config(3, 0, "amplitude_mix"),
    }
    tables = experiments.run_all(configs)
    assert list(tables.items()) == [("z_dg", "dg table"), ("a_da", "da table"), ("m_dg", "dg table")]
    assert calls == [("run_dg", configs["z_dg"]), ("run_da", configs["a_da"]), ("run_dg", configs["m_dg"])]


def test_a_missing_config_file_is_a_parse_error_naming_it(monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "CONFIGS", tmp_path)
    with pytest.raises(ParseError, match=f"^cannot read config {tmp_path / 'dg_moons.json'}: "):
        experiments.dg_config(3, 0, True)
