"""Config parsing and the command-line entry points.

Configs are strict JSON: unknown keys are errors so typos cannot silently
fall back to defaults, and numbers a float cannot hold (Infinity, NaN, 1e400)
are rejected. The reader only maps keys onto the config dataclasses;
``Config.validate`` checks every value, as it does for a config built in
Python. All randomness in a run flows from one root seed, so identical
invocations write identical metrics files.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import numbers
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .config import Config, DataSpec, HyperParams  # Config and DataSpec are re-exported here
from .data import AugmentationSpec
from .errors import DivergenceError, ParseError, UsageError
from .federation import MetricsTable, build_domains, run_da, run_dg
from .files import parse_json, write_atomic
from .model import save_checkpoint
from .objective import finite_difference_errors, head_gradient_deviation

# config key of the hp object -> HyperParams field, whose default it takes:
# every field but seed, which is the first of config.seeds; "lambda" sets lam.
HP_KEYS = {
    ("lambda" if f.name == "lam" else f.name): f.name for f in fields(HyperParams) if f.name != "seed"
}


def _expect(obj, path, keys_required, keys_optional):
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    known = set(keys_required) | set(keys_optional)
    for key in obj:
        if key not in known:
            raise ParseError(f"{path}.{key}: unknown key")
    for key in keys_required:
        if key not in obj:
            raise ParseError(f"{path}.{key}: missing required key")


def _kind(raw: dict, path: str, spec: type, what: str) -> str:
    """The object's kind, once its keys are those ``spec.KEYS`` gives that kind."""
    if "kind" not in raw:
        raise ParseError(f"{path}.kind: missing required key")
    kind = raw["kind"]
    for name, (required, optional) in spec.KEYS.items():
        if kind == name:
            _expect(raw, path, ("kind", *required), optional)
            return kind
    raise ParseError(f"{path}.kind: unknown {what} '{kind}'")


def _widen(value, where: str):
    """A JSON integer for a float setting as a float; any other value as is."""
    if type(value) is not int:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where}: integer too large for a float") from None


def _parse_data(raw: dict) -> DataSpec:
    kind = _kind(raw, "data", DataSpec, "generator")
    values = dict(raw)
    if kind == "rotated_moons":
        if not isinstance(raw["angles"], list):
            raise ParseError("data.angles: expected a list")
        values["angles"] = [_widen(a, f"data.angles[{i}]") for i, a in enumerate(raw["angles"])]
        values["noise_sigma"] = _widen(raw.get("noise_sigma", 0.1), "data.noise_sigma")
    return DataSpec(**values)


def _parse_augmentation(raw: dict) -> AugmentationSpec:
    _kind(raw, "augmentation", AugmentationSpec, "kind")
    try:
        return AugmentationSpec(**{key: _widen(value, f"augmentation.{key}") for key, value in raw.items()})
    except UsageError as e:
        raise ParseError(f"augmentation: {e}") from None


def _parse_hp(raw: dict, min_votes: int) -> HyperParams:
    _expect(raw, "hp", (), HP_KEYS)
    hp = HyperParams(min_votes=min_votes)
    for key, value in raw.items():
        name = HP_KEYS[key]
        setattr(hp, name, _widen(value, f"hp.{key}") if isinstance(getattr(hp, name), float) else value)
    return hp


def parse_config_dict(raw: dict) -> Config:
    """The config a JSON object describes: the reader checks its keys, and
    ``Config.validate``'s UsageError on a value is re-raised as a ParseError."""
    required = ("experiment", "mode", "data", "held_out", "arch", "seeds")
    _expect(raw, "config", required, ("augmentation", "hp", "out_dir"))
    for key in ("data", "augmentation", "hp"):
        if not isinstance(raw.get(key, {}), dict):
            raise ParseError(f"config.{key}: expected an object")
    data = _parse_data(raw["data"])
    # one vote suffices when only two sources can vote (a domain count that
    # is not an integer fails validate, whatever the default)
    n_domains = data.domain_count
    config = Config(
        experiment=raw["experiment"],
        mode=raw["mode"],
        data=data,
        held_out=raw["held_out"],
        arch=raw["arch"],
        augmentation=_parse_augmentation(raw["augmentation"]) if "augmentation" in raw else AugmentationSpec.identity(),
        hp=_parse_hp(raw.get("hp", {}), min_votes=2 if isinstance(n_domains, int) and n_domains >= 4 else 1),
        out_dir=raw.get("out_dir", f"runs/{raw['experiment']}"),
        seeds=raw["seeds"],
    )
    if isinstance(config.seeds, list) and config.seeds:  # a bad seeds value fails validate
        config.hp.seed = config.seeds[0]
    try:
        config.validate()
    except UsageError as e:
        raise ParseError(str(e)) from None
    return config


def _read_json(path) -> dict:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}") from None
    try:
        return parse_json(data, f"config {path}")
    except json.JSONDecodeError as e:
        raise ParseError(f"config parse error at line {e.lineno} column {e.colno}: {e.msg}") from None


def parse_config(path) -> Config:
    return parse_config_dict(_read_json(path))


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply dotted-path KEY=VALUE overrides to the raw config dict."""
    if not isinstance(raw, dict):
        raise ParseError("config: expected an object")
    out = json.loads(json.dumps(raw))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ParseError(f"override '{item}' is not KEY=VALUE")
        key, _, value = item.partition("=")
        try:
            parsed = parse_json(value, f"override '{item}'")
        except json.JSONDecodeError:
            parsed = value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ParseError(f"override '{key}': '{part}' is not an object")
        node[parts[-1]] = parsed
    return out


def _json_number(value):
    """``json.dumps``'s hook for the numpy numbers a config may hold: an integral one as int, a real one as float."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def config_hash(config: Config) -> str:
    """Stable digest of the resolved experiment (output directory excluded)."""
    payload = asdict(config)
    payload.pop("out_dir")
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=_json_number).encode()).hexdigest()[:16]


def resolved_config_dict(config: Config) -> dict:
    payload = asdict(config)
    payload["hp"]["lambda"] = payload["hp"].pop("lam")
    return payload


def _headline(mode: str, table: MetricsTable, held_out: int) -> float:
    phase = "eval_target" if mode == "da" else "eval_unseen"
    return table.final_value(phase, "accuracy", held_out)


def cmd_run(config: Config) -> int:
    """Run every seed; a diverging seed stops the run with exit code 2, after
    the summary of the seeds that finished, which names it under "diverged"."""
    mode = config.mode
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = run_da if mode == "da" else run_dg
    digest = config_hash(config)
    finals = {}
    row_counts = {}
    diverged = {}
    for seed in config.seeds:
        cfg = replace(config, hp=replace(config.hp, seed=seed))
        try:
            table = runner(cfg)
        except DivergenceError as e:
            print(f"seed {seed}: diverged: {e}", file=sys.stderr)
            diverged[str(seed)] = str(e)
            break
        table.write_csv(out_dir / f"seed_{seed}.csv")
        save_checkpoint(table.final_model, out_dir / f"model_seed_{seed}.json")
        if table.final_target_model is not None:
            save_checkpoint(table.final_target_model, out_dir / f"target_model_seed_{seed}.json")
        acc = _headline(mode, table, config.held_out)
        finals[str(seed)] = acc
        row_counts[str(seed)] = len(table.rows)
        print(f"seed {seed}: final {'target' if mode == 'da' else 'unseen'} accuracy {acc:.4f}")
    mean = std = None
    if finals:
        values = np.array(list(finals.values()))
        mean, std = float(values.mean()), float(values.std())
        print(f"{config.experiment}: headline accuracy {mean:.4f} +/- {std:.4f} over {len(values)} seeds")
    rows = sorted(set(row_counts.values()))
    summary = {
        "config_hash": digest,
        "config": resolved_config_dict(config),
        "final": {"per_seed": finals, "headline_mean": mean, "headline_std": std},
        "per_round_rows": rows[0] if len(rows) == 1 else row_counts,
    }
    if diverged:
        summary["diverged"] = diverged
    write_atomic(out_dir / "summary.json", [json.dumps(summary, indent=2, sort_keys=True, default=_json_number), "\n"])
    return 2 if diverged else 0


def cmd_grad_check(arch: list[int], trials: int, tolerance: float, seed: int) -> int:
    """Compare reverse-mode gradients against central differences.

    Also checks the closed-form head gradient against the autodiff gradient
    of the cross-entropy with respect to the head parameters.
    """
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    worst_rel, worst_coord, worst_abs = finite_difference_errors(arch, trials, seed)
    worst_head = head_gradient_deviation(trials, seed)
    print(f"worst relative error (|g| > 1e-6): {worst_rel:.3e} at trial {worst_coord[0]}, coordinate {worst_coord[1]}")
    print(f"worst absolute error (|g| <= 1e-6): {worst_abs:.3e}")
    print(f"worst closed-form head-gradient deviation: {worst_head:.3e}")
    bounds = [
        ("rel", worst_rel, tolerance, f" at trial {worst_coord[0]}, coordinate {worst_coord[1]}"),
        ("abs", worst_abs, 1e-7, ""),
        ("head", worst_head, 1e-10, ""),
    ]
    violated = [(name, worst, bound, where) for name, worst, bound, where in bounds if worst > bound]
    for name, worst, bound, where in violated:
        print(f"tolerance violated: {name} {worst:.3e} > {bound:.3e}{where}", file=sys.stderr)
    return 3 if violated else 0


def cmd_gen_data(config: Config, out: str) -> int:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ds in build_domains(config):
        path = out_dir / f"domain_{ds.domain_id}.csv"
        header = "domain_id,y," + ",".join(f"x{i}" for i in range(ds.X.shape[1])) + "\n"
        rows = (f"{ds.domain_id},{label}," + ",".join(repr(float(v)) for v in row) + "\n" for row, label in zip(ds.X, ds.y))
        write_atomic(path, itertools.chain([header], rows))
        print(f"wrote {path} ({ds.N} rows)")
    return 0


def _hp_defaults() -> str:
    """Every hp key with its default, as a config writes it."""
    defaults = HyperParams()
    shown = []
    for key, name in HP_KEYS.items():
        note = " (1 when only 2 sources)" if key == "min_votes" else ""
        shown.append(f"{key}={json.dumps(getattr(defaults, name))}{note}")
    return ", ".join(shown)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedgm",
        description=(
            "Desk-scale federated domain generalization with gradient matching. "
            f"Config defaults: {_hp_defaults()}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config.out_dir)")
        p.add_argument("--seed", type=int, action="append", default=[], help="append a seed to config.seeds")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE", help="dotted-path config override, repeatable")
        return p

    add_run("run-dg", "leave-one-domain-out generalization experiment")
    add_run("run-da", "unlabeled-target adaptation experiment")

    g = sub.add_parser("grad-check", help="verify gradients against central finite differences")
    g.add_argument("--arch", default="6,8,5", help="maximum layer widths, comma separated")
    g.add_argument("--trials", type=int, default=20)
    g.add_argument("--tolerance", type=float, default=1e-5)
    g.add_argument("--seed", type=int, default=0)

    d = sub.add_parser("gen-data", help="write the configured datasets as CSV")
    d.add_argument("--config", required=True)
    d.add_argument("--out", required=True)
    return parser


def _load_run_config(args) -> Config:
    raw = _read_json(args.config)
    if args.override:
        raw = apply_overrides(raw, args.override)
    for i, seed in enumerate(args.seed):
        if seed in args.seed[:i]:  # named as the flag's repeat: the config may list it nowhere
            raise ParseError(f"--seed: seed {seed} is listed more than once")
    if args.seed and isinstance(raw, dict) and isinstance(raw.get("seeds"), list):
        # the flag's seeds join the config's before the parse, so they pass the same checks
        raw = dict(raw, seeds=raw["seeds"] + [s for s in args.seed if s not in raw["seeds"]])
    config = parse_config_dict(raw)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _parse_arch(text: str) -> list[int]:
    """``--arch``: at least two comma-separated maximum widths, each >= 1."""
    try:
        arch = [int(d) for d in text.split(",")]
    except ValueError:
        arch = []
    if len(arch) < 2 or min(arch) < 1:
        raise UsageError(f"--arch: expected at least two comma-separated widths >= 1, got '{text}'")
    return arch


def _check_grad_check(tolerance: float, seed: int) -> None:
    """``--tolerance`` must be a finite number >= 0 (NaN fails every
    comparison, so it would pass any gradient); ``--seed`` must be >= 0."""
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise UsageError(f"--tolerance: expected a finite number >= 0, got {tolerance}")
    if seed < 0:
        raise UsageError(f"--seed: expected an integer >= 0, got {seed}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("run-dg", "run-da"):
            config = _load_run_config(args)
            mode = "dg" if args.command == "run-dg" else "da"
            if config.mode != mode:
                raise ParseError(f"config.mode is '{config.mode}' but the subcommand expects '{mode}'")
            return cmd_run(config)
        if args.command == "grad-check":
            _check_grad_check(args.tolerance, args.seed)
            return cmd_grad_check(_parse_arch(args.arch), args.trials, args.tolerance, args.seed)
        if args.command == "gen-data":
            return cmd_gen_data(parse_config(args.config), args.out)
    except (ParseError, UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
