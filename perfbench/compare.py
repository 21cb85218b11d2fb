"""Compare two result sets of the benchmark, such as a parent and a change.

Collect both sets in alternating order, one pair of runs per seed (the side
that runs first alternates from pair to pair):

    python3 perfbench/compare.py collect --parent ../parent --change . \\
        --workload dg-moons-gm --seeds 0-9 --out-dir .bench_out/cmp

Each tree must be a fedgm checkout with this benchmark in it; both sides run
their own ``perfbench/run.py`` with the same arguments. Then report:

    python3 perfbench/compare.py report .bench_out/cmp/parent.jsonl .bench_out/cmp/change.jsonl

For each workload and end-to-end metric of BENCHMARK.json the report gives
each side's median and quartiles, the paired win rate of the change, and a
verdict:

- worse: more change runs failed (raised, exited non-zero or failed the
  result gate) than parent runs, whatever the medians show; or the change's
  median is worse than the parent's by more than the metric's bound, with
  both sides' quartile spreads within the bound;
- improved: the change wins at least 9 of 10 pairs (ties count for
  neither), at least ten pairs were run, and the medians differ by more
  than the parent's own quartile spread;
- no worse: the change's median is not worse than the parent's by more than
  the bound, and both spreads are within the bound (or every change run
  reads better than every parent run);
- unresolved: anything else.

Each report line also gives both sides' failure counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln)["environment"] for ln in lines if ln.startswith('{"environment"')), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return {"exit": proc.returncode, "environment": env, "result": result}


def collect(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {side: open(out_dir / f"{side}.jsonl", "a", encoding="utf-8") for side in trees}
    try:
        for workload in args.workload:
            for pair, seed in enumerate(parse_seeds(args.seeds)):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    rec = run_once(trees[side], workload, seed, seconds)
                    rec.update(workload=workload, seed=seed, pair=pair, first=position == 0)
                    files[side].write(json.dumps(rec) + "\n")
                    files[side].flush()
                    ok = rec["exit"] == 0 and rec["result"].get("correct")
                    print(f"{workload} seed {seed} {side}: {'ok' if ok else 'FAILED'}", flush=True)
    finally:
        for fh in files.values():
            fh.close()
    return 0


def load(path) -> dict[tuple[str, int], dict]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            out[(rec["workload"], rec["pair"])] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, parent: list[float], change: list[float], pairs, p_failed: int, c_failed: int) -> dict:
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(c, p):
        return c < p if lower else c > p

    wins = sum(better(c, p) for p, c in pairs)
    win_rate = wins / len(pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / abs(p_med)
    spread_p = (p_q3 - p_q1) / abs(p_med)
    spread_c = (c_q3 - c_q1) / abs(c_med)
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if c_failed > p_failed:
        label = "worse"
    elif (len(pairs) >= 10 and win_rate >= 0.9 and better(c_med, p_med)
            and abs(c_med - p_med) > p_q3 - p_q1):
        label = "improved"
    elif worse_by <= bound and (max(spread_p, spread_c) <= bound or all_better):
        label = "no worse"
    elif worse_by > bound and max(spread_p, spread_c) <= bound:
        label = "worse"
    else:
        label = "unresolved"
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "pairs": len(pairs),
        "win_rate": win_rate,
        "worse_by": worse_by,
        "bound": bound,
        "verdict": label,
    }


def report(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    keys = sorted(set(parent) & set(change))
    workloads = sorted({w for w, _ in keys})
    rows = []
    for workload in workloads:
        recs = [(parent[k], change[k]) for k in keys if k[0] == workload]
        p_failed = sum(p["result"]["failed"] + (p["exit"] != 0) for p, _ in recs)
        c_failed = sum(c["result"]["failed"] + (c["exit"] != 0) for _, c in recs)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pairs = [
                (p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                for p, c in recs
                if name in p["result"]["metrics"] and name in c["result"]["metrics"]
            ]
            if pairs:
                v = verdict(metric, [p for p, _ in pairs], [c for _, c in pairs], pairs, p_failed, c_failed)
            else:  # no pair where both sides reported the metric
                v = {"pairs": 0, "bound": metric["bound"],
                     "verdict": "worse" if c_failed > p_failed else "unresolved"}
            v.update(workload=workload, metric=name, unit=metric["unit"],
                     parent_failed=p_failed, change_failed=c_failed)
            rows.append(v)
    for r in rows:
        line = f"{r['workload']:20s} {r['metric']:12s} "
        if r["pairs"]:
            p, c = r["parent"], r["change"]
            line += (f"parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
                     f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {r['unit']:8s} "
                     f"win {r['win_rate']:.2f} of {r['pairs']}  worse_by {r['worse_by']:+.3f} (bound {r['bound']})  ")
        else:
            line += "no run pair reported this metric  "
        print(line + f"failed parent {r['parent_failed']} change {r['change_failed']}  {r['verdict']}")
    print(json.dumps({"comparisons": rows}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run both trees in alternating order")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--workload", action="append", required=True)
    c.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5-7")
    c.add_argument("--out-dir", required=True)
    r = sub.add_parser("report", help="compare two collected result sets")
    r.add_argument("parent")
    r.add_argument("change")
    args = ap.parse_args(argv)
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
