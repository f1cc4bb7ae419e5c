"""Paired benchmark runs of this checkout against a git ref.

Run from anywhere inside the repository:

    python3 tools/pair_bench.py --against HEAD~1 --workload decode_desk --pairs 10 --seconds 10

The ref's committed files are unpacked with `git archive` into a temporary
directory. Pair i then runs `bench/run.py --workload W --seed i --seconds S`
once in that tree (the base) and once in this checkout's working tree (the
change). Each side goes first in half the pairs, in an order shuffled by
a fixed-seed generator, so a slow phase of the host that spans a pair
boundary does not land on one side by construction, and reruns keep the
order. Every run is kept, failed ones too. The JSON written to `--out`
(default `BENCH_<workload>.json` at the repository root) holds each run's
metrics and, per end-to-end metric of BENCHMARK.json, the medians of both
sides, the pairs the change wins, the base's interquartile range, and a
paired bootstrap interval on the ratio of medians (change over base) drawn
from a fixed seed. A gain or a loss is claimed only when that interval
excludes 1. Next to that claim, `rule` applies the paired-run rule of a
performance claim: a gain (or a loss) when the change wins (or loses) at
least nine tenths of the pairs and the two medians differ by more than
the base's IQR.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BOOTSTRAP_SEED = 20241117
ORDER_SEED = 20241118
BOOTSTRAP_RESAMPLES = 4000
INTERVAL = (2.5, 97.5)


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `tree`: its metrics and environment, or
    its exit code and the tail of its stderr when it failed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:], "metrics": {}}
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "returncode": 0,
        "correct": result["correct"],
        "failed": result["failed"],
        "passes": details["passes"],
        "environment": details["environment"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def summarize(base: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric named in `better` ("lower" or "higher"), over the pairs
    where both runs report it: both medians, the change's wins (pairs it
    beats the base in; ties are not wins), the base's IQR, the ratio of
    medians and its paired bootstrap interval, the claim, "gain" or
    "loss" when the interval excludes 1 and null otherwise, and the rule,
    "gain" or "loss" when the change wins or loses at least nine tenths of
    the pairs and the medians differ by more than the base's IQR, and null
    otherwise."""
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    out = {}
    for name, direction in better.items():
        pairs = [(b["metrics"][name], c["metrics"][name]) for b, c in zip(base, change)
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            out[name] = {"pairs": 0}
            continue
        b, c = np.array(pairs, dtype=np.float64).T
        sign = 1.0 if direction == "higher" else -1.0
        q1, q3 = np.percentile(b, [25, 75])
        idx = rng.integers(0, len(b), size=(BOOTSTRAP_RESAMPLES, len(b)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.median(c[idx], axis=1) / np.median(b[idx], axis=1)
        lo, hi = np.percentile(ratios, INTERVAL)
        claim = None
        if lo > 1 or hi < 1:
            claim = "gain" if sign * (lo - 1) > 0 else "loss"
        wins, losses = int(np.sum(sign * (c - b) > 0)), int(np.sum(sign * (c - b) < 0))
        shift = sign * (np.median(c) - np.median(b))
        rule = None
        if abs(shift) > q3 - q1:
            if shift > 0 and 10 * wins >= 9 * len(b):
                rule = "gain"
            elif shift < 0 and 10 * losses >= 9 * len(b):
                rule = "loss"
        out[name] = {
            "better": direction,
            "pairs": len(b),
            "base_median": float(np.median(b)),
            "change_median": float(np.median(c)),
            "ratio_of_medians": float(np.median(c) / np.median(b)),
            "ratio_interval": [float(lo), float(hi)],
            "wins": wins,
            "base_iqr": float(q3 - q1),
            "claim": claim,
            "rule": rule,
        }
    return out


def run_orders(pairs: int) -> list[tuple[str, str]]:
    """The order of the two sides in each pair: a shuffle, drawn from
    `ORDER_SEED`, of as many base-first pairs as change-first ones (one
    more base-first for an odd count)."""
    firsts = np.random.default_rng(ORDER_SEED).permutation(np.arange(pairs) % 2)
    return [("base", "change") if f == 0 else ("change", "base") for f in firsts]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, help="git ref of the base tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    base_runs, change_runs = [], []
    with tempfile.TemporaryDirectory(prefix="pair_bench_") as tmp:
        archive = subprocess.run(["git", "archive", args.against], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"base": Path(tmp), "change": ROOT}
        for i, order in enumerate(run_orders(args.pairs)):
            for side in order:
                run = bench_run(trees[side], args.workload, i, args.seconds)
                run.update(pair=i, seed=i, side=side, first=side == order[0])
                (base_runs if side == "base" else change_runs).append(run)
                line = {k: round(v, 4) for k, v in run["metrics"].items()}
                print(f"pair {i} {side}: {line or run.get('stderr', '')}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "base": {"ref": args.against, "commit": git("rev-parse", args.against)},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "bootstrap": {"seed": BOOTSTRAP_SEED, "resamples": BOOTSTRAP_RESAMPLES,
                      "interval_pct": list(INTERVAL)},
        "environment": next((r["environment"] for r in base_runs + change_runs
                             if "environment" in r), None),
        "summary": summarize(base_runs, change_runs, better),
        "runs": [{k: v for k, v in r.items() if k != "environment"}
                 for r in sorted(base_runs + change_runs,
                                 key=lambda r: (r["pair"], not r["first"]))],
    }
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: (v.get("ratio_of_medians"), v.get("wins"), v.get("claim"),
                          v.get("rule"))
                      for k, v in record["summary"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
