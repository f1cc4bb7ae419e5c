"""Command-line entry points: `speclab train` and `speclab report`.

Each takes one JSON config file plus optional --seed and --out-dir
overrides; failures exit nonzero with a machine-readable error JSON on
stderr. `speclab train` runs the whole pipeline a config declares: its
stages (generate, lm, align, the last writing the target's top-k logits
when it distils), its evaluation and its arch table, so a config with no
stages evaluates a draft checkpoint. `speclab report` replays a metrics
table from recorded audit logs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import RUN, Min, load
from .errors import SpecLabError
from .experiment import PIPELINE, _Run
from .metrics import metrics_row, write_report
from .specdec import decode_stats, read_audit_log

# the config schema of `report`; `train` reads the pipeline's (notation
# in config.py)
REPORT_RUN = {"audit": Path, "gamma": Min(1), "c_hat": float, "benchmark": (str, "replay"),
              "sampling_mode": (str, "greedy"), "temperature": (float, 0.0)}
REPORT = {**RUN, "runs": [REPORT_RUN]}


def cmd_train(given: dict, cfg, base: Path) -> None:
    report = _Run(given, cfg, base).run()
    print(f"wrote {len(report.checkpoints)} checkpoint(s) and "
          f"{len(report.rows)} metric row(s) under {report.out_dir}")


def cmd_report(given: dict, cfg, base: Path) -> None:
    """Recompute a metrics table from recorded audit logs."""
    rows = []
    for run in cfg.runs:
        stats = decode_stats(run.gamma, read_audit_log(base / run.audit))
        rows.append(metrics_row(run.benchmark, run.sampling_mode, run.temperature, stats,
                                run.c_hat))
    write_report(rows, cfg.out_dir / "metrics.csv", cfg.out_dir / "metrics.json")
    print(f"wrote {len(rows)} replayed row(s) under {cfg.out_dir}")


COMMANDS = {"train": (cmd_train, PIPELINE), "report": (cmd_report, REPORT)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclab", description="Desk-scale speculative decoding laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", type=str, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, schema = COMMANDS[args.command]
    try:
        command(*load(args.config, schema, args.out_dir, args.seed))
    except (SpecLabError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, SpecLabError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
