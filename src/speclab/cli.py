"""Command-line entry points.

Every subcommand takes one JSON config file plus optional --seed and
--out-dir overrides; failures exit nonzero with a machine-readable error
JSON on stderr. `speclab train` runs the whole pipeline a config declares:
its stages (generate, lm, align), then its evaluation, so a config with
no stages evaluates a draft checkpoint.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .archsearch import ARCH_SEARCH, arch_table
from .checkpoint import load_checkpoint, write_json
from .config import RUN, load
from .data import load_alignment_set, teacher_sequences
from .errors import ConfigError, SpecLabError
from .experiment import PIPELINE, STAGE, _Run, write_manifest, write_teacher_logits
from .latency import measure_latency
from .metrics import DecodeStats, metrics_row, write_report, write_table
from .model import ModelConfig
from .specdec import read_audit_log
from .tokenizer import ByteTokenizer

# the config schema of each command but `train`, which reads the
# pipeline's (notation in config.py)
DISTILL_DATA = {**RUN, "teacher_checkpoint": Path, "alignment": Path, "k": STAGE["align"]["k"],
                "max_seq_len": (int, None), "out_name": (Path, "teacher.sfkd")}
LATENCY_MODEL = {"name": (str, "model"), "checkpoint": (Path, None), "config": (ModelConfig, None)}
BENCH_LATENCY = {**RUN, "models": [LATENCY_MODEL], "block_sizes": ([int], [1]),
                 "warmup": (int, 3), "reps": (int, 10), "out_name": (Path, "latency.json")}
ARCH = {**RUN, **ARCH_SEARCH, "base_config": ModelConfig, "out_name": (Path, "arch_search.json")}
REPORT_RUN = {"audit": Path, "gamma": int, "c_hat": float, "benchmark": (str, "replay"),
              "sampling_mode": (str, "greedy"), "temperature": (float, 0.0)}
REPORT = {**RUN, "runs": [REPORT_RUN]}


def cmd_train(given: dict, cfg, base: Path) -> None:
    report = _Run(given, cfg, base).run()
    print(f"wrote {len(report.checkpoints)} checkpoint(s) and "
          f"{len(report.rows)} metric row(s) under {report.out_dir}")


def cmd_distill_data(given: dict, cfg, base: Path) -> None:
    tokenizer = ByteTokenizer()
    teacher = load_checkpoint(base / cfg.teacher_checkpoint)
    max_len = teacher.config.max_seq_len if cfg.max_seq_len is None else cfg.max_seq_len
    sequences = teacher_sequences(
        tokenizer, load_alignment_set(base / cfg.alignment, tokenizer), max_len)
    out = cfg.out_dir / cfg.out_name
    n = write_teacher_logits(out, teacher, sequences, cfg.k)
    print(f"wrote {n} sequences (k={cfg.k}) to {out}")


def cmd_bench_latency(given: dict, cfg, base: Path) -> None:
    results = []
    for i, m in enumerate(cfg.models):
        if m.checkpoint is None and m.config is None:
            raise ConfigError(f"config.models[{i}].config is missing, and so is its checkpoint")
        model = m.config if m.checkpoint is None else load_checkpoint(base / m.checkpoint)
        for block in cfg.block_sizes:
            run = measure_latency(model, block, warmup=cfg.warmup, reps=cfg.reps,
                                  seed=cfg.seed)
            results.append({"name": m.name, "hidden_size": run.config.hidden_size,
                            "n_layers": run.config.n_layers, "block_size": block,
                            "median_s": run.median, "samples_s": run.samples,
                            "flagged": run.flagged})
    out = cfg.out_dir / cfg.out_name
    write_json(out, results)
    write_manifest(cfg.out_dir, given, cfg.seed)
    print(f"wrote {len(results)} measurements to {out}")


def cmd_arch_search(given: dict, cfg, base: Path) -> None:
    rows = arch_table(cfg.hidden_candidates, cfg.budget, cfg.base_config)
    out = cfg.out_dir / cfg.out_name
    write_table(rows, out.with_suffix(".csv"), out)
    write_manifest(cfg.out_dir, given, cfg.seed)
    for r in rows:
        status = (f"layers={r['n_layers']} deviation={r['deviation']}" if r["feasible"]
                  else r["reason"])
        print(f"hidden={r['hidden_size']}: {status}")


def cmd_report(given: dict, cfg, base: Path) -> None:
    """Recompute a metrics table from recorded audit logs."""
    rows = []
    for run in cfg.runs:
        blocks = read_audit_log(base / run.audit)
        stats = DecodeStats(gamma=run.gamma,
                            blocks=[int(b["accepted_count"]) for b in blocks],
                            proposal_lens=[len(b["proposed"]) for b in blocks])
        rows.append(metrics_row(run.benchmark, run.sampling_mode, run.temperature, stats,
                                run.c_hat))
    write_report(rows, cfg.out_dir / "metrics.csv", cfg.out_dir / "metrics.json")
    print(f"wrote {len(rows)} replayed row(s) under {cfg.out_dir}")


COMMANDS = {"train": (cmd_train, PIPELINE), "distill-data": (cmd_distill_data, DISTILL_DATA),
            "bench-latency": (cmd_bench_latency, BENCH_LATENCY),
            "arch-search": (cmd_arch_search, ARCH), "report": (cmd_report, REPORT)}


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
