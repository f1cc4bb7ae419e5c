"""Command-line entry points.

Every subcommand takes one JSON config file plus optional --seed and
--out-dir overrides; failures exit nonzero with a machine-readable error
JSON on stderr. `speclab train` also runs any evaluation declared in the
config, so a single config file drives a full pipeline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .archsearch import arch_table
from .checkpoint import load_checkpoint, write_json
from .data import (generate_alignment_set, load_alignment_set, load_corpus,
                   save_alignment_set, teacher_sequences)
from .distill import extract_sparse_logits, write_sparse_dataset
from .errors import ConfigError, SpecLabError
from .experiment import _Run, load_config, resolve_run, run_experiment, write_manifest
from .latency import measure_latency
from .metrics import DecodeStats, metrics_row, write_report, write_table
from .model import ModelConfig
from .specdec import read_audit_log
from .tokenizer import ByteTokenizer


def _load(args) -> tuple[dict, Path, int, Path]:
    """The config, its directory, and the run seed and output directory."""
    cfg, base = load_config(args.config)
    return (cfg, base) + resolve_run(cfg, args.out_dir, args.seed, ".")


def cmd_train(args) -> int:
    report = run_experiment(args.config, out_dir=args.out_dir, seed=args.seed)
    print(f"wrote {len(report.checkpoints)} checkpoint(s) and "
          f"{len(report.rows)} metric row(s) under {report.out_dir}")
    return 0


def cmd_eval(args) -> int:
    run = _Run(args.config, args.out_dir, args.seed)
    if not run.cfg.get("draft_init_checkpoint"):
        raise ConfigError("eval needs draft_init_checkpoint in the config")
    run.cfg = {k: v for k, v in run.cfg.items() if k not in ("stages", "arch_search")}
    report = run.run()
    print(f"wrote {len(report.rows)} metric row(s) under {report.out_dir}")
    return 0


def cmd_distill_data(args) -> int:
    cfg, base, _, out_dir = _load(args)
    tokenizer = ByteTokenizer()
    teacher = load_checkpoint(base / cfg["teacher_checkpoint"])
    # a missing or null key takes its default, as the align stage's `k` does
    k = 16 if cfg.get("k") is None else int(cfg["k"])
    max_len = (teacher.config.max_seq_len if cfg.get("max_seq_len") is None
               else int(cfg["max_seq_len"]))
    sequences = teacher_sequences(
        tokenizer, load_alignment_set(base / cfg["alignment"], tokenizer), max_len)
    out = out_dir / cfg.get("out_name", "teacher.sfkd")
    n = write_sparse_dataset(out, extract_sparse_logits(teacher, sequences, k),
                             k=k, vocab_size=teacher.config.vocab_size)
    print(f"wrote {n} sequences (k={k}) to {out}")
    return 0


def cmd_align_gen(args) -> int:
    cfg, base, seed, out_dir = _load(args)
    tokenizer = ByteTokenizer()
    target = load_checkpoint(base / cfg["target_checkpoint"])
    seeds_corpus = load_corpus(base / cfg["seed_instructions"])
    instructions = [tokenizer.encode(d.text) for d in seeds_corpus.documents]
    samples = generate_alignment_set(
        target, tokenizer, instructions,
        temperatures=[float(t) for t in cfg.get("temperatures", [0.6, 0.8, 1.0])],
        include_greedy=bool(cfg.get("include_greedy", True)),
        self_prompt_count=int(cfg.get("self_prompt_count", 0)),
        seed=seed,
        max_new_tokens=int(cfg.get("max_new_tokens", 64)))
    out = out_dir / cfg.get("out_name", "alignment.jsonl")
    save_alignment_set(samples, out, tokenizer)
    print(f"wrote {len(samples)} alignment samples to {out}")
    return 0


def cmd_bench_latency(args) -> int:
    cfg, base, seed, out_dir = _load(args)
    results = []
    for entry in cfg["models"]:
        if "checkpoint" in entry:
            model = load_checkpoint(base / entry["checkpoint"])
            mcfg = model.config
        else:
            mcfg = ModelConfig.from_dict(entry["config"])
            model = mcfg
        for block in cfg.get("block_sizes", [1]):
            run = measure_latency(
                model, int(block),
                warmup=int(cfg.get("warmup", 3)),
                reps=int(cfg.get("reps", 10)),
                seed=seed)
            results.append({
                "name": entry.get("name", "model"),
                "hidden_size": mcfg.hidden_size,
                "n_layers": mcfg.n_layers,
                "block_size": int(block),
                "median_s": run.median,
                "samples_s": run.samples,
                "flagged": run.flagged,
            })
    out = out_dir / cfg.get("out_name", "latency.json")
    write_json(out, results)
    write_manifest(out_dir, cfg, seed)
    print(f"wrote {len(results)} measurements to {out}")
    return 0


def cmd_arch_search(args) -> int:
    cfg, _, seed, out_dir = _load(args)
    rows = arch_table(cfg, ModelConfig.from_dict(cfg["base_config"]))
    out = out_dir / cfg.get("out_name", "arch_search.json")
    write_table(rows, out.with_suffix(".csv"), out)
    write_manifest(out_dir, cfg, seed)
    for r in rows:
        status = (f"layers={r['n_layers']} deviation={r['deviation']}" if r["feasible"]
                  else r["reason"])
        print(f"hidden={r['hidden_size']}: {status}")
    return 0


def cmd_report(args) -> int:
    """Recompute a metrics table from recorded audit logs."""
    cfg, base, _, out_dir = _load(args)
    rows = []
    for entry in cfg["runs"]:
        blocks = read_audit_log(base / entry["audit"])
        gamma = int(entry["gamma"])
        stats = DecodeStats(gamma=gamma,
                            blocks=[int(b["accepted_count"]) for b in blocks],
                            proposal_lens=[len(b["proposed"]) for b in blocks])
        rows.append(metrics_row(
            entry.get("benchmark", "replay"),
            entry.get("sampling_mode", "greedy"),
            float(entry.get("temperature", 0.0)),
            stats,
            float(entry["c_hat"])))
    write_report(rows, out_dir / "metrics.csv", out_dir / "metrics.json")
    print(f"wrote {len(rows)} replayed row(s) under {out_dir}")
    return 0


COMMANDS = {
    "train": cmd_train,
    "distill-data": cmd_distill_data,
    "align-gen": cmd_align_gen,
    "eval": cmd_eval,
    "bench-latency": cmd_bench_latency,
    "arch-search": cmd_arch_search,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="Desk-scale speculative decoding laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", type=str, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (SpecLabError, OSError, KeyError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, SpecLabError) else 3


if __name__ == "__main__":
    sys.exit(main())
