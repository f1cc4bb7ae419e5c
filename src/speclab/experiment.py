"""Pipeline driver: staged training (PT -> CP -> FT), evaluation grids,
latency measurement, architecture tables and report emission.

Configuration is one JSON document (keys in README.md); every run
writes a manifest with the config hash, seeds and versions so it can be
replayed. Apart from measured-latency columns, reports are a pure function
of (checkpoints, eval seeds).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import platform
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .archsearch import arch_table
from .checkpoint import canonical_json, load_checkpoint, save_checkpoint, write_json
from .data import (MixPart, MixSpec, alignment_batches, chat_prompt,
                   generate_alignment_set, lm_batches, load_alignment_set,
                   load_corpus, make_completion_tasks, mix, save_alignment_set,
                   save_corpus, teacher_sequences)
from .distill import extract_sparse_logits, read_sparse_dataset, write_sparse_dataset
from .errors import ConfigError, DataError, StageError, VocabMismatchError
from .latency import measure_latency
from .losses import LossSpec
from .metrics import (DecodeStats, LatencyProfile, MetricsRow, metrics_row,
                      write_report, write_table)
from .model import ModelConfig, ModelState, init_model, param_count
from .sampling import SamplingPolicy
from .specdec import SpecConfig, generate, start_session, write_audit_log
from .tokenizer import ByteTokenizer
from .training import TrainSchedule, train_stage


def derive_seed(base: int, *key: int) -> int:
    """Child seed of a run seed: the first word of SeedSequence(base, key)."""
    return int(np.random.SeedSequence(entropy=base, spawn_key=key).generate_state(1)[0])


def _policy(mode: str, temperature: float) -> SamplingPolicy:
    if mode == "greedy":
        return SamplingPolicy("greedy")
    return SamplingPolicy("multinomial", temperature=temperature)


def evaluate_acceptance(
    draft: ModelState,
    target: ModelState,
    prompts: list[list[int]],
    policy: SamplingPolicy,
    gamma: int,
    max_new_tokens: int,
    seed: int = 0,
    eos_id: int | None = None,
    audit_path: str | Path | None = None,
) -> DecodeStats:
    """Pooled decode statistics over a set of prompts."""
    spec = SpecConfig(gamma=gamma, policy=policy,
                      max_new_tokens=max_new_tokens, eos_id=eos_id)
    blocks = []
    # prompt i draws from child i of SeedSequence(seed)
    for prompt, child in zip(prompts, np.random.SeedSequence(seed).spawn(len(prompts))):
        session = start_session(draft, target, prompt, policy=policy,
                                rng=np.random.default_rng(child))
        blocks.extend(generate(session, spec).blocks)
    if audit_path is not None:
        write_audit_log(audit_path, blocks)
    return DecodeStats(gamma=gamma, blocks=[b.accepted_count for b in blocks],
                       proposal_lens=[len(b.proposed) for b in blocks])


def _benchmark_prompts(spec: dict, tokenizer: ByteTokenizer, seed: int,
                       base_dir: Path) -> list[list[int]]:
    kind = spec.get("kind", "completion")
    n_tasks = int(spec.get("n_tasks", 8))
    if kind == "completion":
        corpus = load_corpus(base_dir / spec["corpus"])
        contexts = make_completion_tasks(corpus, tokenizer, n_tasks,
                                         int(spec.get("min_ctx", 4)), seed)
        prompts = [[tokenizer.bos_id] + c for c in contexts]
    elif kind == "instruction":
        samples = load_alignment_set(base_dir / spec["alignment"], tokenizer)
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(samples))[:n_tasks]
        prompts = [chat_prompt(tokenizer, samples[int(i)].instruction) for i in order]
    else:
        raise ConfigError(f"unknown benchmark kind {kind!r}")
    if not prompts:
        raise DataError(f"benchmark {spec.get('name')} produced no prompts")
    return prompts


def _build_stage_batches(stage: dict, tokenizer: ByteTokenizer, schedule: TrainSchedule,
                         stage_seed: int, base_dir: Path, out_dir: Path,
                         target: ModelState | None, loss_spec: LossSpec, vocab_size: int):
    kind = stage.get("kind", "lm")
    if kind == "lm":
        if "mix" in stage:
            mix_cfg = stage["mix"]
            corpora = {cid: load_corpus(base_dir / path)
                       for cid, path in mix_cfg["corpora"].items()}
            spec = MixSpec(parts=tuple(MixPart(cid, int(b)) for cid, b in mix_cfg["parts"]),
                           seed=stage_seed)
            corpus = mix(spec, corpora)
        else:
            corpus = load_corpus(base_dir / stage["corpus"])
        epochs = int(stage.get("epochs", 1))
        iters = [lm_batches(corpus, tokenizer, schedule.batch_size, schedule.seq_len,
                            seed=stage_seed + e) for e in range(epochs)]
        return itertools.chain(*iters)
    if kind == "align":
        samples = load_alignment_set(base_dir / stage["alignment"], tokenizer)
        teacher = None
        if loss_spec.needs_teacher:
            if target is None:
                raise ConfigError("distillation stages need a target checkpoint")
            sequences = teacher_sequences(tokenizer, samples, schedule.seq_len + 1)
            sfkd = out_dir / "distill" / f"{stage['name']}.sfkd"
            if "sparse_dataset" in stage:
                sfkd = base_dir / stage["sparse_dataset"]
            else:
                k = 16 if stage.get("k") is None else int(stage["k"])
                write_sparse_dataset(
                    sfkd, extract_sparse_logits(target, sequences, k),
                    k=k, vocab_size=target.config.vocab_size)
            # the header's vocabulary is the target's on the extraction path
            _, teacher_vocab, items = read_sparse_dataset(sfkd)
            if teacher_vocab != vocab_size:
                raise VocabMismatchError(f"{sfkd} holds logits over {teacher_vocab} "
                                         f"tokens for a draft of {vocab_size}")
            if len(items) != len(samples):
                raise DataError(f"{sfkd} holds {len(items)} sequences for "
                                f"{len(samples)} alignment samples")
            # the stored logits are only valid for the tokens they were taken over
            for i, ((tokens, _), seq) in enumerate(zip(items, sequences)):
                if tokens[:len(seq)] != seq:
                    raise DataError(f"{sfkd} sequence {i} does not begin with the "
                                    f"training sequence of alignment sample {i}")
            teacher = [pairs for _, pairs in items]
        return alignment_batches(samples, tokenizer, schedule.batch_size,
                                 schedule.seq_len, seed=stage_seed, epochs=None,
                                 teacher=teacher, mask_mode=stage.get("mask", "response"))
    raise ConfigError(f"unknown stage kind {kind!r}")


@dataclass
class ExperimentReport:
    out_dir: Path
    rows: list[MetricsRow] = field(default_factory=list)
    checkpoints: dict[str, Path] = field(default_factory=dict)
    arch_table: list[dict] = field(default_factory=list)


def load_config(config: dict | str | Path) -> tuple[dict, Path]:
    """The config and the directory its relative paths resolve against: the
    JSON file's own directory, or the working directory for a dict."""
    if isinstance(config, (str, Path)):
        path = Path(config)
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f), path.parent
    return dict(config), Path.cwd()


def resolve_run(cfg: dict, out_dir: str | Path | None, seed: int | None,
                default_out: str = "runs/experiment") -> tuple[int, Path]:
    """Run seed and output directory; arguments override the config's
    `seed` and `out_dir`."""
    return (int(cfg.get("seed", 0) if seed is None else seed),
            Path(out_dir or cfg.get("out_dir", default_out)))


def write_manifest(out_dir: Path, config: dict, seed: int) -> None:
    manifest = {
        "config_hash": hashlib.sha256(canonical_json(config).encode()).hexdigest(),
        "config": config,
        "seed": seed,
        "versions": {
            "speclab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "created_unix": time.time(),
    }
    write_json(out_dir / "manifest.json", manifest)


class _Run:
    """One loaded config with its run seed, output directory and target
    checkpoint, loaded on first use."""

    def __init__(self, config: dict | str | Path, out_dir: str | Path | None = None,
                 seed: int | None = None) -> None:
        self.cfg, self.base_dir = load_config(config)
        self.seed, self.out = resolve_run(self.cfg, out_dir, seed)

    @cached_property
    def target(self) -> ModelState | None:
        if not self.cfg.get("target_checkpoint"):
            return None
        return load_checkpoint(self.base_dir / self.cfg["target_checkpoint"])

    def train(self) -> tuple[ExperimentReport, ModelState]:
        """Run the stages; returns the report and the final draft."""
        write_manifest(self.out, self.cfg, self.seed)
        tokenizer = ByteTokenizer()
        report = ExperimentReport(out_dir=self.out)

        if self.cfg.get("draft_init_checkpoint"):
            state = load_checkpoint(self.base_dir / self.cfg["draft_init_checkpoint"])
        else:
            draft_cfg = ModelConfig.from_dict(self.cfg["draft"])
            if draft_cfg.vocab_size < tokenizer.vocab_size:
                raise ConfigError("draft vocab_size smaller than the tokenizer vocabulary")
            state = init_model(draft_cfg, self.seed)

        for si, stage in enumerate(self.cfg.get("stages", [])):
            name = stage["name"]
            schedule = TrainSchedule(**stage["schedule"])
            loss_spec = LossSpec.from_dict(stage.get("loss", {"CE": 1.0}))
            batches = _build_stage_batches(
                stage, tokenizer, schedule, int(stage.get("seed", derive_seed(self.seed, si))),
                self.base_dir, self.out, self.target, loss_spec, state.config.vocab_size)
            try:
                result = train_stage(state, batches, schedule, loss_spec)
            except Exception as exc:
                raise StageError(f"stage {name} failed: {exc}") from exc
            state = result.state
            ckpt = self.out / "checkpoints" / f"{name}.sfmd"
            save_checkpoint(state, ckpt)
            report.checkpoints[name] = ckpt
            write_json(self.out / "losses" / f"{name}.json",
                       {"stage": name, "losses": result.losses, "steps_run": result.steps_run})
        return report, state

    def evaluate(self, draft: ModelState, report: ExperimentReport) -> None:
        """The benchmark x mode x gamma grid, then the optional arch table,
        which shares the grid's latency settings, target latency and c_hat."""
        ev, target = self.cfg["eval"], self.target
        if target is None:
            raise ConfigError("evaluation requires a target_checkpoint")
        tokenizer = ByteTokenizer()

        temperature = float(ev.get("temperature", 0.6))
        modes = list(ev.get("modes", ["greedy", "multinomial"]))
        gammas = [int(g) for g in ev.get("gammas", [3, 5])]
        max_new = int(ev.get("max_new_tokens", 32))
        eos = tokenizer.eos_id if ev.get("stop_at_eos", True) else None

        exclude = ev.get("c_hat_mode", "total") == "excluded"
        c_hat = (param_count(draft.config, exclude) / param_count(target.config, exclude))

        lat_cfg = ev.get("latency", {})
        lat = {"warmup": int(lat_cfg.get("warmup", 2)), "reps": int(lat_cfg.get("reps", 5)),
               "seed": self.seed}
        # AR decoding does not depend on gamma: block-1 latencies serve every row
        l_draft = measure_latency(draft, 1, **lat).median
        l_target_1 = measure_latency(target, 1, **lat).median
        profiles = {gamma: LatencyProfile(l_draft, l_target_1,
                                          measure_latency(target, gamma, **lat).median)
                    for gamma in gammas}

        benchmarks = [(b["name"], _benchmark_prompts(
                          b, tokenizer, derive_seed(self.seed, 100 + bi), self.base_dir))
                      for bi, b in enumerate(ev.get("benchmarks", []))]
        for bi, (bench, prompts) in enumerate(benchmarks):
            for mi, mode in enumerate(modes):
                for gamma in gammas:
                    policy = _policy(mode, temperature)
                    stats = evaluate_acceptance(
                        draft, target, prompts, policy, gamma, max_new,
                        seed=derive_seed(self.seed, 200 + bi, mi, gamma), eos_id=eos,
                        audit_path=self.out / "audit" / f"{bench}_{mode}_g{gamma}.jsonl")
                    report.rows.append(metrics_row(
                        bench, mode, temperature if mode == "multinomial" else 0.0,
                        stats, c_hat, profiles[gamma]))

        write_report(report.rows, self.out / "metrics.csv", self.out / "metrics.json")

        ac = self.cfg.get("arch_search")
        if ac:
            gamma = int(ac.get("gamma", 3))
            bench = ac.get("benchmark")
            tau = next((row.tau for row in report.rows
                        if row.gamma == gamma and bench in (None, row.benchmark)), None)
            report.arch_table = arch_table(ac, draft.config, target.config, l_target_1,
                                           tau, exclude, **lat)
            write_table(report.arch_table, self.out / "arch_search.csv",
                        self.out / "arch_search.json")

    def run(self) -> ExperimentReport:
        """Stages, then the evaluation grid and the optional arch table."""
        report, draft = self.train()
        if self.cfg.get("eval"):
            self.evaluate(draft, report)
        return report


def run_training(config: dict | str | Path, out_dir: str | Path | None = None,
                 seed: int | None = None) -> ExperimentReport:
    """Execute the declared stages, writing one checkpoint per stage."""
    return _Run(config, out_dir, seed).train()[0]


@dataclass
class AlignmentStudyResult:
    """Held-out acceptance rates from the alignment-direction study."""
    pt_ar: float
    ft_target_ar: list[float]    # one per seed
    ft_original_ar: list[float]


def alignment_direction_study(seeds: tuple[int, ...] = (0, 1, 2),
                              out_dir: str | Path = "runs/study") -> AlignmentStudyResult:
    """Fine-tune a pre-trained draft on target-generated vs. original
    responses and compare held-out acceptance rates against a fixed tiny
    target trained to memorize a synthetic topic world, each model a
    pipeline run under `out_dir` (layout in README.md).

    The target's own phrasing of each fact differs from the "original"
    dataset's phrasing, so drafts tuned on the target's answers align
    measurably better, mirroring the effect at full scale.
    """
    from .synthetic import TopicWorld

    out = Path(out_dir)
    tokenizer = ByteTokenizer()
    world = TopicWorld(n_topics=32, seed=0)
    ft_topics, eval_topics = list(range(24)), list(range(24, 32))
    save_alignment_set(world.target_training_samples(), out / "target.jsonl", tokenizer)
    save_corpus(world.pretrain_corpus(repeats=30, seed=3), out / "pretrain.jsonl")
    save_alignment_set(world.original_samples(ft_topics), out / "original.jsonl", tokenizer)
    save_alignment_set(world.original_samples(eval_topics), out / "held_out.jsonl", tokenizer)

    target_cfg = {"hidden_size": 64, "intermediate_size": 128, "n_layers": 2, "n_heads": 4,
                  "n_kv_heads": 4, "vocab_size": 264, "max_seq_len": 96}
    draft_cfg = dict(target_cfg, hidden_size=32, intermediate_size=64)

    def stage(name: str, kind: str, seed: int, peak_lr: float, steps: int, **keys) -> dict:
        return {"name": name, "kind": kind, "seed": seed, **keys,
                "schedule": {"peak_lr": peak_lr, "total_steps": steps,
                             "batch_size": 16, "seq_len": 64}}

    target = run_training({"draft": target_cfg, "stages": [stage(
        "target", "align", 11, 3e-3, 600, alignment=str(out / "target.jsonl"), mask="full")]},
        out / "target", seed=1).checkpoints["target"]
    draft = run_training({"draft": draft_cfg, "stages": [stage(
        "pretrain", "lm", 4, 3e-3, 120, corpus=str(out / "pretrain.jsonl"), epochs=3)]},
        out / "pretrain", seed=2).checkpoints["pretrain"]

    def held_out_ar(run: str, seed: int, stages: list[dict]) -> float:
        report = run_experiment({
            "target_checkpoint": str(target), "draft_init_checkpoint": str(draft),
            "stages": stages,
            "eval": {"benchmarks": [{"name": "held_out", "kind": "instruction",
                                     "alignment": str(out / "held_out.jsonl")}],
                     "modes": ["greedy"], "gammas": [3]},
        }, out / run, seed)
        return report.rows[0].alpha

    pt_ar = held_out_ar("pt", 0, [])
    target_state = load_checkpoint(target)
    ft_target_ar, ft_original_ar = [], []
    for seed in seeds:
        generated = out / f"generated_{seed}.jsonl"
        save_alignment_set(generate_alignment_set(
            target_state, tokenizer, world.seed_instructions(ft_topics),
            temperatures=[0.6], include_greedy=False,
            seed=100 + seed, max_new_tokens=48), generated, tokenizer)
        for name, data, ars in (("generated", generated, ft_target_ar),
                                ("original", out / "original.jsonl", ft_original_ar)):
            ars.append(held_out_ar(f"ft_{name}_{seed}", seed, [stage(
                "ft", "align", 200 + seed, 2e-3, 250, alignment=str(data))]))
    return AlignmentStudyResult(pt_ar=pt_ar, ft_target_ar=ft_target_ar,
                                ft_original_ar=ft_original_ar)


def run_experiment(config: dict | str | Path, out_dir: str | Path | None = None,
                   seed: int | None = None) -> ExperimentReport:
    """Stages, then the evaluation grid, then the optional architecture table."""
    return _Run(config, out_dir, seed).run()
