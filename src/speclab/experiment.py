"""Pipeline driver: stages (pre-train, generate with the target, fine-tune),
evaluation grids, latency measurement, architecture tables and reports.

Configuration is one JSON document (keys in README.md); every run writes
a manifest with the config hash, seeds, versions and machine so it can be
replayed. Apart from measured-latency columns, reports are a pure function
of (checkpoints, eval seeds).
"""

from __future__ import annotations

import hashlib
import os
import platform
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .archsearch import ARCH_SEARCH, arch_table, check_search
from .checkpoint import (canonical_json, checkpoint_config, load_checkpoint, save_checkpoint,
                         write_json)
from .config import RUN, Kinds, Min, at, load
from .data import (MASK_MODES, Corpus, Document, alignment_batches, chat_prompt, check_parts,
                   generate_alignment_set, lm_batches, load_alignment_set, load_corpus,
                   make_completion_tasks, mix, save_alignment_set, save_corpus,
                   teacher_sequences)
from .distill import extract_sparse_logits, read_sparse_dataset, write_sparse_dataset
from .errors import ConfigError, DataError, StageError, VocabMismatchError
from .latency import MIN_REPS, check_block, measure_latency
from .losses import LOSS, LossSpec
from .metrics import (DecodeStats, LatencyProfile, MetricsRow, metrics_row,
                      write_report, write_table)
from .model import ModelConfig, ModelState, init_model, param_count
from .sampling import SamplingPolicy
from .specdec import SpecConfig, decode_stats, generate, start_session, write_audit_log
from .tokenizer import ByteTokenizer
from .training import TrainSchedule, train_stage

# the schema of each pipeline config section (config.py gives the notation)
MIX = {"corpora": {str: Path}, "parts": [[str, int]]}
TRAINING = {"name": str, "kind": str, "seed": (int, None), "schedule": TrainSchedule,
            "loss": (LOSS, {"CE": 1.0})}
STAGE = Kinds(
    lm={**TRAINING, "corpus": (Path, None), "mix": (MIX, None), "epochs": (Min(1), 1)},
    align={**TRAINING, "alignment": Path, "mask": (MASK_MODES, "response"), "k": (Min(1), 16)},
    generate={"name": str, "kind": str, "seed": (int, None), "seed_instructions": Path,
              "temperatures": ([float], [0.6, 0.8, 1.0]), "include_greedy": (bool, True),
              "self_prompt_count": (Min(0), 0), "max_new_tokens": (Min(1), 64)})
LATENCY = {"warmup": (Min(0), 2), "reps": (Min(MIN_REPS), 5)}
BENCH = {"name": str, "kind": str, "n_tasks": (Min(1), 8), "min_ctx": (Min(0), 4)}
BENCHMARK = Kinds(completion={**BENCH, "corpus": Path}, instruction={**BENCH, "alignment": Path})
EVAL = {"benchmarks": ([BENCHMARK], []), "modes": ([str], ["greedy", "multinomial"]),
        "gammas": ([int], [3, 5]), "temperature": (float, 0.6), "max_new_tokens": (int, 32),
        "stop_at_eos": (bool, True), "c_hat_mode": (frozenset({"total", "excluded"}), "total"),
        "latency": (LATENCY, {})}
PIPELINE = {**RUN, "out_dir": (Path, "runs/experiment"), "target_checkpoint": (Path, None),
            "draft_init_checkpoint": (Path, None), "draft": (ModelConfig, None),
            "stages": ([STAGE], []), "eval": (EVAL, None), "arch_search": (ARCH_SEARCH, None)}


# `derive_seed` keys: stage i's is (i,); every other family's has two or
# more words, led by its own tag, so no two streams of a run share a key
KEY_PROMPTS, KEY_CELLS, KEY_LATENCY = 1, 2, 3


def derive_seed(base: int, *key: int) -> int:
    """Child seed of a run seed: the first word of SeedSequence(base, key)."""
    return int(np.random.SeedSequence(entropy=base, spawn_key=key).generate_state(1)[0])


def _policy(mode: str, temperature: float) -> SamplingPolicy:
    return SamplingPolicy(mode, temperature=temperature)


def _unique(where: str, values: list, earlier: str) -> None:
    """Raise ConfigError at `where.format(i)` for the first values[i] equal to an earlier one."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{where.format(i)}: an earlier {earlier} {value!r}")


def decode_prompts(draft: ModelState, target: ModelState, prompts: list[list[int]],
                   spec: SpecConfig, seed: int,
                   audit_path: str | Path | None = None) -> DecodeStats:
    """Pooled decode statistics over a set of prompts; prompt i draws from
    child i of SeedSequence(seed)."""
    blocks = []
    for prompt, child in zip(prompts, np.random.SeedSequence(seed).spawn(len(prompts))):
        session = start_session(draft, target, prompt, policy=spec.policy,
                                rng=np.random.default_rng(child))
        blocks.extend(generate(session, spec).blocks)
    if audit_path is not None:
        write_audit_log(audit_path, blocks)
    return decode_stats(spec.gamma, blocks)


def evaluate_acceptance(draft: ModelState, target: ModelState, prompts: list[list[int]],
                        policy: SamplingPolicy, gamma: int, max_new_tokens: int, seed: int,
                        eos_id: int | None = None,
                        audit_path: str | Path | None = None) -> DecodeStats:
    """`decode_prompts` under the SpecConfig of these settings."""
    return decode_prompts(draft, target, prompts,
                          SpecConfig(gamma, policy, max_new_tokens, eos_id), seed, audit_path)


def _benchmark_prompts(b: SimpleNamespace, tokenizer: ByteTokenizer, seed: int,
                       base_dir: Path) -> tuple[str, list[list[int]]]:
    if b.kind == "completion":
        corpus = load_corpus(base_dir / b.corpus)
        contexts = make_completion_tasks(corpus, tokenizer, b.n_tasks, b.min_ctx, seed)
        prompts = [[tokenizer.bos_id] + c for c in contexts]
    else:
        samples = load_alignment_set(base_dir / b.alignment, tokenizer)
        order = np.random.default_rng(seed).permutation(len(samples))[:b.n_tasks]
        prompts = [chat_prompt(tokenizer, samples[int(i)].instruction) for i in order]
    if not prompts:
        raise DataError(f"benchmark {b.name} produced no prompts")
    return b.name, prompts


def _build_stage_batches(stage: SimpleNamespace, tokenizer: ByteTokenizer, stage_seed: int,
                         base_dir: Path, out_dir: Path, target: ModelState | None):
    """A training stage's batches; an align stage given its `target` writes
    the target's top-`k` logits to `distill/<name>.sfkd` and trains on what
    that file holds."""
    schedule = stage.schedule
    if stage.kind == "lm":
        if stage.mix is not None:
            corpora = {cid: load_corpus(base_dir / path) for cid, path in stage.mix.corpora.items()}
            corpus = mix(corpora, stage.mix.parts, stage_seed)
        else:
            corpus = load_corpus(base_dir / stage.corpus)
        return lm_batches(corpus, tokenizer, schedule.batch_size, schedule.seq_len,
                          seed=stage_seed, epochs=stage.epochs)
    samples = load_alignment_set(base_dir / stage.alignment, tokenizer)
    teacher = None
    if target is not None:
        sfkd = out_dir / "distill" / f"{stage.name}.sfkd"
        sequences = teacher_sequences(tokenizer, samples, schedule.seq_len + 1)
        write_sparse_dataset(sfkd, extract_sparse_logits(target, sequences, stage.k),
                             k=stage.k, vocab_size=target.config.vocab_size)
        teacher = [pairs for _, pairs in read_sparse_dataset(sfkd)[2]]
    return alignment_batches(samples, tokenizer, schedule.batch_size,
                             schedule.seq_len, seed=stage_seed, epochs=None,
                             teacher=teacher, mask_mode=stage.mask)


@dataclass
class ExperimentReport:
    out_dir: Path
    rows: list[MetricsRow] = field(default_factory=list)
    checkpoints: dict[str, Path] = field(default_factory=dict)


def write_manifest(out_dir: Path, config: dict, seed: int) -> None:
    try:  # the BLAS numpy was built with; numpy before 1.25 does not say
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    libc_name, libc_version = platform.libc_ver()  # training's allocator policy needs glibc
    libc = {"name": libc_name, "version": libc_version} if libc_name else None
    manifest = {
        "config_hash": hashlib.sha256(canonical_json(config).encode()).hexdigest(),
        "config": config,
        "seed": seed,
        "versions": {"speclab": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        # bit-identical reruns need the same BLAS and thread count
        "machine": {"cpu_count": os.cpu_count(), "blas": blas, "libc": libc, "threads": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS")}},
        "created_unix": time.time(),
    }
    write_json(out_dir / "manifest.json", manifest)


@dataclass
class _Run:
    """A pipeline config as `config.load` returns it, its target checkpoint,
    and what the config builds once: the draft's config (`base`, read from
    the checkpoint header when the draft is one), each training stage's
    LossSpec by name, and each eval cell's (mode index, mode, SpecConfig).
    `config.load` has checked each key on its own; building a _Run checks
    what the keys require of each other, then that every input file
    exists, then what only the checkpoints' headers can judge, so a config
    fault, a missing file or a draft that does not fit its target is
    reported before any file is written."""
    config: dict
    cfg: SimpleNamespace
    base_dir: Path
    base: ModelConfig = field(init=False)
    losses: dict[str, LossSpec] = field(init=False, default_factory=dict)
    specs: list[tuple[int, str, SpecConfig]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        cfg, ev = self.cfg, self.cfg.eval
        if (cfg.draft is None) == (cfg.draft_init_checkpoint is None):
            raise ConfigError("config: give exactly one of draft and draft_init_checkpoint")
        _unique("config.stages[{}].name", [s.name for s in cfg.stages], "stage is named")
        generates, distills = False, []  # distills: (where, stage) of each distilling stage
        for i, stage in enumerate(cfg.stages):
            where = f"config.stages[{i}]"
            if stage.kind == "generate":
                generates = True
                for j, temperature in enumerate(stage.temperatures):
                    at(f"{where}.temperatures[{j}]", _policy, "multinomial", temperature)
                if not stage.temperatures and not stage.include_greedy:
                    raise ConfigError(f"{where}: need at least one sampling configuration")
                continue
            loss = self.losses[stage.name] = at(f"{where}.loss", LossSpec, stage.loss.CE,
                                                stage.loss.KL, stage.loss.TVD)
            if stage.kind == "lm":
                if (stage.corpus is None) == (stage.mix is None):
                    raise ConfigError(f"{where}: an lm stage reads one of corpus and mix")
                if stage.mix is not None:
                    at(f"{where}.mix", check_parts, stage.mix.parts, stage.mix.corpora)
                continue
            if loss.needs_teacher:
                distills.append((where, stage))
        if ev is not None:  # two cells of one grid would write one audit log
            _unique("config.eval.benchmarks[{}].name", [b.name for b in ev.benchmarks],
                    "benchmark is named")
            _unique("config.eval.modes[{}]", ev.modes, "mode is")
            _unique("config.eval.gammas[{}]", ev.gammas, "gamma is")
            eos = ByteTokenizer.eos_id if ev.stop_at_eos else None
            for j, mode in enumerate(ev.modes):
                policy = at(f"config.eval.modes[{j}]", _policy, mode, ev.temperature)
                self.specs += [(j, mode, at("config.eval", SpecConfig, gamma, policy,
                                            ev.max_new_tokens, eos)) for gamma in ev.gammas]
        if cfg.arch_search is not None:
            at("config.arch_search", check_search, cfg.arch_search.budget,
               cfg.arch_search.hidden_candidates)
        meets_draft = ev is not None or bool(distills)  # the draft meets the target
        if (meets_draft or generates) and cfg.target_checkpoint is None:
            raise ConfigError("config.target_checkpoint is missing: eval, generate and "
                              "distillation stages use the target")
        # an input is a file, or the data/<name>.jsonl a generate stage before it writes
        written: set[Path] = set()

        def check(where: str, path: Path | None) -> None:
            if path is None:
                return
            full = self.base_dir / path
            if full.resolve() not in written and not full.is_file():
                raise FileNotFoundError(f"{where}: no such file {full}")

        check("config.target_checkpoint", cfg.target_checkpoint)
        check("config.draft_init_checkpoint", cfg.draft_init_checkpoint)
        for i, stage in enumerate(cfg.stages):
            for key in ("corpus", "alignment", "seed_instructions"):
                check(f"config.stages[{i}].{key}", getattr(stage, key, None))
            for cid, path in (stage.mix.corpora if getattr(stage, "mix", None) else {}).items():
                check(f"config.stages[{i}].mix.corpora.{cid}", path)
            if stage.kind == "generate":
                written.add((cfg.out_dir / "data" / f"{stage.name}.jsonl").resolve())
        for i, b in enumerate([] if ev is None else ev.benchmarks):
            key = "corpus" if b.kind == "completion" else "alignment"
            check(f"config.eval.benchmarks[{i}].{key}", getattr(b, key))

        draft = "config.draft" if cfg.draft is not None else "config.draft_init_checkpoint"
        self.base = cfg.draft or checkpoint_config(self.base_dir / cfg.draft_init_checkpoint)
        if self.base.vocab_size < ByteTokenizer.vocab_size:  # every stage encodes with it
            raise ConfigError(f"{draft}: the draft's vocabulary of {self.base.vocab_size} is "
                              f"smaller than the tokenizer's {ByteTokenizer.vocab_size}")
        for i, stage in enumerate(cfg.stages):  # a training batch is one draft forward
            if stage.kind != "generate" and stage.schedule.seq_len > self.base.max_seq_len:
                raise ConfigError(f"config.stages[{i}].schedule.seq_len {stage.schedule.seq_len} "
                                  f"exceeds the draft's max_seq_len {self.base.max_seq_len}")
        if meets_draft:
            target = checkpoint_config(self.base_dir / cfg.target_checkpoint)
            if target.vocab_size != self.base.vocab_size:
                raise VocabMismatchError(
                    f"config.target_checkpoint: the target's logits are over "
                    f"{target.vocab_size} tokens for a draft of {self.base.vocab_size}")
            for where, stage in distills:  # the teacher scores seq_len + 1 tokens at once
                if stage.k > target.vocab_size:
                    raise ConfigError(f"{where}.k exceeds the target's vocabulary of "
                                      f"{target.vocab_size}")
                if stage.schedule.seq_len + 1 > target.max_seq_len:
                    raise ConfigError(f"{where}.schedule.seq_len {stage.schedule.seq_len} plus "
                                      f"one exceeds the target's max_seq_len "
                                      f"{target.max_seq_len}")
            if ev is not None:  # the eval's latency blocks; a grid without modes times no gamma
                at(draft, check_block, self.base, 1)
                at("config.target_checkpoint", check_block, target, 1)
                for j, gamma in enumerate(ev.gammas if self.specs else []):
                    at(f"config.eval.gammas[{j}]", check_block, target, gamma)
        if cfg.arch_search is not None:
            at("config.arch_search", arch_table, cfg.arch_search.hidden_candidates,
               cfg.arch_search.budget, self.base)

    @cached_property
    def target(self) -> ModelState | None:
        path = self.cfg.target_checkpoint
        return None if path is None else load_checkpoint(self.base_dir / path)

    def run(self) -> ExperimentReport:
        """The stages, then the evaluation grid, then the arch table."""
        cfg = self.cfg
        write_manifest(cfg.out_dir, self.config, cfg.seed)
        tokenizer = ByteTokenizer()
        report = ExperimentReport(out_dir=cfg.out_dir)

        # only a training stage or eval needs the draft's weights
        if self.losses or cfg.eval is not None:
            state = (load_checkpoint(self.base_dir / cfg.draft_init_checkpoint)
                     if cfg.draft is None else init_model(cfg.draft, cfg.seed))

        for si, stage in enumerate(cfg.stages):
            name = stage.name
            stage_seed = derive_seed(cfg.seed, si) if stage.seed is None else stage.seed
            if stage.kind == "generate":
                instructions = [tokenizer.encode(d.text) for d in
                                load_corpus(self.base_dir / stage.seed_instructions).documents]
                save_alignment_set(generate_alignment_set(
                    self.target, tokenizer, instructions, stage.temperatures,
                    stage.include_greedy, stage.self_prompt_count, seed=stage_seed,
                    max_new_tokens=stage.max_new_tokens),
                    cfg.out_dir / "data" / f"{name}.jsonl", tokenizer)
                continue
            loss_spec = self.losses[name]
            batches = _build_stage_batches(
                stage, tokenizer, stage_seed, self.base_dir, cfg.out_dir,
                self.target if loss_spec.needs_teacher else None)
            try:
                result = train_stage(state, batches, stage.schedule, loss_spec)
            except Exception as exc:
                raise StageError(f"stage {name} failed: {exc}") from exc
            state = result.state
            ckpt = cfg.out_dir / "checkpoints" / f"{name}.sfmd"
            save_checkpoint(state, ckpt)
            report.checkpoints[name] = ckpt
            write_json(cfg.out_dir / "losses" / f"{name}.json",
                       {"stage": name, "losses": result.losses, "steps_run": result.steps_run})

        timing = {} if cfg.eval is None else self.evaluate(state, report)
        if cfg.arch_search is not None:
            write_table(arch_table(cfg.arch_search.hidden_candidates, cfg.arch_search.budget,
                                   self.base, **timing),
                        cfg.out_dir / "arch_search.csv", cfg.out_dir / "arch_search.json")
        return report

    def evaluate(self, draft: ModelState, report: ExperimentReport) -> dict:
        """The benchmark x mode x gamma grid; returns the `arch_table` keywords
        that time its candidates as the grid is timed."""
        ev, target, seed = self.cfg.eval, self.target, self.cfg.seed
        tokenizer = ByteTokenizer()

        exclude = ev.c_hat_mode == "excluded"
        c_hat = (param_count(draft.config, exclude) / param_count(target.config, exclude))

        lat = dict(vars(ev.latency), seed=derive_seed(seed, KEY_LATENCY, 0))
        # AR decoding does not depend on gamma: block-1 latencies serve every row
        l_draft = measure_latency(draft, 1, **lat).median
        l_target_1 = measure_latency(target, 1, **lat).median
        # a grid without modes decodes nothing, so it times no block
        profiles = {gamma: LatencyProfile(l_draft, l_target_1,
                                          measure_latency(target, gamma, **lat).median)
                    for gamma in (ev.gammas if self.specs else [])}

        benchmarks = [_benchmark_prompts(b, tokenizer, derive_seed(seed, KEY_PROMPTS, bi),
                                         self.base_dir)
                      for bi, b in enumerate(ev.benchmarks)]
        out = self.cfg.out_dir
        for bi, (bench, prompts) in enumerate(benchmarks):
            for mi, mode, spec in self.specs:
                stats = decode_prompts(
                    draft, target, prompts, spec, derive_seed(seed, KEY_CELLS, bi, mi, spec.gamma),
                    out / "audit" / f"{bench}_{mode}_g{spec.gamma}.jsonl")
                report.rows.append(metrics_row(
                    bench, mode, ev.temperature if mode == "multinomial" else 0.0,
                    stats, c_hat, profiles[spec.gamma]))

        write_report(report.rows, out / "metrics.csv", out / "metrics.json")
        return dict(target=target.config, l_target_1=l_target_1, exclude=exclude, **lat)


def run_training(config: dict | str | Path, out_dir: str | Path | None = None,
                 seed: int | None = None) -> ExperimentReport:
    """Run a pipeline config: its stages, then its evaluation grid and arch table."""
    return _Run(*load(config, PIPELINE, out_dir, seed)).run()


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
    save_corpus(Corpus([Document(world.instruction(k), "instruction") for k in ft_topics]),
                out / "ft_instructions.jsonl")

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
        return run_training({
            "target_checkpoint": str(target), "draft_init_checkpoint": str(draft),
            "stages": stages,
            "eval": {"benchmarks": [{"name": "held_out", "kind": "instruction",
                                     "alignment": str(out / "held_out.jsonl")}],
                     "modes": ["greedy"], "gammas": [3]},
        }, out / run, seed).rows[0].alpha

    pt_ar = held_out_ar("pt", 0, [])
    ft_target_ar, ft_original_ar = [], []
    for seed in seeds:
        generate = {"name": "generated", "kind": "generate", "seed": 100 + seed,
                    "seed_instructions": str(out / "ft_instructions.jsonl"),
                    "temperatures": [0.6], "include_greedy": False, "max_new_tokens": 48}
        generated = out / f"ft_generated_{seed}" / "data" / "generated.jsonl"
        ft_target_ar.append(held_out_ar(f"ft_generated_{seed}", seed, [generate, stage(
            "ft", "align", 200 + seed, 2e-3, 250, alignment=str(generated))]))
        ft_original_ar.append(held_out_ar(f"ft_original_{seed}", seed, [stage(
            "ft", "align", 200 + seed, 2e-3, 250, alignment=str(out / "original.jsonl"))]))
    return AlignmentStudyResult(pt_ar, ft_target_ar, ft_original_ar)
