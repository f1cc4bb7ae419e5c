"""The benchmark's three workloads, driven through speclab's public API.

Each workload has a `setup` that builds everything a pass needs and a
`run_pass` that does one closed-loop pass over a fixed input set, one
prompt or one training stage at a time. The workload seed only sets the
sampling RNG streams, the prompt order and (for `train_align`) the
alignment-set sampling and batch order. Every pass repeats the same work
with the same streams, so a piece's fastest repetition measures the code
and not a slow spell of the host. Outputs are checked as they are
produced; every check counts towards `attempted`, every miss towards
`failed`.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from speclab import checkpoint, data
from speclab.experiment import run_training
from speclab.model import ModelConfig, ModelState, forward, init_model, param_count
from speclab.distill import read_sparse_dataset
from speclab.sampling import SamplingPolicy, autoregressive_decode
from speclab.specdec import SpecConfig, generate, start_session
from speclab.synthetic import TopicWorld
from speclab.tokenizer import ByteTokenizer

FIXTURES = Path(__file__).resolve().parent / "fixtures"
TEMPERATURE = 0.6
MODES = ("greedy", "sample")
WARMUP_TOKENS = 16

TOK = ByteTokenizer()
WORLD = TopicWorld(n_topics=32, seed=0)
N_FT_TOPICS = 24


def policy(mode: str) -> SamplingPolicy:
    if mode == "greedy":
        return SamplingPolicy("greedy")
    return SamplingPolicy("multinomial", temperature=TEMPERATURE)


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


@dataclass
class Block:
    accepted: int
    proposed: int
    emitted: int


@dataclass
class PassResult:
    """One pass: the wall seconds of each timed piece and each decode's output.

    Piece keys are `ar/<mode>/<prompt>` and `sd/<mode>/<prompt>` for the
    decodes, and `gen` and `train` for the training pipeline. Every pass
    does the same pieces with the same inputs and RNG streams.
    """
    times: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    blocks: dict = field(default_factory=lambda: {m: [] for m in MODES})
    sfkd_bytes: int = 0


@dataclass
class DecodeSet:
    """A draft/target pair and the prompts it decodes, with their budgets."""
    draft: ModelState
    target: ModelState
    prompts: list[list[int]]
    max_new: list[int]
    gamma: int
    eos_id: int | None

    @property
    def c_hat(self) -> float:
        return param_count(self.draft.config) / param_count(self.target.config)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _valid_output(out: list[int], max_new: int, vocab: int, eos_id: int | None) -> bool:
    if not 1 <= len(out) <= max_new or min(out) < 0 or max(out) >= vocab:
        return False
    if eos_id is not None and eos_id in out:
        return out.index(eos_id) == len(out) - 1
    return len(out) == max_new


def decode_pass(ds: DecodeSet, seed: int, pass_idx: int, res: PassResult,
                checks: Checks) -> None:
    """Decode every prompt in seeded order with AR and SD, greedy and sampled.

    AR and SD of one prompt run back to back, and which of the two goes
    first alternates between prompts, so both see the same machine drift.
    """
    order = _rng(seed, pass_idx).permutation(len(ds.prompts))
    vocab = ds.target.config.vocab_size
    for j, i in enumerate(order):
        i = int(i)
        prompt, max_new = ds.prompts[i], ds.max_new[i]
        for mi, mode in enumerate(MODES):
            pol = policy(mode)
            spec = SpecConfig(gamma=ds.gamma, policy=pol, max_new_tokens=max_new,
                              eos_id=ds.eos_id)

            def run_ar() -> list[int]:
                t0 = time.perf_counter()
                out = autoregressive_decode(ds.target, prompt, pol, max_new,
                                            rng=_rng(seed, i, mi, 0), eos_id=ds.eos_id)
                res.times[f"ar/{mode}/{i}"] = time.perf_counter() - t0
                return out

            def run_sd():
                t0 = time.perf_counter()
                session = start_session(ds.draft, ds.target, prompt, policy=pol,
                                        rng=_rng(seed, i, mi, 1))
                out = generate(session, spec)
                res.times[f"sd/{mode}/{i}"] = time.perf_counter() - t0
                return out

            if j % 2 == 0:
                ar_out, sd_out = run_ar(), run_sd()
            else:
                sd_out = run_sd()
                ar_out = run_ar()
            res.outputs[f"ar/{mode}/{i}"] = ar_out
            res.outputs[f"sd/{mode}/{i}"] = sd_out.tokens
            res.blocks[mode].extend(Block(b.accepted_count, len(b.proposed), len(b.emitted))
                                    for b in sd_out.blocks)
            if mode == "greedy":
                checks.check(sd_out.tokens == ar_out, f"greedy SD != AR on prompt {i}")
            else:
                checks.check(_valid_output(ar_out, max_new, vocab, ds.eos_id)
                             and _valid_output(sd_out.tokens, max_new, vocab, ds.eos_id),
                             f"invalid sampled output on prompt {i}")


def warm_up(ds: DecodeSet) -> None:
    """A short AR and SD decode of the first prompt per mode, so lazy
    set-up is not timed."""
    prompt, max_new = ds.prompts[0], WARMUP_TOKENS
    for mode in MODES:
        pol = policy(mode)
        autoregressive_decode(ds.target, prompt, pol, max_new, rng=_rng(0), eos_id=ds.eos_id)
        generate(start_session(ds.draft, ds.target, prompt, policy=pol, rng=_rng(0)),
                 SpecConfig(gamma=ds.gamma, policy=pol, max_new_tokens=max_new,
                            eos_id=ds.eos_id))


def load_fixture(name: str, checks: Checks) -> ModelState:
    """Load a committed desk checkpoint; a digest mismatch is a failure."""
    path = FIXTURES / name
    with open(FIXTURES / "desk.json", encoding="utf-8") as f:
        want = json.load(f)["files"][name]["sha256"]
    checks.check(hashlib.sha256(path.read_bytes()).hexdigest() == want,
                 f"fixture {name} does not match its recorded sha256")
    return checkpoint.load_checkpoint(path)


def chat_prompts(topics) -> list[list[int]]:
    return [data.chat_prompt(TOK, list(WORLD.instruction(k))) for k in topics]


# --- decode_desk -----------------------------------------------------------

class DecodeDesk:
    """The trained desk pair (32x2 draft, 64x2 target) on the 32 topic
    instructions: tiny S=1 forwards, so numpy call overhead dominates."""

    def setup(self, work: Path, seed: int, checks: Checks) -> DecodeSet:
        ds = DecodeSet(draft=load_fixture("desk_draft.sfmd", checks),
                       target=load_fixture("desk_target.sfmd", checks),
                       prompts=chat_prompts(range(WORLD.n_topics)),
                       max_new=[48] * WORLD.n_topics, gamma=3, eos_id=TOK.eos_id)
        warm_up(ds)
        return ds

    def run_pass(self, ds: DecodeSet, seed: int, pass_idx: int, checks: Checks) -> PassResult:
        res = PassResult()
        decode_pass(ds, seed, pass_idx, res, checks)
        return res

    def decode_set(self, ds: DecodeSet) -> DecodeSet:
        return ds


# --- decode_wide -----------------------------------------------------------

WIDE_VOCAB = 264
WIDE_RANK = 32
WIDE_SHARPNESS = 4.0
WIDE_EPS = 0.17
WIDE_PAIR_SEED = 12345
WIDE_PROMPT_SEED = 2024
WIDE_PROMPTS = 4
WIDE_TARGET = ModelConfig(hidden_size=256, intermediate_size=512, n_layers=4, n_heads=8,
                          n_kv_heads=2, vocab_size=WIDE_VOCAB, max_seq_len=512)
WIDE_DRAFT = ModelConfig(hidden_size=64, intermediate_size=128, n_layers=2, n_heads=2,
                         n_kv_heads=1, vocab_size=WIDE_VOCAB, max_seq_len=512)


def _bigram_factors() -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm token codes A (V, r) and output map B (r, V); A @ B is the
    bigram logit table both wide models share."""
    rng = np.random.default_rng(WIDE_PAIR_SEED)
    a = rng.standard_normal((WIDE_VOCAB, WIDE_RANK))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = rng.standard_normal((WIDE_RANK, WIDE_VOCAB)) * (WIDE_SHARPNESS / np.sqrt(WIDE_RANK))
    return a, b


def _bigram_model(cfg: ModelConfig, seed: int, a: np.ndarray, b: np.ndarray) -> ModelState:
    """Random layers whose residual writes are scaled by WIDE_EPS around an
    embed/head pair that factors the bigram table through an orthonormal
    basis: with the layers removed, logits are exactly a[t] @ b."""
    state = init_model(cfg, seed)
    h = cfg.hidden_size
    basis, _ = np.linalg.qr(np.random.default_rng(seed + 1).standard_normal((h, WIDE_RANK)))
    t = state.tensors
    t["embed"] = (np.sqrt(h) * a @ basis.T).astype(np.float32)
    t["head"] = (basis @ b).astype(np.float32)
    t["final_norm"][:] = 1.0 / np.sqrt(h)
    for l in range(cfg.n_layers):
        t[f"layers.{l}.wo"] *= WIDE_EPS
        t[f"layers.{l}.w_down"] *= WIDE_EPS
    return state


def _bigram_prompts(a: np.ndarray, b: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """A fixed pool of Markov-chain prompts of 192-224 tokens drawn from the
    shared bigram, each with a budget of 96-128 new tokens."""
    z = a @ b
    p = np.exp(z - z.max(axis=1, keepdims=True))
    cum = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
    rng = np.random.default_rng(WIDE_PROMPT_SEED)
    prompts, budgets = [], []
    for _ in range(WIDE_PROMPTS):
        n = int(rng.integers(192, 225))
        toks = [int(rng.integers(WIDE_VOCAB))]
        for u in rng.random(n - 1):
            toks.append(min(int(np.searchsorted(cum[toks[-1]], u)), WIDE_VOCAB - 1))
        prompts.append(toks)
        budgets.append(int(rng.integers(96, 129)))
    return prompts, budgets


class DecodeWide(DecodeDesk):
    """A 256x4 GQA target against a 64x2 draft (c_hat ~0.046) on ~200-token
    prompts: BLAS matmuls and the long KV prefix dominate, so a change that
    only trims dispatch overhead should barely move it."""

    def setup(self, work: Path, seed: int, checks: Checks) -> DecodeSet:
        a, b = _bigram_factors()
        prompts, budgets = _bigram_prompts(a, b)
        ds = DecodeSet(draft=_bigram_model(WIDE_DRAFT, 2, a, b),
                       target=_bigram_model(WIDE_TARGET, 1, a, b),
                       prompts=prompts, max_new=budgets, gamma=4, eos_id=None)
        warm_up(ds)
        return ds


# --- train_align -----------------------------------------------------------

TRAIN_BATCH = 16
TRAIN_SEQ = 64


@dataclass
class TrainSet:
    work: Path
    config: Path
    draft_init: ModelState
    target: ModelState
    decode: DecodeSet


class TrainAlign:
    """The paper's draft recipe on the desk pair through
    `experiment.run_training`: target-generated alignment data, an lm
    pre-train stage, then a CE+KL sparse-logit align stage with the desk
    target as teacher, and finally the aligned draft scored by decoding
    the 8 held-out topics."""

    def setup(self, work: Path, seed: int, checks: Checks) -> TrainSet:
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        draft = load_fixture("desk_draft.sfmd", checks)
        target = load_fixture("desk_target.sfmd", checks)
        data.save_corpus(WORLD.pretrain_corpus(repeats=10, seed=3), work / "pretrain.jsonl")
        sched = {"peak_lr": 1e-3, "batch_size": TRAIN_BATCH, "seq_len": TRAIN_SEQ}
        cfg = {
            "target_checkpoint": str(FIXTURES / "desk_target.sfmd"),
            "draft_init_checkpoint": str(FIXTURES / "desk_draft.sfmd"),
            "stages": [
                {"name": "pretrain", "kind": "lm", "corpus": "pretrain.jsonl", "epochs": 2,
                 "schedule": dict(sched, total_steps=16), "loss": {"CE": 1.0}},
                {"name": "align", "kind": "align", "alignment": "align.jsonl", "k": 16,
                 "schedule": dict(sched, total_steps=24), "loss": {"CE": 0.5, "KL": 0.5}},
            ],
        }
        config = work / "config.json"
        config.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        held_out = range(N_FT_TOPICS, WORLD.n_topics)
        ds = DecodeSet(draft=draft, target=target, prompts=chat_prompts(held_out),
                       max_new=[48] * len(held_out), gamma=3, eos_id=TOK.eos_id)
        warm_up(ds)
        return TrainSet(work=work, config=config, draft_init=draft, target=target, decode=ds)

    def run_pass(self, ts: TrainSet, seed: int, pass_idx: int, checks: Checks) -> PassResult:
        res = PassResult()
        out = ts.work / "out"
        t0 = time.perf_counter()
        samples = data.generate_alignment_set(
            ts.target, TOK, WORLD.seed_instructions(list(range(N_FT_TOPICS))),
            temperatures=[TEMPERATURE], include_greedy=False, seed=seed, max_new_tokens=48)
        data.save_alignment_set(samples, ts.work / "align.jsonl", TOK)
        t1 = time.perf_counter()
        report = run_training(ts.config, out_dir=out, seed=seed)
        res.times["gen"], res.times["train"] = t1 - t0, time.perf_counter() - t1
        res.sfkd_bytes = (out / "distill" / "align.sfkd").stat().st_size
        draft = self._check_outputs(out, report, samples, checks)
        ts.decode.draft = draft if draft is not None else ts.draft_init
        decode_pass(ts.decode, seed, pass_idx, res, checks)
        return res

    def decode_set(self, ts: TrainSet) -> DecodeSet:
        return ts.decode

    @staticmethod
    def _check_outputs(out: Path, report, samples, checks: Checks) -> ModelState | None:
        for name in report.checkpoints:
            with open(out / "losses" / f"{name}.json", encoding="utf-8") as f:
                losses = json.load(f)["losses"]
            checks.check(bool(losses) and bool(np.isfinite(losses).all()),
                         f"stage {name} has non-finite or no losses")
        draft = checkpoint.load_checkpoint(report.checkpoints["align"])
        logits, _ = forward(draft, chat_prompts([0])[0])
        finite = checks.check(bool(np.isfinite(logits).all()),
                              "final checkpoint gives a non-finite forward")
        _, _, items = read_sparse_dataset(out / "distill" / "align.sfkd")
        want = [data.chat_sequence(TOK, s)[0][:TRAIN_SEQ + 1] for s in samples]
        checks.check(len(items) == len(want) and all(
            toks == w and len(recs) == len(toks) - 1
            for (toks, recs), w in zip(items, want)),
            ".sfkd does not hold one record per next-token position")
        return draft if finite else None


WORKLOADS = {"decode_desk": DecodeDesk, "decode_wide": DecodeWide, "train_align": TrainAlign}
