"""Lossless speculative decoding.

A draft model proposes a block of tokens, the target verifies all of them
in one batched forward, and each proposal is accepted or rejected by the
ratio rule: accept x with probability min(1, p(x)/q(x)); on rejection,
resample from the residual max(0, p - q) renormalized. A fully accepted
block appends one bonus token from the target's next distribution, so a
block always emits accepted + 1 tokens.

A block costs `proposal_len` draft forwards and one target forward: each
proposal step first feeds the draft whatever it has not seen yet, so the
last proposal (and, after a fully accepted block, the bonus token) is fed
at the start of the next block. Greedy verification compares the draft's
argmax ids with the target's argmax ids, so its output is token for token
the target's own greedy decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import read_jsonl, write_jsonl
from .errors import ConfigError, ContractError, LengthError, VocabMismatchError
from .metrics import DecodeStats
from .model import KVCache, ModelState, forward
from .sampling import SamplingPolicy, distribution, sample_from_dist

DIST_SUM_TOL = 1e-4
# the schema of an audit-log line (config.py gives the notation)
AUDIT = {"proposed": [int], "emitted": [int], "u": [float]}


@dataclass(frozen=True)
class SpecConfig:
    gamma: int
    policy: SamplingPolicy
    max_new_tokens: int
    eos_id: int | None = None

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise ConfigError("gamma must be >= 1")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be >= 1")


@dataclass
class BlockResult:
    proposed: list[int]
    emitted: list[int]  # the accepted prefix of `proposed`, then one more token
    u_values: list[float]

    @property
    def accepted_count(self) -> int:
        return len(self.emitted) - 1


@dataclass
class SpecSession:
    draft: ModelState
    target: ModelState
    committed: list[int]
    rng: np.random.Generator | None
    draft_cache: KVCache
    target_cache: KVCache


def start_session(
    draft: ModelState,
    target: ModelState,
    prompt: list[int],
    policy: SamplingPolicy | None = None,
    rng: np.random.Generator | None = None,
) -> SpecSession:
    """Create a decode session over a shared-vocabulary draft/target pair;
    a multinomial `policy` needs the `rng` its blocks draw from."""
    if draft.config.vocab_size != target.config.vocab_size:
        raise VocabMismatchError(
            f"draft vocab {draft.config.vocab_size} != target vocab {target.config.vocab_size}")
    prompt = [int(t) for t in prompt]
    if not prompt:
        raise LengthError("prompt must contain at least one token")
    if policy is not None:
        policy.check_rng(rng)
    return SpecSession(
        draft=draft,
        target=target,
        committed=prompt,
        rng=rng,
        draft_cache=KVCache(draft.config, dtype=draft.dtype),
        target_cache=KVCache(target.config, dtype=target.dtype),
    )


def _check_normalized(p: np.ndarray, name: str) -> None:
    s = float(np.add.reduce(p))
    # written so that a NaN sum, from a NaN entry, fails the check too
    if not abs(s - 1.0) <= DIST_SUM_TOL:
        raise ContractError(f"{name} distribution sums to {s}, not 1")
    if np.minimum.reduce(p) < 0:
        raise ContractError(f"{name} distribution has negative entries")


def accept_step(p_target: np.ndarray, q_draft: np.ndarray, x: int,
                u: float) -> np.ndarray | None:
    """The ratio rule for one proposed token x.

    Returns None when u <= min(1, p(x)/q(x)) accepts x, and otherwise the
    renormalized residual max(0, p - q) to resample from. Raises
    ContractError for a distribution that is not normalized, negative or
    NaN, and for an x outside the vocabulary or of zero draft probability.
    """
    p = np.asarray(p_target, dtype=np.float64)
    q = np.asarray(q_draft, dtype=np.float64)
    _check_normalized(p, "target")
    _check_normalized(q, "draft")
    x = int(x)
    if not 0 <= x < q.size:
        raise ContractError(f"proposed token {x} is outside the vocabulary [0, {q.size})")
    if q[x] <= 0:
        raise ContractError("proposed token has zero draft probability")
    if u <= min(1.0, p[x] / q[x]):
        return None
    residual = np.maximum(p - q, 0.0)
    total = residual.sum()
    if total <= 0:
        # p == q up to rounding: rejection is a measure-zero event there,
        # fall back to the target distribution
        residual = p.copy()
        total = residual.sum()
    return residual / total


def _catch_up(state: ModelState, cache: KVCache, tokens: list[int]) -> np.ndarray:
    """Feed the tokens the cache has not seen; returns their logits rows."""
    logits, _ = forward(state, tokens[cache.filled_len:], cache)
    return logits


def _rollback(session: SpecSession) -> None:
    """Drop cached positions from the last committed token on, so both
    caches hold no position past what is committed and the next forward
    always has at least that token to feed."""
    frontier = len(session.committed) - 1
    for cache in (session.draft_cache, session.target_cache):
        cache.truncate(min(cache.filled_len, frontier))


def speculate_block(session: SpecSession, spec: SpecConfig, proposal_len: int) -> BlockResult:
    """One propose/verify round of `proposal_len` draft tokens (`spec.gamma`,
    or fewer for a partial final budget); emits the accepted prefix plus one
    more token. Multinomial verification builds the target's
    `proposal_len + 1` distributions with one `distribution` call over the
    block's logits rows; each u and each draw comes from the session's rng
    in decision order.
    """
    if proposal_len < 0:
        raise ConfigError("proposal length must be nonnegative")
    policy = spec.policy
    policy.check_rng(session.rng)
    greedy = policy.mode == "greedy"
    m = len(session.committed)
    for st, label in ((session.draft, "draft"), (session.target, "target")):
        if m + proposal_len + 1 > st.config.max_seq_len:
            raise LengthError(f"no room for a {proposal_len}-token block in the {label} context")

    # the draft proposes proposal_len tokens, one forward each
    proposed: list[int] = []
    q_dists: list[np.ndarray] = []
    for _ in range(proposal_len):
        logits = _catch_up(session.draft, session.draft_cache, session.committed + proposed)[-1]
        if greedy:
            proposed.append(int(logits.argmax()))
        else:
            q_dists.append(distribution(logits, policy))
            proposed.append(sample_from_dist(q_dists[-1], session.rng))

    # the target verifies the whole block in one forward
    t_logits = _catch_up(session.target, session.target_cache,
                         session.committed + proposed)[-(proposal_len + 1):]
    u_values: list[float] = []
    if greedy:
        best = t_logits.argmax(axis=-1)
        accepted = next((j for j, tok in enumerate(proposed) if tok != best[j]), proposal_len)
        emitted = proposed[:accepted] + [int(best[accepted])]
    else:
        p_dists = distribution(t_logits, policy)
        emitted = []
        for j, tok in enumerate(proposed):
            u_values.append(float(session.rng.random()))
            residual = accept_step(p_dists[j], q_dists[j], tok, u_values[-1])
            if residual is not None:
                emitted.append(sample_from_dist(residual, session.rng))
                break
            emitted.append(tok)
        else:
            # whole block accepted: bonus token from the target's next distribution
            emitted.append(sample_from_dist(p_dists[proposal_len], session.rng))

    session.committed.extend(emitted)
    _rollback(session)
    return BlockResult(proposed=proposed, emitted=emitted, u_values=u_values)


def decode_stats(gamma: int, blocks: list[BlockResult]) -> DecodeStats:
    """The accepted counts and proposal lengths of `blocks` at nominal block size `gamma`."""
    return DecodeStats(gamma=gamma, blocks=[b.accepted_count for b in blocks],
                       proposal_lens=[len(b.proposed) for b in blocks])


@dataclass
class GenerateResult:
    tokens: list[int]
    blocks: list[BlockResult]  # `decode_stats(spec.gamma, blocks)` gives their stats


def generate(session: SpecSession, spec: SpecConfig) -> GenerateResult:
    """Speculate blocks until the budget or eos; returns the new tokens and blocks.

    A partial final budget shrinks the proposal length of the last block so
    a generation never overshoots max_new_tokens.
    """
    start_len = len(session.committed)
    blocks: list[BlockResult] = []
    if start_len + 1 > session.target.config.max_seq_len:
        raise LengthError("context full: no room to emit a single token")
    produced = 0
    while produced < spec.max_new_tokens:
        remaining = spec.max_new_tokens - produced
        room = min(st.config.max_seq_len for st in (session.draft, session.target))
        room -= len(session.committed) + 1
        if room < 0:
            raise LengthError("context full during generation")
        block = speculate_block(session, spec, proposal_len=min(spec.gamma, remaining - 1, room))
        blocks.append(block)
        produced += len(block.emitted)
        if spec.eos_id is not None and spec.eos_id in block.emitted:
            break

    new_tokens = session.committed[start_len:]
    if spec.eos_id is not None and spec.eos_id in new_tokens:
        # tokens conditioned on context past the eos are never used again
        new_tokens = new_tokens[:new_tokens.index(spec.eos_id) + 1]
        del session.committed[start_len + len(new_tokens):]
        _rollback(session)

    return GenerateResult(tokens=new_tokens, blocks=blocks)


def write_audit_log(path: str | Path, blocks: list[BlockResult]) -> None:
    """One JSON line per block with the fields needed to replay decisions."""
    write_jsonl(path, ({"proposed": b.proposed, "emitted": b.emitted, "u": b.u_values}
                       for b in blocks))


def read_audit_log(path: str | Path) -> list[BlockResult]:
    """The blocks `write_audit_log` wrote (an older log's `accepted_count`,
    always `len(emitted) - 1`, is ignored); damage raises DataError."""
    return [BlockResult(r.proposed, r.emitted, r.u)
            for r in read_jsonl(path, AUDIT)]
