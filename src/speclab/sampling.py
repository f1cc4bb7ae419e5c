"""Sampling policies and token-level decoding helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NumericError
from .model import KVCache, ModelState, forward

MODES = frozenset({"greedy", "multinomial"})  # of a SamplingPolicy


@dataclass(frozen=True)
class SamplingPolicy:
    """How tokens are drawn from logits.

    Greedy ignores the temperature entirely and draws no random numbers.
    Multinomial draws from softmax(logits / temperature) with a generator
    the caller passes, so identical (policy, state, context, rng state)
    produce identical samples.
    """
    mode: str = "greedy"
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown sampling mode {self.mode!r}")
        if self.mode == "multinomial" and self.temperature <= 0:
            raise ConfigError("temperature must be positive")

    def check_rng(self, rng: np.random.Generator | None) -> None:
        """Raise ConfigError if the policy samples and `rng` is None."""
        if rng is None and self.mode == "multinomial":
            raise ConfigError("multinomial sampling needs an rng")


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """softmax(logits / temperature) over the last axis, in float64 and
    stable for any finite logits.

    Each row is normalized on its own, with the same float operations as
    on a lone 1-D row, so a `(rows, V)` block gives, bit for bit, the rows
    that one call per row gives.
    """
    z = np.divide(logits, temperature, dtype=np.float64)
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def distribution(logits: np.ndarray, policy: SamplingPolicy) -> np.ndarray:
    """The multinomial verification distribution of each logits row (the
    last axis): the temperature-scaled softmax. A `(rows, V)` block gives
    the rows that one call per row gives. Greedy decoding compares argmax
    ids and never builds a distribution."""
    return softmax(logits, policy.temperature)


def sample_from_dist(p: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from the 1-D distribution `p`: the first index whose
    cumulative mass exceeds one uniform draw u. That index always carries
    mass; only when u lands at or past the total mass (rounding) is the
    draw the last index that carries mass, so no zero-probability token is
    ever returned. Raises ContractError for a `p` that is not 1-D or that
    has no positive entry.
    """
    if p.ndim != 1:
        raise ContractError(f"sample_from_dist needs a 1-D distribution, got shape {p.shape}")
    idx = int(np.add.accumulate(p).searchsorted(rng.random(), side="right"))
    if idx < p.size and p[idx] > 0:
        return idx
    support = np.flatnonzero(p > 0)
    if support.size == 0:
        raise ContractError("distribution has no positive entry to sample")
    return int(min(idx, support[-1]))


def sample(logits: np.ndarray, policy: SamplingPolicy, rng: np.random.Generator) -> int:
    """Draw one token from a logits row under the policy; raises
    NumericError if the row is not finite."""
    logits = np.asarray(logits)
    if not np.isfinite(logits).all():
        raise NumericError("cannot sample from non-finite logits")
    return _draw(logits, policy, rng)


def _draw(logits: np.ndarray, policy: SamplingPolicy, rng: np.random.Generator) -> int:
    """`sample` of a row that `forward` has already checked is finite."""
    if policy.mode == "greedy":
        return int(logits.argmax())
    return sample_from_dist(softmax(logits, policy.temperature), rng)


def autoregressive_decode(
    state: ModelState,
    prompt: list[int],
    policy: SamplingPolicy,
    max_new_tokens: int,
    rng: np.random.Generator | None = None,
    eos_id: int | None = None,
) -> list[int]:
    """Plain one-token-per-forward generation, the target-only baseline;
    a multinomial `policy` needs the `rng` it draws from."""
    policy.check_rng(rng)
    cache = KVCache(state.config, dtype=state.dtype)
    out: list[int] = []
    pending = list(prompt)
    for _ in range(max_new_tokens):
        logits, _ = forward(state, pending, cache)
        tok = _draw(logits[-1], policy, rng)
        out.append(tok)
        if eos_id is not None and tok == eos_id:
            break
        pending = [tok]
    return out
