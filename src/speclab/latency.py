"""Wall-clock latency harness for draft/target forwards.

Measures the median forward time at a given block size after warmup
discards, keeping the raw samples for dispersion reporting. Measurements
must run exclusively (no concurrent load) to mean anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .metrics import LatencyProfile
from .model import KVCache, ModelConfig, ModelState, forward

MIN_REPS = 5
MIN_TICKS = 10
PREFILL = 16


@dataclass
class LatencyRun:
    samples: list[float] = field(default_factory=list)
    flagged: bool = False  # a sample under MIN_TICKS ticks of the clock

    @property
    def median(self) -> float:
        return float(np.median(self.samples))


def check_block(config: ModelConfig, block_size: int) -> None:
    """Raise ConfigError unless a model of `config` can time a block of
    `block_size` tokens after `PREFILL` cached ones."""
    if block_size < 1:
        raise ConfigError("block_size must be >= 1")
    if PREFILL + block_size > config.max_seq_len:
        raise ConfigError(f"prefill plus block exceeds max_seq_len: {PREFILL} + {block_size} "
                          f"> {config.max_seq_len}")


def measure_latency(state: ModelState, block_size: int, warmup: int = 3, reps: int = 10, *,
                    seed: int) -> LatencyRun:
    """Median wall-clock seconds of one forward over `block_size` tokens.

    The model sees `PREFILL` cached context tokens first, mirroring decode
    conditions; `seed` draws the context and block tokens. The samples and
    the resolution that judges them come from one clock, `time.perf_counter`.
    """
    if reps < MIN_REPS:
        raise ConfigError(f"need at least {MIN_REPS} repetitions")
    if warmup < 0:
        raise ConfigError("warmup must be nonnegative")
    cfg = state.config
    check_block(cfg, block_size)
    rng = np.random.default_rng(seed)
    context = rng.integers(0, cfg.vocab_size, size=PREFILL).tolist()
    block = rng.integers(0, cfg.vocab_size, size=block_size).tolist()

    resolution = time.get_clock_info("perf_counter").resolution
    run = LatencyRun()
    for i in range(warmup + reps):
        cache = KVCache(cfg, dtype=state.dtype)
        forward(state, context, cache)
        t0 = time.perf_counter()
        forward(state, block, cache)
        elapsed = time.perf_counter() - t0
        if i >= warmup:
            run.samples.append(elapsed)
    run.flagged = min(run.samples) < MIN_TICKS * resolution
    return run


def build_latency_profile(
    draft: ModelState,
    target: ModelState,
    gamma: int,
    warmup: int = 3,
    reps: int = 10,
    seed: int = 0,
) -> tuple[LatencyProfile, dict[str, LatencyRun]]:
    """Measure the three latencies the speedup expressions need."""
    runs = {
        "draft_1": measure_latency(draft, 1, warmup, reps, seed=seed),
        "target_1": measure_latency(target, 1, warmup, reps, seed=seed),
        "target_gamma": measure_latency(target, gamma, warmup, reps, seed=seed),
    }
    profile = LatencyProfile(
        l_draft=runs["draft_1"].median,
        l_target_1=runs["target_1"].median,
        l_target_gamma=runs["target_gamma"].median,
    )
    return profile, runs
