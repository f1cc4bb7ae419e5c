"""Gradient training: warmup/decay schedule, Adam with decoupled weight
decay, and the stage runner used for pre-training, continued pre-training
and fine-tuning. Runs are deterministic for a fixed seed, so chained
stages and reruns reproduce bitwise on the same BLAS thread count."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .losses import LossSpec, combined_loss
from .model import ModelState, backward, forward_train

ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainSchedule:
    peak_lr: float
    total_steps: int
    warmup_fraction: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.01
    batch_size: int = 32
    seq_len: int = 256

    def __post_init__(self) -> None:
        if self.peak_lr <= 0:
            raise ConfigError("peak_lr must be positive")
        if self.total_steps <= 0:
            raise ConfigError("total_steps must be positive")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ConfigError("warmup_fraction must lie in [0, 1]")
        for b in (self.beta1, self.beta2):
            if not 0.0 < b < 1.0:
                raise ConfigError("betas must lie in (0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be nonnegative")
        if self.batch_size <= 0 or self.seq_len <= 0:
            raise ConfigError("batch_size and seq_len must be positive")


def lr_at(schedule: TrainSchedule, step: int | float) -> float:
    """Piecewise-linear rate: 0 to peak over the warmup, then linear to 0."""
    if step < 0 or step > schedule.total_steps:
        raise ConfigError(f"step {step} outside [0, {schedule.total_steps}]")
    warmup = schedule.warmup_fraction * schedule.total_steps
    if step <= warmup:
        if warmup == 0:
            return schedule.peak_lr
        return schedule.peak_lr * step / warmup
    return schedule.peak_lr * (schedule.total_steps - step) / (schedule.total_steps - warmup)


@dataclass
class Batch:
    """One training step: next-token inputs/targets, the positions the loss
    supervises, and optional teacher top-k pairs."""
    inputs: np.ndarray                  # (B, S) int
    targets: np.ndarray                 # (B, S) int
    mask: np.ndarray                    # (B, S) bool, True where the loss applies
    teacher: np.ndarray | None = None   # (B, S, k) SPARSE_DTYPE, read only where mask


class AdamW:
    """Adam with decoupled weight decay; deterministic, float32 state.

    The moments of all tensors live in one flat array each (in
    `state.tensors` order), so every moment update is one numpy call."""

    def __init__(self, state: ModelState, schedule: TrainSchedule) -> None:
        self.schedule = schedule
        size = sum(t.size for t in state.tensors.values())
        self.m = np.zeros(size, dtype=state.dtype)
        self.v = np.zeros(size, dtype=state.dtype)
        self._scratch = np.empty(size, dtype=state.dtype)
        self.t = 0

    def step(self, state: ModelState, grads: dict[str, np.ndarray], lr: float) -> None:
        s = self.schedule
        self.t += 1
        b1c = 1.0 - s.beta1 ** self.t
        b2c = 1.0 - s.beta2 ** self.t
        m, v, buf = self.m, self.v, self._scratch
        g = np.concatenate([grads[name].reshape(-1) for name in state.tensors])
        m *= s.beta1
        m += np.multiply(g, 1.0 - s.beta1, out=buf)
        v *= s.beta2
        v += np.multiply(np.square(g, out=buf), 1.0 - s.beta2, out=buf)
        if lr == 0.0:
            return
        # p -= lr * ((m / b1c) / (sqrt(v / b2c) + eps)), then p -= (lr * wd) * p
        den = np.sqrt(np.divide(v, b2c, out=buf), out=buf)
        den += ADAM_EPS
        update = np.divide(np.divide(m, b1c, out=g), den, out=g)
        update *= lr
        start = 0
        for p in state.tensors.values():
            p -= update[start:start + p.size].reshape(p.shape)
            if s.weight_decay != 0.0:
                p -= np.multiply(p, lr * s.weight_decay,
                                 out=buf[start:start + p.size].reshape(p.shape))
            start += p.size


def loss_and_grads(state: ModelState, batch: Batch, loss_spec: LossSpec):
    """Forward + loss + full backprop; returns (loss, grads, parts).

    The loss is a mean over the supervised positions only: their logits,
    targets and teacher pairs are gathered once, and the other rows of
    dloss/dlogits are zero."""
    logits, tape = forward_train(state, batch.inputs)
    B, S, V = logits.shape
    flat_logits = logits.reshape(B * S, V)
    rows = np.flatnonzero(batch.mask)
    teacher = None if batch.teacher is None else batch.teacher.reshape(B * S, -1)[rows]
    loss, drows, parts = combined_loss(flat_logits[rows], batch.targets.reshape(-1)[rows],
                                       loss_spec, teacher)
    dflat = np.zeros_like(flat_logits)
    dflat[rows] = drows
    grads = backward(state, tape, dflat.reshape(B, S, V))
    return loss, grads, parts


@dataclass
class TrainResult:
    state: ModelState
    losses: list[float] = field(default_factory=list)
    steps_run: int = 0


def train_stage(
    state: ModelState,
    batches,
    schedule: TrainSchedule,
    loss_spec: LossSpec,
) -> TrainResult:
    """Run one training stage over an iterator of batches.

    The input state is not mutated; the returned state is a trained copy that
    can seed the next stage directly. Exhausting `batches` before
    `schedule.total_steps` truncates the stage with a warning.
    """
    state = ModelState(
        config=state.config,
        tensors={k: v.copy() for k, v in state.tensors.items()},
    )
    opt = AdamW(state, schedule)
    losses: list[float] = []
    it = iter(batches)
    step = 0
    for step in range(1, schedule.total_steps + 1):
        try:
            batch = next(it)
        except StopIteration:
            warnings.warn(
                f"corpus exhausted after {step - 1} of {schedule.total_steps} steps; "
                "stage truncated", stacklevel=2)
            step -= 1
            break
        loss, grads, _ = loss_and_grads(state, batch, loss_spec)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss {loss!r} at step {step}")
        opt.step(state, grads, lr_at(schedule, step))
        losses.append(loss)
    state.check_finite()
    return TrainResult(state=state, losses=losses, steps_run=step)
