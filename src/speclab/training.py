"""Gradient training: warmup/decay schedule, Adam with decoupled weight
decay, and the stage runner used for pre-training, continued pre-training
and fine-tuning. Runs are deterministic for a fixed seed, so chained
stages and reruns reproduce bitwise on the same BLAS thread count.

Under glibc, a stage first sets the process's allocator policy so that
the megabytes each step frees stay mapped for the next step, instead of
going back to the kernel and being faulted in again page by page; the
policy is process-wide and changes no float operation."""

from __future__ import annotations

import ctypes
import functools
import platform
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, NumericError
from .losses import LossSpec, combined_loss
from .model import ModelState, backward, forward_train

ADAM_EPS = 1e-8

# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


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


@dataclass(frozen=True)
class Batch:
    """One training step: the inputs, the positions the loss supervises,
    and for those positions alone, in row-major order, the next tokens and
    optional teacher top-k pairs (other row counts raise ContractError)."""
    inputs: np.ndarray                  # (B, S) int
    mask: np.ndarray                    # (B, S) bool, True where the loss applies
    gold: np.ndarray                    # (P,) int, P = mask.sum()
    teacher: np.ndarray | None = None   # (P, k) SPARSE_DTYPE

    def __post_init__(self) -> None:
        p = int(np.count_nonzero(self.mask))
        if (self.mask.shape != self.inputs.shape or self.gold.shape != (p,)
                or self.teacher is not None and len(self.teacher) != p):
            raise ContractError(f"a batch's gold and teacher rows must match its {p} "
                                "supervised positions")


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

    The loss is a mean over the supervised positions only: their logits
    rows are gathered once and meet `batch.gold` and `batch.teacher` row
    for row, and the other rows of dloss/dlogits are zero."""
    logits, tape = forward_train(state, batch.inputs)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    rows = np.flatnonzero(batch.mask)
    loss, drows, parts = combined_loss(flat_logits[rows], batch.gold, loss_spec, batch.teacher)
    dflat = np.zeros_like(flat_logits)
    dflat[rows] = drows
    grads = backward(state, tape, dflat.reshape(logits.shape))
    return loss, grads, parts


@functools.cache
def _keep_freed_memory() -> None:
    """Keep the heap memory this process frees mapped, for reuse (glibc only).

    A training step frees megabytes of transient arrays, such as the
    (B, H, S, S) attention and (B, S, V) logits buffers. Under glibc's
    defaults each is mmapped or trimmed off the heap top when freed, so the
    next step faults it back in page by page. Serving every request below
    glibc's ceiling of 32 MiB (64-bit) from the heap and never trimming the
    heap keeps those pages mapped. The policy is process-wide: it holds for
    every later allocation of the process, and it is set once."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long))
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


@dataclass
class TrainResult:
    state: ModelState
    losses: list[float] = field(default_factory=list)


def train_stage(
    state: ModelState,
    batches,
    schedule: TrainSchedule,
    loss_spec: LossSpec,
) -> TrainResult:
    """Run one training stage over an iterator of batches.

    The input state is not mutated; the returned state is a trained copy that
    can seed the next stage directly. Exhausting `batches` before
    `schedule.total_steps` truncates the stage with a warning. Under glibc
    the first call sets the allocator policy of `_keep_freed_memory`.
    """
    _keep_freed_memory()
    state = ModelState(
        config=state.config,
        tensors={k: v.copy() for k, v in state.tensors.items()},
    )
    opt = AdamW(state, schedule)
    losses: list[float] = []
    it = iter(batches)
    for step in range(1, schedule.total_steps + 1):
        try:
            batch = next(it)
        except StopIteration:
            warnings.warn(
                f"corpus exhausted after {step - 1} of {schedule.total_steps} steps; "
                "stage truncated", stacklevel=2)
            break
        loss, grads, _ = loss_and_grads(state, batch, loss_spec)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss {loss!r} at step {step}")
        opt.step(state, grads, lr_at(schedule, step))
        losses.append(loss)
    state.check_finite()
    return TrainResult(state=state, losses=losses)
