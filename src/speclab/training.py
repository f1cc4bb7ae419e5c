"""Gradient training: warmup/decay schedule, Adam with decoupled weight
decay, and the stage runner used for pre-training, continued pre-training
and fine-tuning. Runs are deterministic for a fixed seed, so chained
stages and reruns reproduce bitwise on the same BLAS thread count.

Where a step's rows split into several shards (`shards.count`), each
step runs them on this process and forked workers at once. Every row's
forward, loss rows and row-local backward run in one shard and write
into an arena in the shared region; the sums over rows (each weight
gradient, the loss) then run once over the re-joined rows, split by
gradient between the processes. So a stage gives the same bits on any
number of shards.

Under glibc, a stage first sets the process's allocator policy so that
the megabytes each step frees stay mapped for the next step, instead of
going back to the kernel and being faulted in again page by page; the
policy is process-wide and changes no float operation."""

from __future__ import annotations

import ctypes
import functools
import math
import platform
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import shards
from .errors import ConfigError, ContractError, NumericError
from .losses import LOSS, LossSpec, combined_loss, loss_rows, loss_value
from .model import (ModelConfig, ModelState, backward, backward_rows, forward_train,
                    reduce_grads, reduction_operands, tensor_shapes)

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


def _arena(config: ModelConfig, dtype: str, rows: int, width: int, buf=None):
    """A sharded stage's arrays in the shared buffer `buf`, and the bytes
    they take: the weights (a ModelState, "state"), their gradients
    ("grads"), and for a batch of up to `rows` x `width` positions the
    operands of `model.reduce_grads` ("ops", (positions, width) each) and
    the loss terms ("terms", one per position and loss). Without a
    buffer, only the size. Each array starts on a 64-byte boundary."""
    dtype = np.dtype(dtype)
    cells = rows * width
    shapes = tensor_shapes(config)
    plan = ([("state", name, shape) for name, shape in shapes.items()]
            + [("grads", name, shape) for name, shape in shapes.items()]
            + [("ops", name, (cells, w)) for name, w in reduction_operands(config).items()]
            + [("terms", kind, (cells,)) for kind in LOSS])
    views: dict[str, dict[str, np.ndarray]] = {"state": {}, "grads": {}, "ops": {}, "terms": {}}
    offset = 0
    for group, name, shape in plan:
        size = math.prod(shape)
        if buf is not None:
            views[group][name] = np.frombuffer(buf, dtype, size, offset).reshape(shape)
        offset += -(-size * dtype.itemsize // 64) * 64
    views["state"] = ModelState(config, views["state"])
    return views, offset


@functools.lru_cache(maxsize=1)
def _worker_arena(layout: tuple) -> dict:
    return _arena(*layout, shards.shared())[0]


def _in_worker(fn, layout: tuple, *args):
    """`fn` on this worker's view of the stage arena of `layout`."""
    return fn(_worker_arena(layout), *args)


def _batch_ops(arena: dict, B: int, S: int) -> dict[str, np.ndarray]:
    return {name: a[:B * S].reshape(B, S, -1) for name, a in arena["ops"].items()}


def _shard_rows(arena: dict, B: int, S: int, r0: int, inputs: np.ndarray, mask: np.ndarray,
                gold: np.ndarray, teacher: np.ndarray | None, offset: int, n: int,
                loss_spec: LossSpec) -> None:
    """The row-local pass of one shard: rows r0.. of a (B, S) batch, whose
    supervised positions start at `offset` of its n. The forward, the loss
    rows and `model.backward_rows` write the operands and loss terms of
    these rows into the arena."""
    state = arena["state"]
    logits, tape = forward_train(state, inputs)
    ops = {name: a[r0:r0 + len(inputs)] for name, a in _batch_ops(arena, B, S).items()}
    flat = ops["dlogits"].reshape(-1, logits.shape[-1])
    flat[...] = 0
    rows = np.flatnonzero(mask)
    if rows.size:
        flat[rows], terms = loss_rows(logits.reshape(flat.shape)[rows], gold, loss_spec,
                                      teacher, n)
        for kind, t in terms.items():
            arena["terms"][kind][offset:offset + len(t)] = t
    backward_rows(state, tape, ops)


def _shard_reduce(arena: dict, B: int, S: int, tokens: np.ndarray, names: tuple[str, ...]) -> None:
    """One shard's share of the reduction: the gradients `names`."""
    ops = _batch_ops(arena, B, S)
    for name, g in reduce_grads(arena["state"], tokens, ops, names).items():
        arena["grads"][name][...] = g


@functools.lru_cache(maxsize=8)
def _reduce_shares(config: ModelConfig, k: int) -> tuple[tuple[str, ...], ...]:
    """The gradients split over k shards by a greedy balance of their cost
    per batch position, as measured on the desk pair: a weight product
    costs its output size plus a call's 1,024, a norm gain's row sum
    1,536, and the embedding's scatter-add 320 per hidden unit (and a tied
    head's `einsum` 16 per vocabulary and hidden unit more); a worker
    starts 4,096 behind this process, whose call needs no message."""
    h, v = config.hidden_size, config.vocab_size
    cost = {name: math.prod(shape) + 1024 for name, shape in tensor_shapes(config).items()}
    for name in cost:
        if name.endswith("norm"):
            cost[name] = 1536
    cost["embed"] = 320 * h + (16 * v * h if config.tie_embeddings else 0)
    shares: list[list[str]] = [[] for _ in range(k)]
    loads = [0] + [4096] * (k - 1)  # a worker starts once its call arrives
    for name in sorted(cost, key=lambda x: -cost[x]):
        i = loads.index(min(loads))
        shares[i].append(name)
        loads[i] += cost[name]
    return tuple(map(tuple, shares))


class _ShardedSteps:
    """A stage's steps, each batch's rows sharded over this process and the
    workers of `shards`, with the weights in the shared region: the
    row-local passes, then the reduction split by `_reduce_shares`; the
    caller's AdamW updates the weights in place. A batch larger than the
    stage's schedule, or with no supervised position, runs in-process."""

    def __init__(self, state: ModelState, schedule: TrainSchedule, k: int) -> None:
        self.layout = (state.config, state.dtype.str, schedule.batch_size, schedule.seq_len)
        self.k = k
        self.arena = _arena(*self.layout, shards.start(k - 1, _arena(*self.layout)[1]))[0]
        self.state = self.arena["state"]
        for name, t in state.tensors.items():
            self.state.tensors[name][...] = t

    def loss_and_grads(self, batch: Batch, loss_spec: LossSpec):
        (B, S), n = batch.inputs.shape, len(batch.gold)
        k = min(self.k, shards.count(B))
        if k == 1 or B > self.layout[2] or S > self.layout[3] or n == 0:
            return loss_and_grads(self.state, batch, loss_spec)
        bounds = [B * i // k for i in range(k + 1)]
        offsets = np.concatenate(([0], np.cumsum(np.count_nonzero(batch.mask, axis=1))))
        calls = []
        for i, (r0, r1) in enumerate(zip(bounds, bounds[1:])):
            o0, o1 = int(offsets[r0]), int(offsets[r1])
            teacher = None if batch.teacher is None else batch.teacher[o0:o1]
            calls.append((B, S, r0, batch.inputs[r0:r1], batch.mask[r0:r1], batch.gold[o0:o1],
                          teacher, o0, n, loss_spec))
        self._run(_shard_rows, calls)
        self._run(_shard_reduce, [(B, S, batch.inputs, names)
                                  for names in _reduce_shares(self.state.config, k)])
        total, parts = loss_value(loss_spec, {kind: t[:n] for kind, t in
                                              self.arena["terms"].items()}, n)
        return total, self.arena["grads"], parts

    def _run(self, fn, args: list[tuple]) -> None:
        shards.run([(fn, (self.arena, *args[0]))]
                   + [(_in_worker, (fn, self.layout, *a)) for a in args[1:]])


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
    k = shards.count(schedule.batch_size)
    if k > 1:
        sharded = _ShardedSteps(state, schedule, k)
        state, step_grads = sharded.state, sharded.loss_and_grads
    else:
        state = ModelState(
            config=state.config,
            tensors={name: t.copy() for name, t in state.tensors.items()},
        )
        step_grads = functools.partial(loss_and_grads, state)
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
        loss, grads, _ = step_grads(batch, loss_spec)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss {loss!r} at step {step}")
        opt.step(state, grads, lr_at(schedule, step))
        losses.append(loss)
    state.check_finite()
    if k > 1:  # ordinary arrays, not views of the shared region
        state = ModelState(state.config, {n: t.copy() for n, t in state.tensors.items()})
    return TrainResult(state=state, losses=losses)
