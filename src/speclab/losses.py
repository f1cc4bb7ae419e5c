"""Training losses: cross entropy and sparse-logit distillation (KL, TVD).

Every loss is a mean over the rows it is given and returns (scalar,
dloss/dlogits), so gradients can be pushed through the model with
`model.backward`; `training.loss_and_grads` gives it a batch's supervised
logits rows, which meet the batch's gold tokens and teacher pairs row for
row.
Distillation losses take the teacher's stored top-k pairs as one
`distill.SPARSE_DTYPE` array and renormalize both those logits and the
student's logits restricted to the same k ids. KL is summed from the two
log-softmaxes, which keeps it finite regardless of out-of-support mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .model import row_max


LOSS = {"CE": (float, 0.0), "KL": (float, 0.0), "TVD": (float, 0.0)}  # a stage's `loss` (config.py)


@dataclass(frozen=True)
class LossSpec:
    """Nonnegative weights over {CE, KL, TVD} summing to one."""
    ce: float = 0.0
    kl: float = 0.0
    tvd: float = 0.0

    def __post_init__(self) -> None:
        w = (self.ce, self.kl, self.tvd)
        if any(x < 0 for x in w):
            raise ConfigError("loss weights must be nonnegative")
        if not np.isclose(sum(w), 1.0, rtol=0, atol=1e-9):
            raise ConfigError("loss weights must sum to 1")

    @property
    def needs_teacher(self) -> bool:
        return self.kl > 0 or self.tvd > 0


def _log_softmax(logits: np.ndarray, maxes: np.ndarray) -> np.ndarray:
    """A fresh array of log-softmax over the last axis, given the exact max
    of each row (keepdims)."""
    z = logits - maxes
    z -= np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    return z


def ce_loss(logits: np.ndarray, gold: np.ndarray):
    """Mean next-token cross entropy over the positions given.

    logits: (..., V); gold: integer tokens of shape logits.shape[:-1].
    Returns (loss, dlogits).
    """
    logits = np.asarray(logits)
    gold = np.asarray(gold, dtype=np.int64)
    n = gold.size
    picked, dflat = _ce_rows(logits.reshape(-1, logits.shape[-1]), gold.reshape(-1), n)
    return float(-picked.sum() / n), dflat.reshape(logits.shape)


def _ce_rows(flat_logits: np.ndarray, flat_gold: np.ndarray, n: int):
    """The rows' part of a cross entropy that is a mean over n positions:
    the log-probability of each row's gold token, whose negated sum over
    all n rows, divided by n, is the loss, and the rows' dloss/dlogits."""
    if n == 0:
        raise ContractError("cross entropy needs at least one position")
    # rows of a whole vocabulary are long enough for numpy's own max
    ls = _log_softmax(flat_logits, flat_logits.max(axis=-1, keepdims=True))
    rows = np.arange(flat_gold.size)
    picked = ls[rows, flat_gold]
    dflat = np.exp(ls, out=ls)
    dflat[rows, flat_gold] -= 1.0
    dflat *= flat_logits.dtype.type(1) / flat_logits.dtype.type(n)
    return picked, dflat


def _restricted_dists(student_rows: np.ndarray, teacher: np.ndarray):
    """Teacher and student log-distributions over the teacher's top-k
    support.

    student_rows: (P, V); teacher: (P, k) `SPARSE_DTYPE` pairs.
    Returns (ls_t, ls_s, rows), with rows broadcastable against the ids.
    """
    ids = teacher["id"]
    if ids.shape[1] > 1:
        srt = np.sort(ids, axis=1)
        if np.any(srt[:, 1:] == srt[:, :-1]):
            raise ContractError("duplicate token ids in a sparse logit row")
    rows = np.arange(ids.shape[0])[:, None]
    t = teacher["logit"].astype(student_rows.dtype)
    s = student_rows[rows, ids]
    return _log_softmax(t, row_max(t)), _log_softmax(s, row_max(s)), rows


def _kd_rows(student_logits: np.ndarray, teacher: np.ndarray, kind: str, n: int):
    """Distillation loss "KL" (sum p_t log(p_t/p_s)) or "TVD" (half L1) on
    the rows given, as part of a mean over n positions, of (P, V) student
    logits against (P, k) `SPARSE_DTYPE` teacher pairs. Returns (per_pos,
    rows, grad): each row's term, whose sum over all n rows divided by n is
    the loss, and dloss/dlogits as grad at [rows, teacher["id"]] and zero
    elsewhere."""
    student_logits = np.asarray(student_logits)
    if student_logits.ndim != 2:
        raise ContractError("kd loss expects (positions, vocab) student logits")
    if teacher.shape[0] != student_logits.shape[0]:
        raise ContractError("teacher rows do not align with student positions")
    if n == 0:
        raise ContractError("no sparse logit rows")
    if teacher.shape[1] < 1:
        raise ContractError("sparse rows need k >= 1")

    ls_t, ls_s, rows = _restricted_dists(student_logits, teacher)
    p_t, p_s = np.exp(ls_t), np.exp(ls_s)
    if kind == "KL":
        # from the log-probabilities: an underflowed p_t or p_s gives no 0 * log 0
        per_pos = np.sum(p_t * (ls_t - ls_s), axis=-1)
        dker = p_s - p_t  # gradient w.r.t. restricted student logits
    else:
        diff = p_s - p_t
        per_pos = 0.5 * np.abs(diff).sum(axis=-1)
        g = 0.5 * np.sign(diff)
        dker = p_s * (g - np.sum(g * p_s, axis=-1, keepdims=True))
    dtype = student_logits.dtype.type
    dker *= dtype(1) / dtype(n)
    return per_pos, rows, dker


def loss_rows(logits2d: np.ndarray, gold: np.ndarray | None, spec: LossSpec,
              teacher: np.ndarray | None, n: int):
    """The row-local part of `combined_loss` on rows that are some of the n
    positions a loss is a mean over: (dlogits of the rows, the rows' terms
    of each weighted loss by name), as `loss_value` takes them."""
    if spec.needs_teacher and teacher is None:
        raise ConfigError("KL/TVD weights require sparse-logit supervision")
    terms: dict[str, np.ndarray] = {}
    if spec.ce > 0:
        terms["CE"], dlogits = _ce_rows(np.asarray(logits2d),
                                        np.asarray(gold, dtype=np.int64).reshape(-1), n)
        dlogits *= spec.ce
    else:
        dlogits = np.zeros_like(logits2d)
    for kind, weight in (("KL", spec.kl), ("TVD", spec.tvd)):
        if weight > 0:
            terms[kind], rows, grad = _kd_rows(logits2d, teacher, kind, n)
            grad *= weight
            dlogits[rows, teacher["id"]] += grad  # ids are distinct within a row
    return dlogits, terms


def loss_value(spec: LossSpec, terms: dict[str, np.ndarray], n: int):
    """(total, parts) of a loss from the terms of all its n positions, in
    position order, of each loss of positive weight: each part is one sum
    divided by n (a negated one for CE), and the total their exact
    weighted sum."""
    total = 0.0
    parts: dict[str, float] = {}
    for kind, weight in (("CE", spec.ce), ("KL", spec.kl), ("TVD", spec.tvd)):
        if weight > 0:
            s = terms[kind].sum()
            parts[kind] = float((-s if kind == "CE" else s) / n)
            total += weight * parts[kind]
    return total, parts


def combined_loss(logits2d: np.ndarray, gold: np.ndarray, spec: LossSpec,
                  teacher: np.ndarray | None = None):
    """Weighted mixture of CE / KL / TVD over the rows given; value is the
    exact weighted sum."""
    n = len(logits2d)
    dlogits, terms = loss_rows(logits2d, gold, spec, teacher, n)
    total, parts = loss_value(spec, terms, n)
    return total, dlogits, parts
