"""Training losses: cross entropy and sparse-logit distillation (KL, TVD).

Every loss is a mean over the rows it is given and returns (scalar,
dloss/dlogits), so gradients can be pushed through the model with
`model.backward`; `training.loss_and_grads` picks the supervised rows.
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
        if all(x == 0 for x in w):
            raise ConfigError("at least one loss weight must be positive")

    @property
    def needs_teacher(self) -> bool:
        return self.kl > 0 or self.tvd > 0

    @classmethod
    def from_dict(cls, d: dict) -> "LossSpec":
        return cls(ce=float(d.get("CE", 0.0)), kl=float(d.get("KL", 0.0)),
                   tvd=float(d.get("TVD", 0.0)))


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
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_gold = gold.reshape(-1)
    n = flat_gold.size
    if n == 0:
        raise ContractError("cross entropy needs at least one position")

    # rows of a whole vocabulary are long enough for numpy's own max
    ls = _log_softmax(flat_logits, flat_logits.max(axis=-1, keepdims=True))
    rows = np.arange(n)
    loss = -ls[rows, flat_gold].sum() / n

    dflat = np.exp(ls, out=ls)
    dflat[rows, flat_gold] -= 1.0
    dflat *= logits.dtype.type(1) / logits.dtype.type(n)
    return float(loss), dflat.reshape(logits.shape)


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


def _kd_sparse(student_logits: np.ndarray, teacher: np.ndarray, kind: str):
    """`kd_loss` with its gradient left on the teacher's support: returns
    (loss, rows, grad), where dloss/dlogits is grad at [rows, teacher["id"]]
    and zero elsewhere."""
    if kind not in ("KL", "TVD"):
        raise ConfigError(f"unknown distillation loss {kind!r}")
    student_logits = np.asarray(student_logits)
    if student_logits.ndim != 2:
        raise ContractError("kd loss expects (positions, vocab) student logits")
    if teacher.shape[0] != student_logits.shape[0]:
        raise ContractError("teacher rows do not align with student positions")
    n = teacher.shape[0]
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
    return float(per_pos.sum() / n), rows, dker


def kd_loss(student_logits: np.ndarray, teacher: np.ndarray, kind: str):
    """Vectorized distillation loss, a mean over the positions given.

    student_logits: (P, V); teacher: (P, k) `SPARSE_DTYPE` pairs.
    kind: "KL" (sum p_t log(p_t/p_s)) or "TVD" (half L1).
    """
    loss, rows, grad = _kd_sparse(student_logits, teacher, kind)
    dlogits = np.zeros_like(student_logits)
    dlogits[rows, teacher["id"]] += grad  # ids are distinct within a row (checked)
    return loss, dlogits


def combined_loss(logits2d: np.ndarray, gold: np.ndarray, spec: LossSpec,
                  teacher: np.ndarray | None = None):
    """Weighted mixture of CE / KL / TVD over the rows given; value is the
    exact weighted sum."""
    if spec.needs_teacher and teacher is None:
        raise ConfigError("KL/TVD weights require sparse-logit supervision")
    total = 0.0
    parts: dict[str, float] = {}
    if spec.ce > 0:
        parts["CE"], dlogits = ce_loss(logits2d, gold)
        total += spec.ce * parts["CE"]
        dlogits *= spec.ce
    else:
        dlogits = np.zeros_like(logits2d)
    for kind, weight in (("KL", spec.kl), ("TVD", spec.tvd)):
        if weight > 0:
            parts[kind], rows, grad = _kd_sparse(logits2d, teacher, kind)
            total += weight * parts[kind]
            grad *= weight
            dlogits[rows, teacher["id"]] += grad  # ids are distinct within a row
    return total, dlogits, parts
