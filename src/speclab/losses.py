"""Training losses: cross entropy and sparse-logit distillation (KL, TVD).

Every loss returns (scalar, dloss/dlogits) so gradients can be pushed
through the model with `model.backward`. Distillation losses renormalize
both the teacher's stored top-k logits and the student's logits restricted
to the same k ids, which keeps KL finite regardless of out-of-support mass.
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


def ce_loss(logits: np.ndarray, gold: np.ndarray, mask: np.ndarray | None = None):
    """Mean next-token cross entropy over (masked) positions.

    logits: (..., V); gold: integer tokens broadcastable to logits[..., 0].
    Returns (loss, dlogits).
    """
    logits = np.asarray(logits)
    gold = np.asarray(gold, dtype=np.int64)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_gold = gold.reshape(-1)
    if mask is None:
        m = np.ones(flat_gold.shape, dtype=logits.dtype)
    else:
        m = np.asarray(mask, dtype=logits.dtype).reshape(-1)
    n = m.sum()
    if n <= 0:
        raise ContractError("cross entropy needs at least one unmasked position")

    # rows of a whole vocabulary are long enough for numpy's own max
    ls = _log_softmax(flat_logits, flat_logits.max(axis=-1, keepdims=True))
    rows = np.arange(flat_gold.size)
    loss = -(ls[rows, flat_gold] * m).sum() / n

    dflat = np.exp(ls, out=ls)
    dflat[rows, flat_gold] -= 1.0
    dflat *= (m / n)[:, None]
    return float(loss), dflat.reshape(logits.shape)


def _restricted_dists(student_rows: np.ndarray, ids: np.ndarray, t_logits: np.ndarray):
    """Teacher and student distributions over the teacher's top-k support.

    student_rows: (P, V); ids, t_logits: (P, k). Returns (p_t, p_s, rows).
    """
    if ids.shape[1] > 1:
        srt = np.sort(ids, axis=1)
        if np.any(srt[:, 1:] == srt[:, :-1]):
            raise ContractError("duplicate token ids in a sparse logit row")
    rows = np.arange(ids.shape[0])[:, None]
    t = t_logits.astype(student_rows.dtype)
    s = student_rows[rows, ids]
    p_t = np.exp(_log_softmax(t, row_max(t)))
    p_s = np.exp(_log_softmax(s, row_max(s)))
    return p_t, p_s, rows


def _kd_sparse(student_logits: np.ndarray, teacher_ids: np.ndarray,
               teacher_logits: np.ndarray, kind: str, mask: np.ndarray | None):
    """`kd_loss` with its gradient left on the teacher's support: returns
    (loss, rows, grad), where dloss/dlogits is grad at [rows, teacher_ids]
    and zero elsewhere."""
    if kind not in ("KL", "TVD"):
        raise ConfigError(f"unknown distillation loss {kind!r}")
    student_logits = np.asarray(student_logits)
    if student_logits.ndim != 2:
        raise ContractError("kd loss expects (positions, vocab) student logits")
    if teacher_ids.shape[0] != student_logits.shape[0]:
        raise ContractError("teacher rows do not align with student positions")
    if teacher_ids.shape[0] == 0:
        raise ContractError("no sparse logit rows")
    if teacher_ids.shape[1] < 1:
        raise ContractError("sparse rows need k >= 1")

    dtype = student_logits.dtype
    if mask is None:
        m = np.ones(student_logits.shape[0], dtype=dtype)
    else:
        m = np.asarray(mask, dtype=dtype).reshape(-1)
    n = m.sum()
    if n <= 0:
        raise ContractError("distillation needs at least one unmasked position")

    p_t, p_s, rows = _restricted_dists(student_logits, teacher_ids, teacher_logits)
    if kind == "KL":
        per_pos = np.sum(p_t * (np.log(p_t) - np.log(p_s)), axis=-1)
        dker = p_s - p_t  # gradient w.r.t. restricted student logits
    else:
        diff = p_s - p_t
        per_pos = 0.5 * np.abs(diff).sum(axis=-1)
        g = 0.5 * np.sign(diff)
        dker = p_s * (g - np.sum(g * p_s, axis=-1, keepdims=True))
    dker *= (m / n)[:, None]
    return float((per_pos * m).sum() / n), rows, dker


def kd_loss(
    student_logits: np.ndarray,
    teacher_ids: np.ndarray,
    teacher_logits: np.ndarray,
    kind: str,
    mask: np.ndarray | None = None,
):
    """Vectorized distillation loss over aligned positions.

    student_logits: (P, V); teacher_ids/teacher_logits: (P, k).
    kind: "KL" (sum p_t log(p_t/p_s)) or "TVD" (half L1), mean over positions.
    """
    loss, rows, grad = _kd_sparse(student_logits, teacher_ids, teacher_logits, kind, mask)
    dlogits = np.zeros_like(student_logits)
    dlogits[rows, teacher_ids] += grad  # ids are distinct within a row (checked)
    return loss, dlogits


def combined_loss(
    logits2d: np.ndarray,
    gold: np.ndarray,
    spec: LossSpec,
    teacher_ids: np.ndarray | None = None,
    teacher_logits: np.ndarray | None = None,
    mask: np.ndarray | None = None,
):
    """Weighted mixture of CE / KL / TVD; value is the exact weighted sum."""
    if spec.needs_teacher and (teacher_ids is None or teacher_logits is None):
        raise ConfigError("KL/TVD weights require sparse-logit supervision")
    total = 0.0
    parts: dict[str, float] = {}
    if spec.ce > 0:
        parts["CE"], dlogits = ce_loss(logits2d, gold, mask=mask)
        total += spec.ce * parts["CE"]
        dlogits *= spec.ce
    else:
        dlogits = np.zeros_like(logits2d)
    for kind, weight in (("KL", spec.kl), ("TVD", spec.tvd)):
        if weight > 0:
            parts[kind], rows, grad = _kd_sparse(logits2d, teacher_ids, teacher_logits,
                                                 kind, mask)
            total += weight * parts[kind]
            grad *= weight
            dlogits[rows, teacher_ids] += grad  # ids are distinct within a row
    return total, dlogits, parts
