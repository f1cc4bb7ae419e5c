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

    def to_dict(self) -> dict:
        return {"CE": self.ce, "KL": self.kl, "TVD": self.tvd}

    @classmethod
    def from_dict(cls, d: dict) -> "LossSpec":
        return cls(ce=float(d.get("CE", 0.0)), kl=float(d.get("KL", 0.0)),
                   tvd=float(d.get("TVD", 0.0)))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


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

    ls = _log_softmax(flat_logits)
    rows = np.arange(flat_gold.size)
    loss = -(ls[rows, flat_gold] * m).sum() / n

    dflat = np.exp(ls)
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
    s = student_rows[rows, ids]
    p_t = np.exp(_log_softmax(t_logits.astype(student_rows.dtype)))
    p_s = np.exp(_log_softmax(s))
    return p_t, p_s, rows


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

    loss = float((per_pos * m).sum() / n)
    dlogits = np.zeros_like(student_logits)
    np.add.at(dlogits, (rows, teacher_ids), dker * (m / n)[:, None])
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
    dlogits = np.zeros_like(logits2d)
    parts: dict[str, float] = {}
    for kind, weight in (("CE", spec.ce), ("KL", spec.kl), ("TVD", spec.tvd)):
        if weight > 0:
            l, d = (ce_loss(logits2d, gold, mask=mask) if kind == "CE" else
                    kd_loss(logits2d, teacher_ids, teacher_logits, kind, mask=mask))
            parts[kind] = l
            total += weight * l
            dlogits += weight * d
    return total, dlogits, parts
