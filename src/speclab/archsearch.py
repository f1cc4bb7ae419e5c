"""Constant-parameter-budget architecture search.

For each candidate hidden size, pick the layer count whose
excluded-embeddings parameter count lands closest to the budget. Head
counts and the MLP ratio follow a base config template, keeping the head
dimension fixed, so width candidates stay in the same family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .latency import measure_latency
from .metrics import LatencyProfile, expected_speedup, mbsu
from .model import ModelConfig, param_count, param_split


@dataclass(frozen=True)
class BudgetSearchSpec:
    budget: int                      # excluded-embeddings parameter count
    hidden_candidates: tuple[int, ...]
    base_config: ModelConfig

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ConfigError("budget must be positive")
        if not self.hidden_candidates:
            raise ConfigError("need at least one hidden-size candidate")
        if any(h <= 0 for h in self.hidden_candidates):
            raise ConfigError("hidden candidates must be positive")


def derive_config(base: ModelConfig, hidden: int, n_layers: int) -> ModelConfig:
    """Scale the base template to a new width, keeping head_dim and the
    intermediate/hidden ratio."""
    head_dim = base.head_dim
    if hidden % head_dim != 0:
        raise ConfigError(
            f"hidden {hidden} is not a multiple of the template head_dim {head_dim}")
    n_heads = hidden // head_dim
    kv_ratio = base.n_heads // base.n_kv_heads
    if n_heads % kv_ratio != 0:
        raise ConfigError(f"hidden {hidden} cannot keep the template kv grouping")
    inter = round(hidden * base.intermediate_size / base.hidden_size)
    return ModelConfig(
        hidden_size=hidden,
        intermediate_size=inter,
        n_layers=n_layers,
        n_heads=n_heads,
        n_kv_heads=n_heads // kv_ratio,
        vocab_size=base.vocab_size,
        max_seq_len=base.max_seq_len,
        rope_base=base.rope_base,
        tie_embeddings=base.tie_embeddings,
    )


def budget_search(spec: BudgetSearchSpec) -> list[dict]:
    """One row per hidden size: the layer count whose excluded-embeddings
    count lands closest to the budget (at most half a per-layer block away
    by construction), or feasible=False with the reason. Raises only if no
    candidate is feasible."""
    rows = []
    for hidden in spec.hidden_candidates:
        row = {"hidden_size": hidden, "n_layers": None, "achieved_params_excl": None,
               "deviation": None, "feasible": False, "reason": ""}
        rows.append(row)
        try:
            fixed, layer = param_split(derive_config(spec.base_config, hidden, 1),
                                       exclude_embedding_tables=True)
        except ConfigError as exc:
            row["reason"] = str(exc)
            continue
        if layer > spec.budget:
            row["reason"] = f"one layer costs {layer} params, over the {spec.budget} budget"
            continue
        # the count is linear in depth: the closest depth is the one below
        # the ideal (fractional) depth or the next, and a tie keeps the shallower
        n_layers = max(1, (spec.budget - fixed) // layer)
        if abs(fixed + (n_layers + 1) * layer - spec.budget) < abs(
                fixed + n_layers * layer - spec.budget):
            n_layers += 1
        achieved = fixed + n_layers * layer
        row.update(n_layers=n_layers, achieved_params_excl=achieved,
                   deviation=achieved - spec.budget, feasible=True)
    if not any(r["feasible"] for r in rows):
        raise ConfigError("no feasible layer count for any hidden candidate")
    return rows


def arch_table(ac: dict, base: ModelConfig, target: ModelConfig | None = None,
               l_target_1: float | None = None, tau: float | None = None, exclude: bool = False,
               **latency) -> list[dict]:
    """`budget_search` rows for an `arch_search` config section, each
    feasible row with its `config`.

    The budget defaults to `base`'s excluded-embeddings count. With a target
    config and its measured block-1 latency `l_target_1`, feasible rows add
    their single-token latency (`measure_latency` with `latency`), c, and
    c_hat (embedding tables `exclude`d or not); given a tau also the
    simplified speedup, the profile whose block-gamma target forward costs
    one block-1 forward, and MBSU.
    """
    budget = ac.get("budget")
    if budget is None:
        budget = param_count(base, exclude_embedding_tables=True)
    rows = budget_search(BudgetSearchSpec(
        budget=int(budget),
        hidden_candidates=tuple(int(h) for h in ac["hidden_candidates"]),
        base_config=base))
    gamma = int(ac.get("gamma", 3))
    for row in rows:
        cfg = derive_config(base, row["hidden_size"], row["n_layers"]) if row["feasible"] else None
        row["config"] = cfg.to_dict() if cfg else None
        if cfg is None or target is None:
            continue
        row["latency_1tok"] = lat = measure_latency(cfg, 1, **latency).median
        row["c"] = lat / l_target_1
        row["c_hat"] = c_hat = param_count(cfg, exclude) / param_count(target, exclude)
        if tau is not None:
            row["tau"] = tau
            row["speedup_est"] = expected_speedup(
                LatencyProfile(lat, l_target_1, l_target_1), gamma, tau)
            row["mbsu"] = mbsu(tau, c_hat, gamma)
    return rows
