"""Constant-parameter-budget architecture search.

For each candidate hidden size, pick the layer count whose
excluded-embeddings parameter count lands closest to the budget. Head
counts and the MLP ratio follow a base config template, keeping the head
dimension fixed, so width candidates stay in the same family.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import ConfigError
from .latency import measure_latency
from .model import ModelConfig, init_model, param_count, param_split

# the `arch_search` config section (notation in config.py)
ARCH_SEARCH = {"hidden_candidates": [int], "budget": (int, None)}


def check_search(budget: int | None, hidden_candidates: list[int]) -> None:
    """Raise ConfigError unless `budget` is None (the base's count) or positive
    and `hidden_candidates` is a non-empty list of positive sizes."""
    if budget is not None and budget <= 0:
        raise ConfigError("budget must be positive")
    if not hidden_candidates or min(hidden_candidates) <= 0:
        raise ConfigError("hidden_candidates must be a non-empty list of positive sizes")


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
    return replace(base, hidden_size=hidden, n_layers=n_layers, n_heads=n_heads,
                   n_kv_heads=n_heads // kv_ratio,
                   intermediate_size=round(hidden * base.intermediate_size / base.hidden_size))


def budget_search(budget: int, hidden_candidates: list[int], base: ModelConfig) -> list[dict]:
    """One row per hidden size: the layer count whose excluded-embeddings
    count lands closest to `budget` (at most half a per-layer block away by
    construction), or feasible=False with the reason. Raises only for a
    budget or candidate `check_search` rejects, or if no candidate is feasible."""
    check_search(budget, hidden_candidates)
    rows = []
    for hidden in hidden_candidates:
        row = {"hidden_size": hidden, "n_layers": None, "achieved_params_excl": None,
               "deviation": None, "feasible": False, "reason": ""}
        rows.append(row)
        try:
            fixed, layer = param_split(derive_config(base, hidden, 1),
                                       exclude_embedding_tables=True)
        except ConfigError as exc:
            row["reason"] = str(exc)
            continue
        if layer > budget:
            row["reason"] = f"one layer costs {layer} params, over the {budget} budget"
            continue
        # the count is linear in depth: the closest depth is the one below
        # the ideal (fractional) depth or the next, and a tie keeps the shallower
        n_layers = max(1, (budget - fixed) // layer)
        if abs(fixed + (n_layers + 1) * layer - budget) < abs(
                fixed + n_layers * layer - budget):
            n_layers += 1
        achieved = fixed + n_layers * layer
        row.update(n_layers=n_layers, achieved_params_excl=achieved,
                   deviation=achieved - budget, feasible=True)
    if not any(r["feasible"] for r in rows):
        raise ConfigError("no feasible layer count for any hidden candidate")
    return rows


def arch_table(hidden_candidates: list[int], budget: int | None, base: ModelConfig,
               target: ModelConfig | None = None, l_target_1: float | None = None,
               exclude: bool = False, **latency) -> list[dict]:
    """`budget_search` rows for the two keys of an `arch_search` config
    section, each feasible row with its `config`.

    The budget defaults to `base`'s excluded-embeddings count. With a target
    config and its measured block-1 latency `l_target_1`, feasible rows add
    their single-token latency (`measure_latency` with `latency`, whose seed
    also draws the weights), c, and c_hat (embedding tables `exclude`d or
    not). A row holds only its own candidate's numbers: no acceptance has
    been measured for it.
    """
    if budget is None:
        budget = param_count(base, exclude_embedding_tables=True)
    rows = budget_search(budget, hidden_candidates, base)
    for row in rows:
        cfg = derive_config(base, row["hidden_size"], row["n_layers"]) if row["feasible"] else None
        row["config"] = cfg.to_dict() if cfg else None
        if cfg is None or target is None:
            continue
        state = init_model(cfg, latency["seed"])
        row["latency_1tok"] = lat = measure_latency(state, 1, **latency).median
        row["c"] = lat / l_target_1
        row["c_hat"] = param_count(cfg, exclude) / param_count(target, exclude)
    return rows
