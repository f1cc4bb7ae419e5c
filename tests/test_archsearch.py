"""Constant-parameter-budget search: every feasible row is the depth closest
to the budget by a walk over every tensor, the shallower on a tie, and so
lands within half a per-layer block of it; pricing a depth never builds the
tensor list of more than one layer."""

import pytest
from hypothesis import given, settings, strategies as st

from speclab import model
from speclab.archsearch import BudgetSearchSpec, arch_table, budget_search, derive_config
from speclab.errors import ConfigError
from speclab.model import ModelConfig, param_count, param_split

from conftest import tensor_walk_count


def per_layer(base: ModelConfig, hidden: int) -> int:
    return param_split(derive_config(base, hidden, 1), exclude_embedding_tables=True)[1]


@st.composite
def search_specs(draw):
    head_dim = draw(st.sampled_from([2, 4, 8]))
    n_kv_heads = draw(st.integers(1, 4))
    kv_ratio = draw(st.integers(1, 4))
    n_heads = n_kv_heads * kv_ratio
    hidden = head_dim * n_heads
    base = ModelConfig(hidden_size=hidden,
                       intermediate_size=draw(st.integers(hidden, 4 * hidden)),
                       n_layers=draw(st.integers(1, 6)), n_heads=n_heads,
                       n_kv_heads=n_kv_heads, vocab_size=draw(st.integers(8, 300)),
                       max_seq_len=32, tie_embeddings=draw(st.booleans()))
    # the narrowest width the template allows fits 1 to 40 of its layers;
    # the other widths, on and off the head grid, may not fit at all
    narrowest = head_dim * kv_ratio
    layer = per_layer(base, narrowest)
    widths = draw(st.lists(st.integers(1, 12 * head_dim), max_size=5))
    return BudgetSearchSpec(budget=draw(st.integers(layer, 40 * layer)),
                            hidden_candidates=(narrowest, *widths), base_config=base)


def closest_depth(base: ModelConfig, hidden: int, budget: int) -> int:
    """The depth whose tensor-walk count is closest to the budget, the
    shallower on a tie (the distance is convex in depth)."""
    def distance(n_layers):
        return abs(tensor_walk_count(derive_config(base, hidden, n_layers), True) - budget)
    n_layers = 1
    while distance(n_layers + 1) < distance(n_layers):
        n_layers += 1
    return n_layers


@settings(deadline=None)
@given(spec=search_specs())
def test_feasible_rows_land_within_half_a_layer_of_the_budget(spec):
    for row in budget_search(spec):
        if row["feasible"]:
            layer = per_layer(spec.base_config, row["hidden_size"])
            assert abs(row["deviation"]) <= layer / 2
            n_layers = closest_depth(spec.base_config, row["hidden_size"], spec.budget)
            achieved = tensor_walk_count(
                derive_config(spec.base_config, row["hidden_size"], n_layers), True)
            assert row == {"hidden_size": row["hidden_size"], "n_layers": n_layers,
                           "achieved_params_excl": achieved,
                           "deviation": achieved - spec.budget, "feasible": True,
                           "reason": ""}


def test_a_tie_keeps_the_shallower_depth():
    # one 2-wide layer holds 44 elements and the final norm 2, so a budget of
    # 2 + 44 * (k + 1/2) is 22 from both k and k + 1 layers
    base = ModelConfig(hidden_size=2, intermediate_size=4, n_layers=1, n_heads=1,
                       n_kv_heads=1, vocab_size=264, max_seq_len=32)
    for k in (6, 7, 8, 15):
        row, = budget_search(BudgetSearchSpec(2 + 44 * k + 22, (2,), base))
        assert (row["n_layers"], row["deviation"]) == (k, -22)


def test_pricing_builds_the_tensor_list_of_one_layer_only(monkeypatch):
    depths = []
    real = model.tensor_shapes

    def spy(config):
        depths.append(config.n_layers)
        return real(config)

    monkeypatch.setattr(model, "tensor_shapes", spy)
    base = ModelConfig(hidden_size=2, intermediate_size=4, n_layers=3, n_heads=1,
                       n_kv_heads=1, vocab_size=264, max_seq_len=32)
    assert param_count(base) == 2 * 264 * 2 + 2 + 3 * 44
    rows = budget_search(BudgetSearchSpec(2_000_000, (2, 4), base))
    assert [(r["n_layers"], r["deviation"]) for r in rows] == [(45454, -22), (11905, 44)]
    assert set(depths) == {1}


def test_arch_table_rejects_a_zero_budget():
    """Only a missing or null `budget` takes the base draft's count."""
    base = ModelConfig(hidden_size=16, intermediate_size=32, n_layers=2, n_heads=2,
                       n_kv_heads=2, vocab_size=40, max_seq_len=16)
    default = arch_table({"hidden_candidates": [16], "budget": None}, base)
    assert default[0]["n_layers"] == 2 and default[0]["deviation"] == 0
    with pytest.raises(ConfigError, match="budget must be positive"):
        arch_table({"hidden_candidates": [16], "budget": 0}, base)
