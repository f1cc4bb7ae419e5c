"""Constant-parameter-budget search: every feasible row lands within half a
per-layer block of the budget."""

from hypothesis import given, settings, strategies as st

from speclab.archsearch import BudgetSearchSpec, budget_search, per_layer_count
from speclab.model import ModelConfig


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
    layer = per_layer_count(base, narrowest)
    widths = draw(st.lists(st.integers(1, 12 * head_dim), max_size=5))
    return BudgetSearchSpec(budget=draw(st.integers(layer, 40 * layer)),
                            hidden_candidates=(narrowest, *widths), base_config=base)


@settings(deadline=None)
@given(spec=search_specs())
def test_feasible_rows_land_within_half_a_layer_of_the_budget(spec):
    for row in budget_search(spec):
        if row["feasible"]:
            layer = per_layer_count(spec.base_config, row["hidden_size"])
            assert abs(row["deviation"]) <= layer / 2
