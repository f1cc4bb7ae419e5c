"""The summary of `tools/pair_bench.py` on hand-made runs: medians, wins
and the base's IQR come out as computed by hand, identical runs on both
sides claim nothing, and the paired-run rule needs nine tenths of the
pairs and a shift past the base's IQR. The run order of the pairs is
seeded."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pair_bench.py"
_SPEC = importlib.util.spec_from_file_location("pair_bench", _PATH)
pair_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pair_bench)

BETTER = {"ar_us_per_token": "lower", "sd_greedy_tokens_per_s": "higher",
          "alpha_greedy": "higher"}


def runs(**series) -> list[dict]:
    n = len(next(iter(series.values())))
    return [{"metrics": {k: v[i] for k, v in series.items()}} for i in range(n)]


def test_medians_wins_and_iqr_of_hand_made_runs():
    base = runs(ar_us_per_token=[100.0, 120.0, 110.0, 130.0, 105.0],
                sd_greedy_tokens_per_s=[5000.0, 4000.0, 4500.0, 4800.0, 4200.0],
                alpha_greedy=[0.5] * 5)
    change = runs(ar_us_per_token=[90.0, 100.0, 95.0, 135.0, 92.0],
                  sd_greedy_tokens_per_s=[5500.0, 3900.0, 4500.0, 5300.0, 4700.0],
                  alpha_greedy=[0.5] * 5)
    s = pair_bench.summarize(base, change, BETTER)

    ar = s["ar_us_per_token"]
    assert (ar["base_median"], ar["change_median"]) == (110.0, 95.0)
    assert ar["wins"] == 4 and ar["pairs"] == 5
    assert ar["base_iqr"] == 120.0 - 105.0  # linear percentiles of 100..130
    assert ar["ratio_of_medians"] == pytest.approx(95.0 / 110.0)
    lo, hi = ar["ratio_interval"]
    assert lo <= ar["ratio_of_medians"] <= hi

    sd = s["sd_greedy_tokens_per_s"]
    assert (sd["base_median"], sd["change_median"]) == (4500.0, 4700.0)
    assert sd["wins"] == 3  # a tie is not a win
    assert sd["base_iqr"] == 4800.0 - 4200.0

    alpha = s["alpha_greedy"]
    assert alpha["wins"] == 0 and alpha["ratio_interval"] == [1.0, 1.0]
    assert alpha["claim"] is None


def test_a_clear_gain_and_a_clear_loss_are_claimed_by_direction():
    base = runs(ar_us_per_token=[100.0 + i for i in range(10)],
                sd_greedy_tokens_per_s=[5000.0 + i for i in range(10)])
    change = runs(ar_us_per_token=[80.0 + i for i in range(10)],
                  sd_greedy_tokens_per_s=[4000.0 + i for i in range(10)])
    s = pair_bench.summarize(base, change, BETTER)
    assert s["ar_us_per_token"]["claim"] == "gain"
    assert s["ar_us_per_token"]["wins"] == 10
    assert s["sd_greedy_tokens_per_s"]["claim"] == "loss"
    assert s["alpha_greedy"] == {"pairs": 0}


def test_identical_runs_claim_nothing():
    series = dict(ar_us_per_token=[100.0, 130.0, 90.0, 111.0, 125.0, 98.0, 104.0, 140.0],
                  sd_greedy_tokens_per_s=[5000.0, 4100.0, 5300.0, 4700.0, 4650.0, 5100.0,
                                          4900.0, 3900.0],
                  alpha_greedy=[0.48] * 8)
    s = pair_bench.summarize(runs(**series), runs(**series), BETTER)
    for name, row in s.items():
        assert row["wins"] == 0, name
        assert row["ratio_of_medians"] == 1.0, name
        assert row["claim"] is None, name
        assert row["rule"] is None, name


def test_the_bootstrap_is_seeded():
    base = runs(ar_us_per_token=[100.0, 120.0, 110.0, 130.0, 105.0, 99.0])
    change = runs(ar_us_per_token=[90.0, 125.0, 95.0, 135.0, 92.0, 101.0])
    first = pair_bench.summarize(base, change, {"ar_us_per_token": "lower"})
    assert pair_bench.summarize(base, change, {"ar_us_per_token": "lower"}) == first


def test_the_run_order_is_seeded_and_shuffled():
    """Both orders occur over 10 pairs, each in half of them, not in the
    alternation AB, BA, AB, ..., and a rerun gives the same order."""
    orders = pair_bench.run_orders(10)
    assert pair_bench.run_orders(10) == orders
    assert sorted(orders) == [("base", "change")] * 5 + [("change", "base")] * 5
    assert orders != [("base", "change"), ("change", "base")] * 5
    assert [first for first, _ in pair_bench.run_orders(5)].count("base") == 3


def test_the_rule_needs_nine_tenths_of_the_pairs_and_a_shift_past_the_base_iqr():
    """A uniform 6% gain on 10 of 10 pairs meets the rule, and the same
    loss on the higher-is-better metric is a loss; a gain on 8 of 10 pairs
    does not meet it, nor does a shift inside the base's IQR."""
    base_us = [100.0 + 0.5 * i for i in range(10)]  # IQR 2.25 around 102.25
    base_tok = [5000.0 + 10.0 * i for i in range(10)]  # IQR 45 around 5045
    base = runs(ar_us_per_token=base_us, sd_greedy_tokens_per_s=base_tok)
    uniform = runs(ar_us_per_token=[0.94 * b for b in base_us],
                   sd_greedy_tokens_per_s=[0.94 * b for b in base_tok])
    s = pair_bench.summarize(base, uniform, BETTER)
    assert (s["ar_us_per_token"]["wins"], s["ar_us_per_token"]["rule"]) == (10, "gain")
    assert (s["sd_greedy_tokens_per_s"]["wins"], s["sd_greedy_tokens_per_s"]["rule"]) == (
        0, "loss")

    eight = runs(ar_us_per_token=[(1.01 if i in (3, 7) else 0.94) * b
                                  for i, b in enumerate(base_us)])
    row = pair_bench.summarize(base, eight, BETTER)["ar_us_per_token"]
    assert row["wins"] == 8
    assert row["base_median"] - row["change_median"] > row["base_iqr"]
    assert row["rule"] is None

    wide = [100.0 + 2.0 * i for i in range(10)]  # IQR 9
    inside = pair_bench.summarize(runs(ar_us_per_token=wide),
                                  runs(ar_us_per_token=[b - 1.0 for b in wide]), BETTER)
    assert inside["ar_us_per_token"]["wins"] == 10
    assert inside["ar_us_per_token"]["rule"] is None
