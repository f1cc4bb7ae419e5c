import json
import time
import types

import pytest
from hypothesis import given, strategies as st

from speclab import ModelConfig, init_model
from speclab.errors import ConfigError
from speclab.latency import MIN_TICKS, measure_latency
from speclab.metrics import (LatencyProfile, expected_speedup, tpot_ar, tpot_sd,
                             write_table)

latency = st.floats(min_value=1e-7, max_value=10.0, allow_nan=False, allow_infinity=False)


@given(l_draft=latency, l_target_1=latency, l_target_gamma=latency,
       gamma=st.integers(1, 16), alpha=st.floats(0.0, 1.0))
def test_speedup_is_tpot_ratio(l_draft, l_target_1, l_target_gamma, gamma, alpha):
    """expected_speedup is exactly tpot_ar / tpot_sd, and equals the closed
    form tau / ((l_draft/l_target_1)*gamma + l_target_gamma/l_target_1)."""
    p = LatencyProfile(l_draft=l_draft, l_target_1=l_target_1, l_target_gamma=l_target_gamma)
    tau = 1.0 + alpha * gamma
    speedup = expected_speedup(p, gamma, tau)
    assert tpot_ar(p) / tpot_sd(p, gamma, tau) == speedup
    closed = tau / (l_draft / l_target_1 * gamma + l_target_gamma / l_target_1)
    assert speedup == pytest.approx(closed, rel=1e-12)


def test_write_table_keeps_previous_files_on_error(tmp_path):
    """A row with a key outside `columns` makes DictWriter raise ValueError;
    the CSV and JSON written before are left intact, with no temp file."""
    csv_path, json_path = tmp_path / "out" / "t.csv", tmp_path / "out" / "t.json"
    write_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}], csv_path, json_path)
    assert csv_path.read_bytes() == b"a,b\r\n1,2.5\r\n3,4.0\r\n"
    assert json.loads(json_path.read_text()) == [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}]
    before = csv_path.read_bytes(), json_path.read_bytes()
    with pytest.raises(ValueError):
        write_table([{"a": 5, "zzz": 6}], csv_path, json_path, columns=["a"])
    assert (csv_path.read_bytes(), json_path.read_bytes()) == before
    assert sorted(p.name for p in csv_path.parent.iterdir()) == ["t.csv", "t.json"]


def fake_clock(monkeypatch, durations, resolution=None):
    """Replace the `time` module of `speclab.latency` with a clock whose i-th
    pair of `perf_counter` reads is exactly `durations[i]` apart and which
    reports `resolution` (by default the real `perf_counter`'s)."""
    resolution = resolution or time.get_clock_info("perf_counter").resolution
    monkeypatch.setattr("speclab.latency.time", types.SimpleNamespace(
        perf_counter=iter([t for d in durations for t in (0.0, d)]).__next__,
        get_clock_info=lambda name: types.SimpleNamespace(resolution=resolution)))


@pytest.fixture
def tiny_latency_state():
    return init_model(ModelConfig(hidden_size=8, intermediate_size=16, n_layers=1, n_heads=2,
                                  n_kv_heads=1, vocab_size=30, max_seq_len=24), seed=0)


def test_measure_latency_discards_warmup_and_takes_median(tiny_latency_state, monkeypatch):
    fake_clock(monkeypatch, [100.0, 200.0, 0.5, 0.1, 0.4, 0.2, 0.3])
    run = measure_latency(tiny_latency_state, 2, warmup=2, reps=5, seed=0)
    assert run.samples == [0.5, 0.1, 0.4, 0.2, 0.3]
    assert run.median == 0.3
    assert not run.flagged
    fake_clock(monkeypatch, [1, 2, 3, 4, 5, 6])
    assert measure_latency(tiny_latency_state, 1, warmup=0, reps=6, seed=0).median == 3.5


def test_measure_latency_flags_coarse_timings(tiny_latency_state, monkeypatch):
    floor = MIN_TICKS * time.get_clock_info("perf_counter").resolution
    fake_clock(monkeypatch, [floor / 2] + [1.0] * 4)
    assert measure_latency(tiny_latency_state, 1, warmup=0, reps=5, seed=0).flagged
    fake_clock(monkeypatch, [floor * 2] + [1.0] * 4)
    assert not measure_latency(tiny_latency_state, 1, warmup=0, reps=5, seed=0).flagged


def test_measure_latency_judges_samples_by_the_clock_that_took_them(tiny_latency_state,
                                                                     monkeypatch):
    """5 ms forwards read off a clock that ticks every 1 ms are 5 ticks long,
    under MIN_TICKS."""
    fake_clock(monkeypatch, [0.005] * 5, resolution=0.001)
    run = measure_latency(tiny_latency_state, 1, warmup=0, reps=5, seed=0)
    assert run.samples == [0.005] * 5
    assert run.flagged


@pytest.mark.parametrize("kwargs,match", [
    ({"block_size": 1, "reps": 4}, "repetitions"),
    ({"block_size": 1, "warmup": -1}, "warmup"),
    ({"block_size": 0}, "block_size"),
    ({"block_size": 9}, "max_seq_len"),
], ids=["reps", "warmup", "block", "block_past_context"])
def test_measure_latency_rejects_bad_settings(tiny_latency_state, monkeypatch, kwargs, match):
    fake_clock(monkeypatch, [])
    with pytest.raises(ConfigError, match=match):
        measure_latency(tiny_latency_state, **kwargs, seed=0)

