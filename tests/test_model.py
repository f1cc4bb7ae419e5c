import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from speclab import ModelConfig, init_model
from speclab.distill import top_k
from speclab.errors import ConfigError, LengthError
from speclab.losses import LossSpec, ce_loss
from speclab.model import (KVCache, _forward_batch, _sigmoid, _step, backward, cast_state,
                           forward, forward_train, param_count, param_split)
from speclab.sampling import SamplingPolicy, sample, softmax
from speclab.training import Batch, loss_and_grads

from conftest import rel_err, tensor_walk_count


def test_init_deterministic(tiny_config):
    a = init_model(tiny_config, seed=7)
    b = init_model(tiny_config, seed=7)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    c = init_model(tiny_config, seed=8)
    assert any(not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors)


def test_init_contract():
    cfg = ModelConfig(hidden_size=8, intermediate_size=16, n_layers=2,
                      n_heads=2, n_kv_heads=2, vocab_size=260, max_seq_len=16)
    st = init_model(cfg, seed=1)
    for name, t in st.tensors.items():
        assert np.isfinite(t).all()
        if name.endswith("norm"):
            assert np.array_equal(t, np.ones_like(t))


def test_divisibility_errors():
    with pytest.raises(ConfigError):
        ModelConfig(hidden_size=512, intermediate_size=1024, n_layers=1,
                    n_heads=7, n_kv_heads=7, vocab_size=100, max_seq_len=16)
    with pytest.raises(ConfigError):
        ModelConfig(hidden_size=8, intermediate_size=16, n_layers=1,
                    n_heads=4, n_kv_heads=3, vocab_size=100, max_seq_len=16)


def test_softmax_rows_normalized(tiny_state):
    rng = np.random.default_rng(0)
    toks = rng.integers(0, 40, size=12).tolist()
    logits, _ = forward(tiny_state, toks)
    assert logits.shape == (12, 40)
    sums = np.array([softmax(row).sum() for row in logits])
    assert np.allclose(sums, 1.0, atol=1e-6)


def test_cached_matches_full_on_random_pairs():
    rng = np.random.default_rng(123)
    for trial in range(100):
        heads = int(rng.choice([1, 2, 4]))
        kv = int(rng.choice([h for h in (1, 2, 4) if heads % h == 0]))
        cfg = ModelConfig(hidden_size=8 * heads, intermediate_size=16,
                          n_layers=int(rng.integers(1, 3)), n_heads=heads,
                          n_kv_heads=kv, vocab_size=50, max_seq_len=24)
        st = init_model(cfg, seed=trial)
        toks = rng.integers(0, 50, size=int(rng.integers(2, 16))).tolist()
        full, _ = forward(st, toks)
        cache = KVCache(cfg)
        # feed in two uneven chunks plus single steps
        cut = max(1, len(toks) // 3)
        rows = [forward(st, toks[:cut], cache)[0]]
        for t in toks[cut:]:
            rows.append(forward(st, [t], cache)[0])
        inc = np.vstack(rows)
        assert rel_err(inc, full) < 1e-4, f"trial {trial}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden, heads, kv_heads, tie", [
    (32, 4, 4, False), (64, 8, 2, False), (48, 6, 3, True), (32, 4, 1, True)],
    ids=["mha", "gqa", "gqa_tied", "mqa_tied"])
def test_one_token_step_equals_the_batched_forward_bit_for_bit(hidden, heads, kv_heads, tie,
                                                              dtype):
    """`_step` at every position gives the logits and writes the key/value
    rows that `_forward_batch` gives on its own cache, bit for bit, and
    raises what it raises for an out-of-range token and a full context."""
    cfg = ModelConfig(hidden_size=hidden, intermediate_size=2 * hidden, n_layers=2,
                      n_heads=heads, n_kv_heads=kv_heads, vocab_size=50, max_seq_len=20,
                      tie_embeddings=tie)
    st = cast_state(init_model(cfg, seed=heads + kv_heads), dtype)
    step, batch = KVCache(cfg, dtype), KVCache(cfg, dtype)
    for tok in np.random.default_rng(hidden).integers(0, 50, size=cfg.max_seq_len).tolist():
        logits = _step(st, tok, step)
        want, _ = _forward_batch(st, np.array([[tok]]), batch)
        step.filled_len += 1
        batch.filled_len += 1
        assert logits.tobytes() == want[0, 0].tobytes(), f"position {step.filled_len - 1}"
        assert step.keys.tobytes() == batch.keys.tobytes()
        assert step.values.tobytes() == batch.values.tobytes()

    def error(run, tok, filled_len):
        cache = KVCache(cfg, dtype)
        cache.filled_len = filled_len
        with pytest.raises((ConfigError, LengthError)) as info:
            run(cache, tok)
        return type(info.value), str(info.value)

    for tok, filled_len in [(50, 3), (-1, 3), (1, cfg.max_seq_len), (50, cfg.max_seq_len)]:
        assert (error(lambda c, t: _step(st, t, c), tok, filled_len)
                == error(lambda c, t: _forward_batch(st, np.array([[t]]), c), tok, filled_len))


def test_context_overflow():
    cfg = ModelConfig(hidden_size=8, intermediate_size=16, n_layers=1,
                      n_heads=2, n_kv_heads=2, vocab_size=40, max_seq_len=8)
    st = init_model(cfg, seed=0)
    with pytest.raises(LengthError):
        forward(st, [1] * 9)
    cache = KVCache(cfg)
    forward(st, [1] * 8, cache)
    cache.filled_len = 8
    with pytest.raises(LengthError):
        forward(st, [1], cache)


def test_cache_truncate_rules(tiny_config):
    cache = KVCache(tiny_config)
    st = init_model(tiny_config, seed=0)
    forward(st, [1, 2, 3], cache)
    assert cache.filled_len == 3
    cache.truncate(1)
    assert cache.filled_len == 1
    with pytest.raises(LengthError):
        cache.truncate(5)


def test_float64_cast_runs(tiny_state):
    st64 = cast_state(tiny_state, np.float64)
    logits, _ = forward(st64, [1, 2, 3])
    assert logits.dtype == np.float64
    logits_b, _ = forward_train(st64, np.array([[1, 2, 3]]))
    assert np.allclose(logits, logits_b[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_returns_state_dtype(tiny_state, dtype):
    """A float32 state computes in float32 and a float64 cast in float64,
    uncached, cached and on the training path."""
    st = cast_state(tiny_state, dtype)
    logits, _ = forward(st, [1, 2, 3])
    assert logits.dtype == dtype
    cached, _ = forward(st, [1, 2, 3], KVCache(st.config, dtype=st.dtype))
    assert cached.dtype == dtype
    train_logits, _ = forward_train(st, np.array([[1, 2, 3]]))
    assert train_logits.dtype == dtype


@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("heads,kv_heads", [(2, 1), (4, 2), (2, 2)])
def test_backward_matches_finite_differences(heads, kv_heads, tie):
    """`backward` of `ce_loss` equals central differences on sampled entries
    of every tensor, at float64, for grouped, multi-query and plain heads."""
    cfg = ModelConfig(hidden_size=16, intermediate_size=24, n_layers=2,
                      n_heads=heads, n_kv_heads=kv_heads, vocab_size=20,
                      max_seq_len=16, tie_embeddings=tie)
    st = cast_state(init_model(cfg, seed=3), np.float64)
    rng = np.random.default_rng(4)
    for name, t in st.tensors.items():
        if name.endswith("norm"):  # gains away from 1 so their gradients are generic
            t += 0.3 * rng.standard_normal(t.shape)
    tokens = rng.integers(0, 20, size=(2, 6))
    gold = rng.integers(0, 20, size=(2, 6))

    def loss() -> float:
        return ce_loss(forward_train(st, tokens)[0], gold)[0]

    logits, tape = forward_train(st, tokens)
    grads = backward(st, tape, ce_loss(logits, gold)[1])
    eps = 1e-5
    worst = 0.0
    for name, t in st.tensors.items():
        flat = t.reshape(-1)
        for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss()
            flat[i] = keep - eps
            down = loss()
            flat[i] = keep
            numeric = (up - down) / (2 * eps)
            analytic = grads[name].reshape(-1)[i]
            worst = max(worst, abs(analytic - numeric) / max(abs(numeric), 1e-3))
    assert worst < 1e-5


@pytest.mark.parametrize("kind", ["KL", "TVD", "mix"])
@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("heads,kv_heads", [(2, 1), (4, 2)])
def test_distillation_backward_matches_finite_differences(heads, kv_heads, tie, kind):
    """`loss_and_grads` with sparse KL, TVD and a CE/KL/TVD mix equals
    central differences, at float64. The teacher pairs are `top_k` of a
    second model, and one position per row is masked."""
    cfg = ModelConfig(hidden_size=16, intermediate_size=24, n_layers=2,
                      n_heads=heads, n_kv_heads=kv_heads, vocab_size=20,
                      max_seq_len=16, tie_embeddings=tie)
    st = cast_state(init_model(cfg, seed=3), np.float64)
    rng = np.random.default_rng(5)
    for name, t in st.tensors.items():
        if name.endswith("norm"):
            t += 0.3 * rng.standard_normal(t.shape)
    tokens = rng.integers(0, 20, size=(2, 6))
    mask = np.ones((2, 6), dtype=bool)
    mask[[0, 1], [2, 3]] = False
    batch = Batch(inputs=tokens, targets=rng.integers(0, 20, size=(2, 6)), mask=mask,
                  teacher=top_k(forward_train(init_model(cfg, seed=11), tokens)[0], 6))
    spec = {"KL": LossSpec(kl=1.0), "TVD": LossSpec(tvd=1.0),
            "mix": LossSpec(ce=0.4, kl=0.3, tvd=0.3)}[kind]

    _, grads, _ = loss_and_grads(st, batch, spec)
    eps = 1e-5
    worst = 0.0
    for name, t in st.tensors.items():
        flat = t.reshape(-1)
        for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss_and_grads(st, batch, spec)[0]
            flat[i] = keep - eps
            down = loss_and_grads(st, batch, spec)[0]
            flat[i] = keep
            numeric = (up - down) / (2 * eps)
            worst = max(worst, abs(grads[name].reshape(-1)[i] - numeric)
                        / max(abs(numeric), 1e-3))
    assert worst < 1e-5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_edges(dtype):
    """Exactly 1/2 at both zeros, within a few ulp of 1/(1+exp(-x)), and
    saturating at +-1e4 without an overflow warning."""
    x = np.concatenate([np.array([-1e4, -0.0, 0.0, 1e4]),
                        np.linspace(-80.0, 80.0, 1001)]).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = _sigmoid(x)
    assert s.dtype == dtype
    assert s[1] == 0.5 and s[2] == 0.5
    assert s[0] == 0.0 and s[3] == 1.0
    ref = 1.0 / (1.0 + np.exp(-x[4:].astype(np.longdouble)))
    np.testing.assert_allclose(s[4:], ref.astype(np.float64),
                               rtol=4 * np.finfo(dtype).eps, atol=0)


@st.composite
def model_configs(draw):
    n_kv_heads = draw(st.integers(1, 4))
    n_heads = n_kv_heads * draw(st.integers(1, 4))
    return ModelConfig(hidden_size=n_heads * draw(st.integers(1, 8)),
                       intermediate_size=draw(st.integers(1, 64)),
                       n_layers=draw(st.integers(1, 12)), n_heads=n_heads,
                       n_kv_heads=n_kv_heads, vocab_size=draw(st.integers(1, 500)),
                       max_seq_len=8, tie_embeddings=draw(st.booleans()))


class TestParamCount:
    @given(cfg=model_configs())
    def test_split_matches_a_walk_over_every_tensor(self, cfg):
        for exclude in (False, True):
            fixed, per_layer = param_split(cfg, exclude)
            assert (fixed + cfg.n_layers * per_layer == param_count(cfg, exclude)
                    == tensor_walk_count(cfg, exclude))

    def test_hand_worked_example(self):
        cfg = ModelConfig(hidden_size=4, intermediate_size=8, n_layers=1,
                          n_heads=1, n_kv_heads=1, vocab_size=10, max_seq_len=8)
        # emb 40 + attn 64 + mlp 96 + norms 12 + head 40
        assert param_count(cfg) == 252
        assert param_count(cfg, exclude_embedding_tables=True) == 172

    def test_tied_embeddings_halve_vocab_term(self):
        untied = ModelConfig(hidden_size=4, intermediate_size=8, n_layers=1,
                             n_heads=1, n_kv_heads=1, vocab_size=10, max_seq_len=8)
        tied = ModelConfig(hidden_size=4, intermediate_size=8, n_layers=1,
                           n_heads=1, n_kv_heads=1, vocab_size=10, max_seq_len=8,
                           tie_embeddings=True)
        assert param_count(untied) - param_count(tied) == 10 * 4

    def test_depth_linearity_excluded(self):
        def cfg(layers):
            return ModelConfig(hidden_size=8, intermediate_size=16, n_layers=layers,
                               n_heads=2, n_kv_heads=2, vocab_size=100, max_seq_len=8)
        one = param_count(cfg(1), True)
        two = param_count(cfg(2), True)
        four = param_count(cfg(4), True)
        per_layer = two - one
        assert four == two + 2 * per_layer

    def test_excluded_independent_of_vocab(self):
        def cfg(vocab):
            return ModelConfig(hidden_size=8, intermediate_size=16, n_layers=2,
                               n_heads=2, n_kv_heads=2, vocab_size=vocab, max_seq_len=8)
        assert (param_count(cfg(50), True) == param_count(cfg(5000), True))
        tied = ModelConfig(hidden_size=8, intermediate_size=16, n_layers=2,
                           n_heads=2, n_kv_heads=2, vocab_size=50, max_seq_len=8,
                           tie_embeddings=True)
        # every vocab-dependent tensor is excluded in both variants
        assert param_count(tied, True) == param_count(cfg(50), True)


class TestSampling:
    def test_greedy_tie_break_smallest_id(self):
        policy = SamplingPolicy("greedy")
        rng = np.random.default_rng(0)
        assert sample(np.array([0.0, 5.0, 5.0]), policy, rng) == 1

    def test_multinomial_concentration(self):
        policy = SamplingPolicy("multinomial", temperature=0.6)
        rng = np.random.default_rng(42)
        logits = np.array([0.0, 10.0, 0.0])
        draws = [sample(logits, policy, rng) for _ in range(10_000)]
        assert np.mean(np.array(draws) == 1) > 0.99

    def test_small_temperature_matches_greedy(self):
        logits = np.array([0.3, 2.0, -1.0, 1.9])
        rng = np.random.default_rng(0)
        cold = SamplingPolicy("multinomial", temperature=0.01)
        greedy = SamplingPolicy("greedy")
        for _ in range(100):
            assert sample(logits, cold, rng) == sample(logits, greedy, rng)

    def test_seeded_determinism(self):
        policy = SamplingPolicy("multinomial", temperature=1.0)
        logits = np.linspace(-1, 1, 20)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        a = [sample(logits, policy, rng_a) for _ in range(3)]
        b = [sample(logits, policy, rng_b) for _ in range(3)]
        assert a == b

    def test_greedy_seed_independent(self):
        logits = np.linspace(-1, 1, 20)
        outs = {sample(logits, SamplingPolicy("greedy"), np.random.default_rng(s))
                for s in range(10)}
        assert len(outs) == 1
