import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from speclab import ModelConfig, init_model, model
from speclab.distill import extract_sparse_logits, top_k
from speclab.errors import ConfigError, LengthError
from speclab.latency import measure_latency
from speclab.losses import LossSpec, ce_loss
from speclab.model import (KVCache, _rows, _sigmoid, _step, backward, cast_state, forward,
                           forward_train, param_count, param_split)
from speclab.sampling import SamplingPolicy, autoregressive_decode, sample, softmax
from speclab.specdec import SpecConfig, generate, start_session
from speclab.training import Batch, loss_and_grads

from conftest import make_pair, reference_cached_forward, rel_err, tensor_walk_count


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


LAYOUT_PARAMS = [(32, 4, 4, False), (64, 8, 2, False), (48, 6, 3, True), (32, 4, 1, True)]
LAYOUT_IDS = ["mha", "gqa", "gqa_tied", "mqa_tied"]
LAYOUTS = pytest.mark.parametrize("hidden, heads, kv_heads, tie", LAYOUT_PARAMS, ids=LAYOUT_IDS)
DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])


def _layout_state(hidden, heads, kv_heads, tie, dtype, max_seq_len):
    cfg = ModelConfig(hidden_size=hidden, intermediate_size=2 * hidden, n_layers=2,
                      n_heads=heads, n_kv_heads=kv_heads, vocab_size=50,
                      max_seq_len=max_seq_len, tie_embeddings=tie)
    return cast_state(init_model(cfg, seed=heads + kv_heads), dtype)


def _error(run, st, tokens, filled_len):
    """(type, message) of what `run(cache, tokens)` raises on a cache that
    claims `filled_len` positions, and whether the cache was left as it was."""
    cache = KVCache(st.config, st.dtype)
    cache.filled_len = filled_len
    with pytest.raises((ConfigError, LengthError)) as info:
        run(cache, tokens)
    untouched = not cache.keys.any() and not cache.values.any()
    return type(info.value), str(info.value), untouched


@DTYPES
@LAYOUTS
def test_one_token_step_equals_the_batched_forward_bit_for_bit(hidden, heads, kv_heads, tie,
                                                              dtype):
    """`_step` at every position gives the logits and writes the key/value
    rows that the batched reference gives on its own cache, bit for bit,
    and raises what it raises for an out-of-range token and a full context."""
    st = _layout_state(hidden, heads, kv_heads, tie, dtype, max_seq_len=20)
    cfg = st.config
    step, batch = KVCache(cfg, dtype), KVCache(cfg, dtype)
    for tok in np.random.default_rng(hidden).integers(0, 50, size=cfg.max_seq_len).tolist():
        logits = _step(st, tok, step)
        want = reference_cached_forward(st, [tok], batch)
        step.filled_len += 1
        batch.filled_len += 1
        assert logits.tobytes() == want[0].tobytes(), f"position {step.filled_len - 1}"
        assert step.keys.tobytes() == batch.keys.tobytes()
        assert step.values.tobytes() == batch.values.tobytes()

    for tok, filled_len in [(50, 3), (-1, 3), (1, cfg.max_seq_len), (50, cfg.max_seq_len)]:
        assert (_error(lambda c, t: _step(st, t, c), st, tok, filled_len)
                == _error(lambda c, t: reference_cached_forward(st, [t], c), st, tok,
                          filled_len))


@DTYPES
@LAYOUTS
def test_rows_equal_the_batched_forward_bit_for_bit(hidden, heads, kv_heads, tie, dtype):
    """`_rows` of S new tokens after `start` cached ones gives the logits and
    the whole key/value caches that the batched reference gives, bit for bit,
    and so does `_step` for S = 1; both raise what it raises, before any
    cache write."""
    st = _layout_state(hidden, heads, kv_heads, tie, dtype, max_seq_len=40)
    cfg = st.config
    rng = np.random.default_rng(hidden)
    for start in (0, 1, 5, 13):
        for S in (1, 2, 3, 4, 5, 6, 24):
            tokens = rng.integers(0, 50, size=start + S)
            caches = [KVCache(cfg, dtype) for _ in range(3)]
            for cache in caches if start else ():
                reference_cached_forward(st, tokens[:start], cache)
                cache.filled_len = start
            want = reference_cached_forward(st, tokens[start:], caches[0])
            runs = {"_rows": (_rows(st, tokens[start:], caches[1]), caches[1])}
            if S == 1:
                runs["_step"] = (_step(st, int(tokens[start]), caches[2])[None], caches[2])
            for name, (got, cache) in runs.items():
                where = f"{name}, start {start}, S {S}"
                assert got.tobytes() == want.tobytes(), where
                assert cache.keys.tobytes() == caches[0].keys.tobytes(), where
                assert cache.values.tobytes() == caches[0].values.tobytes(), where

    full = cfg.max_seq_len
    for tokens, filled_len in [([3, 50], 3), ([-1, 3, 4], 3), ([1], full), ([1, 2], full),
                               ([1, 2, 3], full - 2), ([50, 1, 2], full - 2)]:
        tokens = np.array(tokens)
        assert (_error(lambda c, t: _rows(st, t, c), st, tokens, filled_len)
                == _error(lambda c, t: reference_cached_forward(st, t, c), st, tokens,
                          filled_len))


@DTYPES
@LAYOUTS
def test_uncached_forward_equals_forward_train_bit_for_bit(hidden, heads, kv_heads, tie, dtype):
    """An uncached `forward` of S tokens gives the logits `forward_train`
    gives on the (1, S) batch of them, bit for bit."""
    st = _layout_state(hidden, heads, kv_heads, tie, dtype, max_seq_len=24)
    rng = np.random.default_rng(hidden + 1)
    for S in (1, 2, 5, 24):
        tokens = rng.integers(0, 50, size=S)
        logits, _ = forward(st, tokens)
        want, _ = forward_train(st, tokens[None])
        assert logits.tobytes() == want[0].tobytes(), f"S {S}"


@DTYPES
@pytest.mark.parametrize("hidden, heads, kv_heads, tie", LAYOUT_PARAMS + [(64, 4, 4, False)],
                         ids=LAYOUT_IDS + ["mha_64"])
def test_forward_train_rows_equal_uncached_forwards_bit_for_bit(hidden, heads, kv_heads, tie,
                                                               dtype):
    """Each row of `forward_train` on a (B, S) batch gives the logits the
    uncached `forward` of that row gives, bit for bit: the weight products
    run `@` on the batch and `ndarray.dot` on one sequence."""
    st = _layout_state(hidden, heads, kv_heads, tie, dtype, max_seq_len=64)
    rng = np.random.default_rng(hidden + heads)
    for B, S in [(2, 1), (3, 2), (4, 5), (5, 24), (16, 29), (16, 31), (16, 64)]:
        tokens = rng.integers(0, 50, size=(B, S))
        logits, _ = forward_train(st, tokens)
        for b in range(B):
            assert logits[b].tobytes() == forward(st, tokens[b])[0].tobytes(), f"{B}x{S}, row {b}"


@pytest.mark.parametrize("tokens", [[1.7, 2], ["3", 4], [True, False]],
                         ids=["float", "str", "bool"])
@pytest.mark.parametrize("route", ["cached_one", "cached_rows", "uncached"])
def test_forward_rejects_token_ids_that_are_not_integers(tiny_state, tokens, route):
    """A float, string or bool token id raises ConfigError on every route,
    before any cache write, instead of being rounded or parsed into a token."""
    tokens = {"cached_one": tokens[:1], "cached_rows": tokens, "uncached": tokens}[route]
    cache = None if route == "uncached" else KVCache(tiny_state.config)
    with pytest.raises(ConfigError, match="token ids must be integers"):
        forward(tiny_state, tokens, cache)
    if cache is not None:
        assert cache.filled_len == 0 and not cache.keys.any() and not cache.values.any()


def test_forward_train_rejects_a_float_batch(tiny_state):
    with pytest.raises(ConfigError, match="token ids must be integers"):
        forward_train(tiny_state, np.array([[1.0, 2.0], [3.0, 4.0]]))


@pytest.mark.parametrize("tokens", [np.zeros((0, 3), int), np.zeros((2, 0), int),
                                    np.array([1, 2, 3]), np.ones((2, 2, 3), int)],
                         ids=["(0, 3)", "(2, 0)", "1-D", "3-D"])
def test_forward_train_rejects_a_batch_that_is_not_2d_or_holds_no_token(tiny_state, tokens):
    with pytest.raises(ConfigError, match="forward_train expects"):
        forward_train(tiny_state, tokens)


@pytest.mark.parametrize("tokens", [[1], [1, 2]], ids=["cached_one", "cached_rows"])
def test_forward_rejects_a_cache_of_another_dtype(tiny_state, tokens):
    """A float32 cache cannot hold a float64 model's keys: ConfigError on
    both cached routes, before any cache write."""
    cache = KVCache(tiny_state.config, np.float32)
    with pytest.raises(ConfigError, match="cache cannot hold"):
        forward(cast_state(tiny_state, np.float64), tokens, cache)
    assert cache.filled_len == 0 and not cache.keys.any() and not cache.values.any()


def test_constants_are_keyed_by_dtype_bit_for_bit():
    """`_step` calls on a float32 state and on its float64 copy, interleaved
    in one process, each give the logits and write the key/value rows that
    the batched reference gives on its own cache, bit for bit: neither
    dtype reads the other's cached constants or rope tables."""
    model._constants.cache_clear()
    st32 = _layout_state(64, 8, 2, False, np.float32, max_seq_len=12)
    states = [st32, cast_state(st32, np.float64)]
    caches = [(KVCache(st.config, st.dtype), KVCache(st.config, st.dtype)) for st in states]
    for pos, tok in enumerate(np.random.default_rng(5).integers(0, 50, size=12).tolist()):
        for st, (step, batch) in zip(states, caches):
            logits = _step(st, tok, step)
            want = reference_cached_forward(st, [tok], batch)
            step.filled_len += 1
            batch.filled_len += 1
            where = f"{st.dtype}, position {pos}"
            assert logits.dtype == st.dtype, where
            assert logits.tobytes() == want[0].tobytes(), where
            assert step.keys.tobytes() == batch.keys.tobytes(), where
            assert step.values.tobytes() == batch.values.tobytes(), where


@DTYPES
def test_interleaved_caches_step_bit_for_bit(dtype):
    """Two caches of one state, and a draft's and a target's cache, stepped
    interleaved as speculative decoding steps them (a few draft tokens, then
    the target): each gives the logits and the key/value bytes it gives when
    stepped alone, so no cache's `_step` scratch reaches another's."""
    target = _layout_state(64, 8, 2, False, dtype, max_seq_len=16)
    draft = _layout_state(32, 2, 1, True, dtype, max_seq_len=16)
    rng = np.random.default_rng(11)
    runs = [(st, rng.integers(0, 50, size=16).tolist()) for st in (target, target, draft)]

    def step(st, cache, tok):
        logits = _step(st, tok, cache)
        cache.filled_len += 1
        return logits.tobytes()

    alone = []
    for st, tokens in runs:
        cache = KVCache(st.config, dtype)
        alone.append(([step(st, cache, tok) for tok in tokens], cache))
    caches = [KVCache(st.config, dtype) for st, _ in runs]
    got = [[] for _ in runs]
    # the draft steps three times, then each target cache once, as in a
    # speculative block; then the two target caches step on alone
    for i in (2, 2, 2, 0, 1) * 4 + (0, 1, 0, 1, 2) * 4 + (0, 1) * 4:
        st, tokens = runs[i]
        got[i].append(step(st, caches[i], tokens[caches[i].filled_len]))
    for i, ((want, lone), cache) in enumerate(zip(alone, caches)):
        assert got[i] == want, f"cache {i}"
        assert cache.keys.tobytes() == lone.keys.tobytes(), f"cache {i}"
        assert cache.values.tobytes() == lone.values.tobytes(), f"cache {i}"


def test_single_sequence_forwards_never_reach_the_training_forward(monkeypatch):
    """Decoding (AR, and greedy and multinomial SD whose fully accepted
    blocks make two-token draft catch-ups), teacher extraction and the
    latency reps call `_rows` with one (S,) sequence and no tape; only
    `forward_train` passes it a (B, S) batch and a tape."""
    _, target = make_pair()
    draft = cast_state(target, target.dtype)  # a copy, so every proposal is accepted
    calls = []
    rows = model._rows

    def counted_rows(state, tokens, cache=None, tape=None):
        calls.append((state is draft, cache is not None, tokens.shape, tape is not None))
        return rows(state, tokens, cache, tape)

    monkeypatch.setattr(model, "_rows", counted_rows)
    autoregressive_decode(target, [1, 2, 3], SamplingPolicy("greedy"), 8)
    for policy in (SamplingPolicy("greedy"), SamplingPolicy("multinomial", temperature=1.0)):
        session = start_session(draft, target, [1, 2, 3], policy=policy,
                                rng=np.random.default_rng(0))
        result = generate(session, SpecConfig(gamma=3, policy=policy, max_new_tokens=12))
        assert len(result.tokens) == 12
    assert (True, True, (2,), False) in calls  # the draft's catch-ups after fully accepted blocks
    list(extract_sparse_logits(target, [[1, 2, 3, 4], [5, 6]], k=4))
    measure_latency(target, 3, warmup=0, reps=5, seed=0)
    assert calls and all(len(shape) == 1 and not taped for _, _, shape, taped in calls)
    calls.clear()
    forward_train(target, np.array([[1, 2, 3], [4, 5, 6]]))
    assert calls == [(False, False, (2, 3), True)]


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
    targets = rng.integers(0, 20, size=(2, 6))
    teacher = top_k(forward_train(init_model(cfg, seed=11), tokens)[0], 6)
    batch = Batch(inputs=tokens, mask=mask, gold=targets[mask], teacher=teacher[mask])
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


@DTYPES
def test_sigmoid_equals_its_out_of_place_form_by_bytes(dtype):
    """`_sigmoid`, with its in-place steps and 0-d constants of the dtype,
    gives the bytes of `np.where(x >= 0, 1, e) / (1 + e)`, e = exp(-|x|),
    over the range and extremes `test_sigmoid_edges` uses, the infinities
    and the dtype's own extremes."""
    info = np.finfo(dtype)
    x = np.concatenate([np.array([-1e4, -0.0, 0.0, 1e4, -np.inf, np.inf]),
                        np.linspace(-80.0, 80.0, 1001)]).astype(dtype)
    x = np.concatenate([x, np.array([info.min, info.max, -info.tiny, info.tiny], dtype)])
    e = np.exp(-np.abs(x))
    want = np.where(x >= 0, 1, e) / (1 + e)
    assert want.dtype == dtype
    assert _sigmoid(x).tobytes() == want.tobytes()


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
