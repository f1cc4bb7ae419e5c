import math

import numpy as np
import pytest

from speclab import ModelConfig, init_model
from speclab.errors import ConfigError, LengthError
from speclab.model import RMS_EPS, tensor_shapes


@pytest.fixture
def tiny_config():
    return ModelConfig(hidden_size=8, intermediate_size=16, n_layers=2,
                       n_heads=2, n_kv_heads=1, vocab_size=40, max_seq_len=32)


@pytest.fixture
def tiny_state(tiny_config):
    return init_model(tiny_config, seed=7)


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Error relative to the reference row scale (logits near zero would
    otherwise dominate a plain elementwise ratio)."""
    scale = np.maximum(np.abs(want).max(axis=-1, keepdims=True), 1e-6)
    return float((np.abs(got - want) / scale).max())


def tensor_walk_count(config: ModelConfig, exclude_embedding_tables: bool = False) -> int:
    """Reference parameter count: the elements of every tensor `tensor_shapes`
    lists, the embedding tables dropped on request."""
    return sum(math.prod(shape) for name, shape in tensor_shapes(config).items()
               if not (exclude_embedding_tables and name in ("embed", "head")))


def reference_softmax(row: np.ndarray, temperature: float) -> np.ndarray:
    """The one-row softmax, spelled out: scale, subtract the max, exp, normalize."""
    z = np.asarray(row, dtype=np.float64) / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def reference_draw(p: np.ndarray, u: float) -> int:
    """The inverse-CDF rule: the first index whose cumulative mass exceeds u,
    but never past the last index with mass."""
    return int(min(np.searchsorted(np.cumsum(p), u, side="right"), np.flatnonzero(p > 0)[-1]))


def reference_cached_forward(state, tokens, cache) -> np.ndarray:
    """The cached forward of one sequence in the training forward's batched
    (1, S) layout, spelled out with out-of-place expressions: the reference
    that `_rows` and `_step` match bit for bit. Writes the new keys and
    values into `cache` without advancing `filled_len` and returns the
    (S, vocab) logits; raises before any write on an overflowing context
    or an out-of-range token."""
    cfg, t = state.config, state.tensors
    tokens = np.asarray(tokens, dtype=np.int64)[None]
    S = tokens.shape[1]
    start = cache.filled_len
    total = start + S
    if total > cfg.max_seq_len:
        raise LengthError(f"context of {total} tokens exceeds max_seq_len {cfg.max_seq_len}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ConfigError("token id out of vocabulary range")

    H, KV, d = cfg.n_heads, cfg.n_kv_heads, cfg.head_dim
    G = H // KV
    inv_freq = cfg.rope_base ** (-np.arange(0, d, 2, dtype=np.float64) / d)
    angles = np.arange(start, total, dtype=np.float64)[:, None] * np.concatenate([inv_freq,
                                                                                   inv_freq])
    sin = np.sin(angles)
    sin[:, :d // 2] *= -1.0
    cos = np.cos(angles).astype(state.dtype)[:, None]  # (S, 1, d), broadcast over heads
    sin = sin.astype(state.dtype)[:, None]
    mask = np.triu(np.full((cfg.max_seq_len, cfg.max_seq_len), -np.inf, state.dtype),
                   k=1)[start:total, :total]

    def rms_norm(x, gain):
        r = 1.0 / np.sqrt(np.square(x).sum(axis=-1, keepdims=True) / x.shape[-1] + RMS_EPS)
        return x * r * gain

    def rotate(x):
        swapped = np.concatenate((x[..., d // 2:], x[..., :d // 2]), axis=-1)
        return x * cos + swapped * sin

    def sigmoid(x):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, np.ones_like(e), e) / (1 + e)

    x = t["embed"][tokens]
    for l in range(cfg.n_layers):
        p = f"layers.{l}."
        y1 = rms_norm(x, t[p + "attn_norm"])
        q = rotate((y1 @ t[p + "wq"]).reshape(1, S, H, d))
        cache.keys[l, start:total] = rotate((y1 @ t[p + "wk"]).reshape(1, S, KV, d))[0]
        cache.values[l, start:total] = (y1 @ t[p + "wv"]).reshape(S, KV, d)
        k, v = cache.keys[l, :total][None], cache.values[l, :total][None]
        qh = q.reshape(1, S, KV, G, d).transpose(0, 2, 3, 1, 4)
        kh = k.transpose(0, 2, 1, 3)[:, :, None]
        vh = v.transpose(0, 2, 1, 3)[:, :, None]
        scores = (qh @ kh.swapaxes(-1, -2)) * (1.0 / math.sqrt(d)) + mask
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        o = (probs @ vh).transpose(0, 3, 1, 2, 4).reshape(1, S, H * d)
        x2 = o @ t[p + "wo"] + x
        y2 = rms_norm(x2, t[p + "mlp_norm"])
        gate = y2 @ t[p + "w_gate"]
        x = (gate * sigmoid(gate) * (y2 @ t[p + "w_up"])) @ t[p + "w_down"] + x2
    return (rms_norm(x, t["final_norm"]) @ state.head_weight())[0]


def make_pair(vocab=64, hidden=8, layers=1, seed=0, max_seq=64, sharpen=3.0):
    """A random draft/target pair with peaked output distributions."""
    cfg = ModelConfig(hidden_size=hidden, intermediate_size=2 * hidden,
                      n_layers=layers, n_heads=2, n_kv_heads=2,
                      vocab_size=vocab, max_seq_len=max_seq)
    draft = init_model(cfg, seed=1000 + seed)
    target = init_model(cfg, seed=2000 + seed)
    rng = np.random.default_rng(3000 + seed)
    draft.tensors["head"] *= sharpen + rng.random()
    target.tensors["head"] *= sharpen + rng.random()
    return draft, target
