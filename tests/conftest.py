import math

import numpy as np
import pytest

from speclab import ModelConfig, init_model
from speclab.model import tensor_shapes


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
