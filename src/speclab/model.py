"""Decoder-only transformer implemented in numpy.

Pre-norm blocks with RMS normalization, rotary position encoding, grouped
key/value heads and a gated (SiLU) MLP, no biases anywhere. The training
forward records a tape of intermediates so that `backward` can produce
exact gradients for every tensor; gradients are validated against
central finite differences in the test suite.

Attention has one head layout, in forward and backward. With KV key/value
heads and G = n_heads / KV query heads per group, queries are
(..., KV, G, S, d) and keys and values (..., KV, 1, T, d), so matmul
broadcasting pairs query head kv*G + g with key/value head kv and no head
is copied; backward sums the key and value gradients over the G axis.

All tensors are float32 by default, and a float32 state computes in float32
end to end, forward and backward. Passing float64 tensors (see
`cast_state`) runs the same code at double precision, which the gradient
checks rely on. The rope tables and the causal mask are computed once per
config and dtype, read-only, and sliced per forward.

Two bodies run the layers. `_step` serves `forward` with a cache and
exactly one token (an AR token, a draft proposal, a generated token).
`_rows` serves everything else: one (S,) sequence for every other
`forward` (a prefill, a verify block, a multi-token catch-up, teacher
extraction, an uncached forward), and the (B, S) batch of
`forward_train`, the only call that records a tape. Both run the float
operations of the batched layout in its order, so one sequence's logits
and cache rows are bit-identical to `forward_train`'s on a (1, S) batch.
In-place operations write only buffers of their own (the softmax its
scores, a residual sum its branch output), and a buffer on the tape is
never written after it is recorded.

`backward` is a row-local pass, `backward_rows`, and a reduction,
`reduce_grads`. The first runs everything the batch rows do not share
(the deltas, the attention and norm backward) and leaves, per row, the
operands of every sum over rows (`reduction_operands`); the second runs
those sums once over the whole batch. So rows split across processes
and stacked again give the gradients of one call, bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import read
from .errors import ConfigError, LengthError, NumericError

RMS_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    hidden_size: int
    intermediate_size: int
    n_layers: int
    n_heads: int
    n_kv_heads: int
    vocab_size: int
    max_seq_len: int
    rope_base: float = 10000.0
    tie_embeddings: bool = False

    def __post_init__(self) -> None:
        for name in ("hidden_size", "intermediate_size", "n_layers", "n_heads",
                     "n_kv_heads", "vocab_size", "max_seq_len"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be a positive integer")
        if self.hidden_size % self.n_heads != 0:
            raise ConfigError("hidden_size must be divisible by n_heads")
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError("n_heads must be divisible by n_kv_heads")
        if self.rope_base <= 0:
            raise ConfigError("rope_base must be positive")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads

    @property
    def kv_dim(self) -> int:
        return self.head_dim * self.n_kv_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return read(cls.__name__, d, cls)


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Tensor names and shapes in declared (checkpoint) order."""
    h, i, v = config.hidden_size, config.intermediate_size, config.vocab_size
    kv = config.kv_dim
    shapes: dict[str, tuple[int, ...]] = {"embed": (v, h)}
    for l in range(config.n_layers):
        p = f"layers.{l}."
        shapes[p + "attn_norm"] = (h,)
        shapes[p + "wq"] = (h, h)
        shapes[p + "wk"] = (h, kv)
        shapes[p + "wv"] = (h, kv)
        shapes[p + "wo"] = (h, h)
        shapes[p + "mlp_norm"] = (h,)
        shapes[p + "w_gate"] = (h, i)
        shapes[p + "w_up"] = (h, i)
        shapes[p + "w_down"] = (i, h)
    shapes["final_norm"] = (h,)
    if not config.tie_embeddings:
        shapes["head"] = (h, v)
    return shapes


@dataclass
class ModelState:
    config: ModelConfig
    tensors: dict[str, np.ndarray]

    @property
    def dtype(self) -> np.dtype:
        return self.tensors["embed"].dtype

    def head_weight(self) -> np.ndarray:
        """(hidden, vocab) output projection, shared with embed when tied."""
        if self.config.tie_embeddings:
            return self.tensors["embed"].T
        return self.tensors["head"]

    def check_finite(self) -> None:
        for name, t in self.tensors.items():
            if not np.isfinite(t).all():
                raise NumericError(f"tensor {name} contains non-finite values")


def init_model(config: ModelConfig, seed: int) -> ModelState:
    """Deterministic initialization: unit norm gains, N(0, 1/hidden) projections."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(config.hidden_size)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(config).items():
        if name.endswith("norm"):
            tensors[name] = np.ones(shape, dtype=np.float32)
        else:
            tensors[name] = (rng.standard_normal(shape) * scale).astype(np.float32)
    state = ModelState(config=config, tensors=tensors)
    state.check_finite()
    return state


def cast_state(state: ModelState, dtype) -> ModelState:
    return ModelState(
        config=state.config,
        tensors={k: v.astype(dtype) for k, v in state.tensors.items()},
    )


def param_split(config: ModelConfig, exclude_embedding_tables: bool = False) -> tuple[int, int]:
    """(fixed, per_layer) element counts, so that a config with any
    `n_layers` holds fixed + n_layers * per_layer elements. Read from the
    one-layer `tensor_shapes`, which stays the only list of tensors;
    `exclude_embedding_tables` is as in `param_count`."""
    fixed = per_layer = 0
    for name, shape in tensor_shapes(replace(config, n_layers=1)).items():
        if exclude_embedding_tables and name in ("embed", "head"):
            continue
        if name.startswith("layers."):
            per_layer += math.prod(shape)
        else:
            fixed += math.prod(shape)
    return fixed, per_layer


def param_count(config: ModelConfig, exclude_embedding_tables: bool = False) -> int:
    """Exact element count over all tensors.

    With `exclude_embedding_tables`, the input embedding table and (when
    untied) the output head are dropped from the sum; this is the count
    used for latency-oriented parameter budgets.
    """
    fixed, per_layer = param_split(config, exclude_embedding_tables)
    return fixed + config.n_layers * per_layer


class KVCache:
    """Per-layer key/value store for one decode session.

    Entries below `filled_len` are immutable once written; `truncate` only
    discards the tail. A cache must not be shared between sessions.
    """

    def __init__(self, config: ModelConfig, dtype=np.float32) -> None:
        shape = (config.n_layers, config.max_seq_len, config.n_kv_heads, config.head_dim)
        self.keys = np.zeros(shape, dtype=dtype)
        self.values = np.zeros(shape, dtype=dtype)
        self.filled_len = 0

    def truncate(self, length: int) -> None:
        if not 0 <= length <= self.filled_len:
            raise LengthError(
                f"cannot truncate cache of length {self.filled_len} to {length}")
        self.filled_len = length


@dataclass
class Tape:
    """What `backward` reads, recorded by `_rows` for `forward_train`: per
    layer (a dict in `layers`) the normalised inputs and inverse RMS of
    both norms (`n1`, `r1`, `n2`, `r2`), the normed inputs to the
    projections (`y1`, `y2`), the rotated queries and keys and the values
    in the grouped layout (`q`, `k`, `v`), the attention weights `probs`,
    the merged heads `o`, and the MLP's `gate`, `up`, `sig`, `silu` and
    `act`; once per tape the rope tables and the final norm's `r`, `n` and
    output `y`."""
    tokens: np.ndarray                      # (B, S) int
    cos: np.ndarray | None = None           # (S, n_heads, d) rope tables, see `_constants`
    sin: np.ndarray | None = None
    layers: list[dict] = field(default_factory=list)
    r_final: np.ndarray | None = None       # inverse RMS of the residual stream
    n_final: np.ndarray | None = None       # normalized final hidden
    y_final: np.ndarray | None = None       # n_final times the final norm gain


@functools.lru_cache(maxsize=8)
def _one_zero(dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """0-d 1 and 0 of `dtype`: numpy applies them faster than Python scalars."""
    one, zero = np.ones((), dtype), np.zeros((), dtype)
    one.setflags(write=False)
    zero.setflags(write=False)
    return one, zero


def _sigmoid(x: np.ndarray) -> np.ndarray:
    one, zero = _one_zero(x.dtype)
    e = np.exp(-np.abs(x))  # cannot overflow
    den = one + e
    # 1/(1+e) for x >= 0 and e/(1+e) below: the numerator is 1 or e
    np.maximum(e, x >= zero, out=e)
    e /= den
    return e


def row_max(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, keepdims, of an array with short rows.

    numpy reduces a last axis row by row, at a fixed cost per row, but an
    outer axis elementwise; so this reduces a transposed copy. Max is
    exact, so the result equals `x.max(axis=-1, keepdims=True)`.
    """
    return np.ascontiguousarray(x.swapaxes(-1, -2)).max(axis=-2)[..., None]


def _mean_last(x: np.ndarray) -> np.ndarray:
    """`np.mean(x, axis=-1, keepdims=True)` without its Python wrapper: the
    same sum, divided by the count. For float32, np.mean divides in
    float64 and rounds; with over twice float32's precision, that equals
    the correctly rounded float32 quotient taken here, bit for bit."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _rms_inv(x: np.ndarray, one: np.generic, eps: np.generic) -> np.ndarray:
    return one / np.sqrt(_mean_last(np.square(x)) + eps)


@functools.lru_cache(maxsize=16)
def _constants(config: ModelConfig, dtype: np.dtype) -> tuple:
    """What `_rows` and `_step` read for a (config, dtype), in one cache
    lookup: each layer's tensor names; the dtype's 1, hidden width and RMS
    epsilon; the attention scale as a 0-d array, which numpy applies
    faster than a scalar; the read-only rope tables over all `max_seq_len`
    positions, (T, n_heads + n_kv_heads, d) for the q heads then the k
    heads (the cosine of each half's angle, and its sine negated on the
    first half); and the (T, T) additive causal mask, the size of one
    head's scores over the full context. Each forward slices them."""
    layer = ("attn_norm", "wq", "wk", "wv", "wo", "mlp_norm", "w_gate", "w_up", "w_down")
    names = tuple(tuple(f"layers.{l}.{n}" for n in layer) for l in range(config.n_layers))
    one, width, eps = (dtype.type(c) for c in (1, config.hidden_size, RMS_EPS))
    d, T = config.head_dim, config.max_seq_len
    scale = np.asarray(1.0 / math.sqrt(d), dtype)
    inv_freq = config.rope_base ** (-np.arange(0, d, 2, dtype=np.float64) / d)
    angles = np.arange(T, dtype=np.float64)[:, None] * np.concatenate([inv_freq, inv_freq])
    sin = np.sin(angles)
    sin[:, :d // 2] *= -1.0
    heads = config.n_heads + config.n_kv_heads
    cos, sin = (np.repeat(table.astype(dtype)[:, None], heads, axis=1)
                for table in (np.cos(angles), sin))
    causal = np.triu(np.full((T, T), -np.inf, dtype), k=1)
    for table in (scale, cos, sin, causal):
        table.setflags(write=False)
    return names, one, width, eps, scale, cos, sin, causal


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Half-split rotary rotation of x (B, S, heads, d): x * cos plus x with
    its halves swapped times the signed sine, that is x1*c - x2*s and
    x2*c + x1*s. Negating `sin` rotates by the negated angle."""
    d2 = x.shape[-1] // 2
    swapped = np.concatenate((x[..., d2:], x[..., :d2]), axis=-1)
    swapped *= sin
    out = x * cos
    out += swapped
    return out


def _token_ids(tokens, ndim: int, caller: str, layout: str) -> np.ndarray:
    """`tokens` as an int64 array of `ndim` axes and at least one token, or
    ConfigError naming `caller`. Only an integer dtype is accepted: a float,
    string or bool id is never rounded or parsed into a token."""
    tokens = np.asarray(tokens)
    if tokens.ndim != ndim:
        raise ConfigError(f"{caller} expects {layout}")
    if tokens.size == 0:
        raise ConfigError(f"{caller} expects at least one token")
    if tokens.dtype.kind not in "iu":
        raise ConfigError("token ids must be integers")
    return tokens.astype(np.int64, copy=False)


# The grouped layout's axes for a sequence (n = 0 leading axes) and a batch
# (n = 1): queries (..., S, KV, G, d) to (..., KV, G, S, d) and back, keys
# (..., T, KV, d) to (..., KV, d, T), values to (..., KV, T, d), and the
# index that inserts the group axis after KV.
_LAYOUTS = tuple(((*range(n), n + 1, n + 2, n, n + 3), (*range(n), n + 2, n, n + 1, n + 3),
                  (*range(n), n + 1, n + 2, n), (*range(n), n + 1, n, n + 2),
                  (slice(None),) * (n + 1) + (None,))
                 for n in (0, 1))


def _rows(state: ModelState, tokens: np.ndarray, cache: KVCache | None = None,
          tape: Tape | None = None) -> np.ndarray:
    """The forward of every call `_step` does not take: one (S,) sequence,
    cached or not, or a (B, S) training batch, recording `tape` when given.
    Returns the (..., S, vocab) logits.

    Activations are (..., S, hidden), heads (..., S, heads, d). Three
    choices are made per call, each keeping a sequence's bits a (1, S)
    batch's: weight products are `ndarray.dot` on a sequence (the BLAS
    call of `@` without the gufunc's dispatch) and `@` on a batch, where a
    3-D `dot` or one flattened gemm would change the bits; without a tape
    the norm gains and the MLP's products apply in place, the float
    operations of the fresh buffers a tape records; the exact row max is
    `row_max` on a batch's many short rows, `np.maximum.reduce` on one.
    """
    cfg, t = state.config, state.tensors
    shape = tokens.shape  # (S,) or (B, S)
    n, S = len(shape) - 1, shape[-1]
    start = cache.filled_len if cache is not None else 0
    total = start + S
    if total > cfg.max_seq_len:
        raise LengthError(f"context of {total} tokens exceeds max_seq_len {cfg.max_seq_len}")
    if (np.minimum.reduce(tokens, axis=None) < 0
            or np.maximum.reduce(tokens, axis=None) >= cfg.vocab_size):
        raise ConfigError("token id out of vocabulary range")

    names, one, _, eps, scale, cos, sin, causal = _constants(cfg, state.dtype)
    cos, sin = cos[start:total], sin[start:total]  # (S, heads + kv_heads, d)
    H, KV, d = cfg.n_heads, cfg.n_kv_heads, cfg.head_dim
    G = H // KV
    # additive causal mask: query i (global start+i) may attend keys <= start+i
    mask = causal[start:total, :total]
    matmul = np.matmul if n else np.ndarray.dot
    mul = operator.mul if tape is not None else operator.imul
    q_shape, kv_shape = shape + (H, d), shape + (KV, d)
    grouped, merged = shape + (KV, G, d), shape + (H * d,)
    to_grouped, from_grouped, keys_t, values_t, one_group = _LAYOUTS[n]

    x = t["embed"][tokens]
    for l, (attn_norm, wq, wk, wv, wo, mlp_norm, w_gate, w_up, w_down) in enumerate(names):
        r1 = _rms_inv(x, one, eps)
        n1 = x * r1
        y1 = mul(n1, t[attn_norm])

        q = _rotate(matmul(y1, t[wq]).reshape(q_shape), cos[:, :H], sin[:, :H])
        k = _rotate(matmul(y1, t[wk]).reshape(kv_shape), cos[:, H:], sin[:, H:])
        v = matmul(y1, t[wv]).reshape(kv_shape)
        if cache is not None:
            cache.keys[l, start:total] = k
            cache.values[l, start:total] = v
            k, v = cache.keys[l, :total], cache.values[l, :total]  # (T, KV, d)

        # (..., KV, G, S, d) x (..., KV, 1, d, T) -> (..., KV, G, S, T): broadcasting
        # pairs query head kv*G + g with key/value head kv
        qh = q.reshape(grouped).transpose(to_grouped)
        kt = k.transpose(keys_t)[one_group]
        vh = v.transpose(values_t)[one_group]
        probs = qh @ kt
        probs *= scale
        probs += mask
        probs -= row_max(probs) if n else np.maximum.reduce(probs, axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= np.add.reduce(probs, axis=-1, keepdims=True)

        o = (probs @ vh).transpose(from_grouped).reshape(merged)
        x2 = matmul(o, t[wo])
        x2 += x

        r2 = _rms_inv(x2, one, eps)
        n2 = x2 * r2
        y2 = mul(n2, t[mlp_norm])
        gate = matmul(y2, t[w_gate])
        up = matmul(y2, t[w_up])
        sig = _sigmoid(gate)
        silu = mul(gate, sig)
        act = mul(silu, up)
        x = matmul(act, t[w_down])
        x += x2

        if tape is not None:
            tape.layers.append({
                "n1": n1, "r1": r1, "y1": y1,
                "q": qh, "k": kt.swapaxes(-1, -2), "v": vh, "probs": probs, "o": o,
                "n2": n2, "r2": r2, "y2": y2,
                "gate": gate, "up": up, "sig": sig, "silu": silu, "act": act,
            })

    r = _rms_inv(x, one, eps)
    n_final = x * r
    y = mul(n_final, t["final_norm"])
    if tape is not None:
        tape.cos, tape.sin = cos[:, :H], sin[:, :H]
        tape.r_final, tape.n_final, tape.y_final = r, n_final, y
    return matmul(y, state.head_weight())


def _step(state: ModelState, token: int, cache: KVCache) -> np.ndarray:
    """The cached forward of one token, on 1-D rows: `_rows` of one token
    with the same float operations in the same order, so the (vocab,)
    logits and the cache rows it writes are bit-identical.

    Activations are (hidden,), heads (heads, d), weight products
    `ndarray.dot`. The q and k heads are rotated together in one
    (heads + kv_heads, d) buffer; v is written straight into its cache row.
    A lone query attends every cached key, so there is no mask, and the
    softmax runs on the (heads, T) view of the scores. Attention stays one
    (1, d) x (d, T) product per query head: one (G, d) x (d, T) product
    per key/value head would run another BLAS kernel and change the bits.
    Each inverse RMS is a numpy scalar where `_rows` holds a one-element
    array per row; the dtype's constants from `_constants` keep it in
    the dtype under numpy's older promotion rules too.
    """
    cfg, t = state.config, state.tensors
    start = cache.filled_len
    if start + 1 > cfg.max_seq_len:
        raise LengthError(f"context of {start + 1} tokens exceeds max_seq_len {cfg.max_seq_len}")
    if not 0 <= token < cfg.vocab_size:
        raise ConfigError("token id out of vocabulary range")

    names, one, width, eps, scale, cos, sin, _ = _constants(cfg, state.dtype)
    cos, sin = cos[start], sin[start]  # (heads + kv_heads, d)
    H, KV, d = cfg.n_heads, cfg.n_kv_heads, cfg.head_dim
    G, T = H // KV, start + 1
    qk = np.empty((H + KV, d), state.dtype)  # the q and k heads before rotation
    q_flat, k_flat = qk[:H].reshape(H * d), qk[H:].reshape(KV * d)
    v_rows = cache.values.reshape(cfg.n_layers, cfg.max_seq_len, KV * d)

    def rms_inv(x: np.ndarray) -> np.generic:  # `_rms_inv` of a row
        return one / np.sqrt(np.add.reduce(np.square(x)) / width + eps)

    x = t["embed"][token]  # a view of the table: never written
    for l, (attn_norm, wq, wk, wv, wo, mlp_norm, w_gate, w_up, w_down) in enumerate(names):
        y1 = x * rms_inv(x)
        y1 *= t[attn_norm]

        y1.dot(t[wq], out=q_flat)
        y1.dot(t[wk], out=k_flat)
        y1.dot(t[wv], out=v_rows[l, start])
        qk_rot = _rotate(qk, cos, sin)
        cache.keys[l, start] = qk_rot[H:]
        k, v = cache.keys[l, :T], cache.values[l, :T]  # (T, KV, d)

        # (KV, G, 1, d) x (KV, 1, d, T) -> (KV, G, 1, T)
        scores = qk_rot[:H].reshape(KV, G, 1, d) @ k.transpose(1, 2, 0)[:, None]
        probs = scores.reshape(H, T)
        probs *= scale
        probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= np.add.reduce(probs, axis=-1, keepdims=True)

        x2 = (scores @ v.transpose(1, 0, 2)[:, None]).reshape(H * d).dot(t[wo])
        x2 += x

        y2 = x2 * rms_inv(x2)
        y2 *= t[mlp_norm]
        act = y2.dot(t[w_gate])
        up = y2.dot(t[w_up])
        act *= _sigmoid(act)  # silu
        act *= up
        x = act.dot(t[w_down])
        x += x2

    y = x * rms_inv(x)
    y *= t["final_norm"]
    return y.dot(state.head_weight())


def forward(state: ModelState, tokens,
            cache: KVCache | None = None) -> tuple[np.ndarray, KVCache | None]:
    """Run the model over new tokens, returning one logits row per token.

    With a cache, evaluation is incremental: previously cached positions are
    reused and the new keys/values are appended. The returned logits match a
    full recompute of the whole sequence to float32 accuracy. One token with
    a cache runs `_step` and every other call `_rows`, so an uncached call
    gives the logits `forward_train` gives on a (1, S) batch, bit for bit.
    Token ids must have an integer dtype, and a cache the state's dtype.
    A one-element list holding a Python int, each decode step's input,
    reaches `_step` without becoming an array.
    """
    if cache is not None and type(tokens) is list and len(tokens) == 1 and type(tokens[0]) is int:
        token, n = tokens[0], 1
    else:
        tokens = _token_ids(tokens, 1, "forward", "a flat token sequence")
        n = tokens.size
        token = int(tokens[0]) if cache is not None and n == 1 else None
    if cache is not None and cache.keys.dtype != state.dtype:
        raise ConfigError(f"a {cache.keys.dtype} cache cannot hold a {state.dtype} model's keys")
    logits = _rows(state, tokens, cache) if token is None else _step(state, token, cache)[None]
    if not np.isfinite(logits).all():
        raise NumericError("non-finite activations in forward pass")
    if cache is not None:
        cache.filled_len += n
    return logits, cache


def forward_train(state: ModelState, tokens: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Batched forward over (B, S) integer token ids that records the tape
    needed by `backward`."""
    tape = Tape(tokens=_token_ids(tokens, 2, "forward_train", "a (batch, seq) token array"))
    logits = _rows(state, tape.tokens, tape=tape)
    if not np.isfinite(logits).all():
        raise NumericError("non-finite activations in training forward")
    return logits, tape


def reduction_operands(config: ModelConfig) -> dict[str, int]:
    """The width of each (B, S, width) operand of `reduce_grads`, by name:
    per layer the inputs of each weight product and the deltas it meets
    (`y1` with `dq`, `dk` and `dv`, `o` with `dx2`, `y2` with `dgate` and
    `dup`, `act` with `dmlp`) and the products `g1` and `g2` whose row
    sums are the norm gains' gradients; once per model the head's `y_final`
    and `dlogits`, the final norm's `g_final` and the embedding's `dx`."""
    h, i, kv = config.hidden_size, config.intermediate_size, config.kv_dim
    ops = {"dlogits": config.vocab_size, "y_final": h, "g_final": h, "dx": h}
    for l in range(config.n_layers):
        p = f"layers.{l}."
        ops.update({p + "y1": h, p + "dq": h, p + "dk": kv, p + "dv": kv, p + "g1": h,
                    p + "o": h, p + "dx2": h, p + "g2": h, p + "y2": h, p + "dgate": i,
                    p + "dup": i, p + "act": i, p + "dmlp": h})
    return ops


def _rmsnorm_backward(dy: np.ndarray, n: np.ndarray, r: np.ndarray, gain: np.ndarray):
    """(dx, dy * n) of y = n * gain with n = x * r, given the recorded n and
    r; the gain's gradient is the second's sum over rows."""
    dn = dy * gain
    prod = dy * n
    scratch = dn * n
    mean = _mean_last(scratch)
    # dx = r * (dn - n * mean)
    dn -= np.multiply(n, mean, out=scratch)
    dn *= r
    return dn, prod


def backward_rows(state: ModelState, tape: Tape, ops: dict[str, np.ndarray]) -> None:
    """The row-local pass of `backward`: from `ops["dlogits"]`, every other
    operand of `reduce_grads` for the tape's rows, each one copied into
    `ops[name]` when `ops` holds it (a shard's rows of a shared arena) and
    stored there otherwise. Nothing here sums over rows, so a batch's
    operands are its shards' operands stacked, bit for bit."""
    cfg, t = state.config, state.tensors
    H, KV, d = cfg.n_heads, cfg.n_kv_heads, cfg.head_dim
    scale = _constants(cfg, state.dtype)[4]  # the forward's attention scale
    # the forward's grouped layout; `values_t` swaps the S and KV axes, both ways
    to_grouped, from_grouped, _, values_t, _ = _LAYOUTS[1]
    B, S = tape.tokens.shape
    # the inverse rotation (orthogonal) rotates by the negated angle
    cos, sin = tape.cos, -tape.sin

    def keep(name: str, a: np.ndarray) -> None:
        if name in ops:
            ops[name][...] = a
        else:
            ops[name] = a

    dlogits = ops["dlogits"]
    keep("y_final", tape.y_final)
    dy_f = dlogits @ t["embed"] if cfg.tie_embeddings else dlogits @ t["head"].T
    dx, g = _rmsnorm_backward(dy_f, tape.n_final, tape.r_final, t["final_norm"])
    keep("g_final", g)

    for l in reversed(range(cfg.n_layers)):
        p = f"layers.{l}."
        tp = tape.layers[l]

        # MLP branch: act = silu * up, silu = gate * sig
        keep(p + "act", tp["act"])
        keep(p + "dmlp", dx)
        dact = dx @ t[p + "w_down"].T
        # dgate = dact * up * (sig * (1 + gate * (1 - sig)))
        dsilu = 1.0 - tp["sig"]
        dsilu *= tp["gate"]
        dsilu += 1.0
        dsilu *= tp["sig"]
        dgate = dact * tp["up"]
        dgate *= dsilu
        dup = np.multiply(dact, tp["silu"], out=dact)
        keep(p + "y2", tp["y2"])
        keep(p + "dgate", dgate)
        keep(p + "dup", dup)
        dy2 = dgate @ t[p + "w_gate"].T
        dy2 += dup @ t[p + "w_up"].T
        dx2, g = _rmsnorm_backward(dy2, tp["n2"], tp["r2"], t[p + "mlp_norm"])
        keep(p + "g2", g)
        dx2 += dx  # residual

        # attention branch
        keep(p + "o", tp["o"])
        keep(p + "dx2", dx2)
        # a key/value head's gradient sums its group
        do = (dx2 @ t[p + "wo"].T).reshape(B, S, KV, H // KV, d).transpose(to_grouped)
        probs = tp["probs"]
        # softmax backward in place: dscores = probs * (dprobs - sum(dprobs * probs))
        dscores = do @ tp["v"].swapaxes(-1, -2)
        dscores -= np.sum(dscores * probs, axis=-1, keepdims=True)
        dscores *= probs
        dq = dscores @ tp["k"]
        dq *= scale
        dk = dscores.swapaxes(-1, -2) @ tp["q"]
        dk *= scale
        dk = dk.sum(axis=2)
        dv = (probs.swapaxes(-1, -2) @ do).sum(axis=2)
        # back to contiguous (B, S, heads, d), then un-rotated
        dq = _rotate(np.ascontiguousarray(dq.transpose(from_grouped)).reshape(B, S, H, d),
                     cos, sin)
        dk = _rotate(np.ascontiguousarray(dk.transpose(values_t)), cos[:, :KV], sin[:, :KV])
        dqm, dkm = dq.reshape(B, S, H * d), dk.reshape(B, S, KV * d)
        dvm = dv.transpose(values_t).reshape(B, S, KV * d)
        keep(p + "y1", tp["y1"])
        keep(p + "dq", dqm)
        keep(p + "dk", dkm)
        keep(p + "dv", dvm)
        dy1 = dqm @ t[p + "wq"].T
        dy1 += dkm @ t[p + "wk"].T
        dy1 += dvm @ t[p + "wv"].T
        dx, g = _rmsnorm_backward(dy1, tp["n1"], tp["r1"], t[p + "attn_norm"])
        keep(p + "g1", g)
        dx += dx2  # residual
    keep("dx", dx)


def _recipes(config: ModelConfig) -> dict[str, tuple[str, ...]]:
    """How `reduce_grads` forms each tensor's gradient from its operands: a
    weight product ("dot" a, dy), a norm gain's row sum ("sum" g), or the
    embedding's scatter-add of `dx` over the batch's tokens, after the
    tied head's product."""
    recipes: dict[str, tuple[str, ...]] = {"embed": ("embed",)}
    for l in range(config.n_layers):
        p = f"layers.{l}."
        recipes.update({
            p + "attn_norm": ("sum", p + "g1"), p + "wq": ("dot", p + "y1", p + "dq"),
            p + "wk": ("dot", p + "y1", p + "dk"), p + "wv": ("dot", p + "y1", p + "dv"),
            p + "wo": ("dot", p + "o", p + "dx2"), p + "mlp_norm": ("sum", p + "g2"),
            p + "w_gate": ("dot", p + "y2", p + "dgate"), p + "w_up": ("dot", p + "y2", p + "dup"),
            p + "w_down": ("dot", p + "act", p + "dmlp")})
    recipes["final_norm"] = ("sum", "g_final")
    recipes["head"] = ("dot", "y_final", "dlogits")
    return recipes


def reduce_grads(state: ModelState, tokens: np.ndarray, ops: dict[str, np.ndarray],
                 names=None) -> dict[str, np.ndarray]:
    """The reduction of `backward`: the gradient of each tensor in `names`
    (every tensor by default, in `state.tensors` order) from the operands
    `backward_rows` gives for the whole (B, S) batch `tokens`. Everything
    that sums over the batch rows runs here, once, in the order `backward`
    has always taken: each weight product flat(a).T @ flat(dy) (the tied
    head's `einsum` too), each norm gain's `np.sum` and the embedding's
    `np.add.at`."""
    recipes = _recipes(state.config)
    flat = lambda a: a.reshape(-1, a.shape[-1])
    grads: dict[str, np.ndarray] = {}
    for name in state.tensors if names is None else names:
        kind, *args = recipes[name]
        if kind == "dot":
            grads[name] = flat(ops[args[0]]).T @ flat(ops[args[1]])
        elif kind == "sum":
            grads[name] = np.sum(ops[args[0]], axis=(0, 1))
        else:
            if state.config.tie_embeddings:
                g = np.einsum("pv,ph->vh", flat(ops["dlogits"]), flat(ops["y_final"]))
            else:
                g = np.zeros_like(state.tensors["embed"])
            np.add.at(g, tokens.reshape(-1), flat(ops["dx"]))
            grads[name] = g
    return grads


def backward(state: ModelState, tape: Tape, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every model tensor, given
    dloss/dlogits: the row-local pass `backward_rows`, then the reduction
    `reduce_grads` over its operands."""
    ops = {"dlogits": dlogits}
    backward_rows(state, tape, ops)
    return reduce_grads(state, tape.tokens, ops)
