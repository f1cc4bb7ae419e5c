"""Sampling helpers: a block of logits rows gives, bit for bit, the rows of
one call per row, and an inverse-CDF draw follows one reference rule."""

import numpy as np
import pytest

from conftest import reference_draw, reference_softmax
from speclab.errors import ContractError, NumericError
from speclab.sampling import SamplingPolicy, distribution, sample, sample_from_dist, softmax

VOCABS = [2, 7, 8, 9, 127, 128, 129, 264, 1000]
TEMPERATURES = [0.3, 0.6, 1.0, 2.0]


@pytest.mark.parametrize("vocab", VOCABS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_block_softmax_equals_per_row_calls_bit_for_bit(vocab, dtype):
    rng = np.random.default_rng(vocab)
    block = (rng.standard_normal((5, vocab)) * 6).astype(dtype)
    block[1] += 40.0  # rows on different scales: one shared max would underflow the others
    for t in TEMPERATURES:
        want = np.stack([reference_softmax(row, t) for row in block])
        for got in (softmax(block, t), distribution(block, SamplingPolicy("multinomial", t))):
            assert got.dtype == np.float64 and got.shape == block.shape
            assert np.array_equal(got, want)
        assert all(np.array_equal(softmax(row, t), w) for row, w in zip(block, want))
    assert block.dtype == dtype  # the input is left as it was


class _FixedU:
    """A generator stub whose every uniform draw is `u`."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


def _distributions() -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    dists = []
    for v in (1, 2, 7, 9, 129, 264):
        p = rng.dirichlet(np.full(v, 0.3))
        dists.append(p)
        if v > 2:
            q = p.copy()
            q[v // 2:] = 0.0  # trailing zeros: u past the mass must not land on them
            q[0] = 0.0        # and a leading zero
            dists.append(q / q.sum())
            r = p.copy()
            r[rng.random(v) < 0.5] = 0.0
            r[v // 3] = 0.5
            dists.append(r / r.sum())
    dists.append(np.array([0.0, 0.0, 1.0, 0.0]))
    dists.append(np.array([0.5, 0.49, np.nan]))  # never drawn: a NaN is not mass
    return dists


def test_sample_from_dist_follows_the_reference_rule():
    rng = np.random.default_rng(1)
    for p in _distributions():
        total = float(np.cumsum(p)[-1])
        us = [0.0, total, np.nextafter(total, 0.0), np.nextafter(total, 2.0),
              np.nextafter(1.0, 0.0), *rng.random(20)]
        for u in us:
            got = sample_from_dist(p, _FixedU(float(u)))
            assert got == reference_draw(p, u) and p[got] > 0
    # the same draws from a real generator, in the same stream order
    p = _distributions()[1]
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    assert [sample_from_dist(p, a) for _ in range(50)] == [
        reference_draw(p, b.random()) for _ in range(50)]


def test_sample_from_dist_rejects_a_block_or_a_distribution_without_mass():
    with pytest.raises(ContractError, match="no positive entry"):
        sample_from_dist(np.zeros(4), _FixedU(0.5))
    with pytest.raises(ContractError, match="no positive entry"):
        sample_from_dist(np.zeros(0), _FixedU(0.5))
    with pytest.raises(ContractError, match="1-D"):
        sample_from_dist(np.full((2, 2), 0.5), _FixedU(0.25))


@pytest.mark.parametrize("policy", [SamplingPolicy("greedy"),
                                    SamplingPolicy("multinomial", 0.6)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_rejects_non_finite_logits(policy, bad):
    """`autoregressive_decode` draws without this check, because `forward`
    has checked the row; `sample` keeps it for direct callers."""
    logits = np.array([0.5, bad, 1.0])
    with pytest.raises(NumericError, match="non-finite"):
        sample(logits, policy, np.random.default_rng(0))
