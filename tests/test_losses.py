import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speclab.config import read
from speclab.distill import SPARSE_DTYPE, top_k
from speclab.errors import ConfigError, ContractError
from speclab.losses import LOSS, LossSpec, ce_loss, combined_loss


def sparse(ids, logits) -> np.ndarray:
    """(P, k) `SPARSE_DTYPE` teacher pairs; the logits are stored as float32."""
    pairs = np.empty(np.shape(ids), dtype=SPARSE_DTYPE)
    pairs["id"] = ids
    pairs["logit"] = logits
    return pairs


def kd_term(student, teacher, kind):
    """One distillation term alone, through `combined_loss` with its weight
    1: (loss, dloss/dlogits), the term's own values, as 0.0 + 1.0 * loss
    and grad * 1.0 are exact."""
    loss, dlogits, _ = combined_loss(student, None, LossSpec(**{kind.lower(): 1.0}), teacher)
    return loss, dlogits


class TestCrossEntropy:
    def test_uniform_logits_closed_form(self):
        logits = np.zeros((5, 10))
        gold = np.arange(5) % 10
        loss, _ = ce_loss(logits, gold)
        assert abs(loss - np.log(10)) < 1e-6

    def test_concentrated_logits_vanish(self):
        gold = np.array([3, 1])
        logits = np.full((2, 6), -30.0)
        logits[0, 3] = 30.0
        logits[1, 1] = 30.0
        loss, _ = ce_loss(logits, gold)
        assert loss < 1e-8

    def test_gradient_shape_and_mean(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 7))
        gold = rng.integers(0, 7, size=4)
        loss, d = ce_loss(logits, gold)
        assert d.shape == logits.shape
        # each row of softmax-minus-onehot sums to zero
        assert np.allclose(d.sum(axis=-1), 0.0, atol=1e-12)


class TestDistillation:
    def test_identity_gives_zero(self):
        rng = np.random.default_rng(1)
        # float32 values, so the stored teacher logits equal the student's
        student = rng.normal(size=(3, 12)).astype(np.float32).astype(np.float64)
        ids = np.argsort(-student, axis=-1, kind="stable")[:, :4]
        for kind in ("KL", "TVD"):
            loss, d = kd_term(student, sparse(ids, np.take_along_axis(student, ids, -1)), kind)
            assert abs(loss) < 1e-12
            assert np.allclose(d, 0.0, atol=1e-9)

    def test_tvd_hand_value(self):
        # p_t = softmax(1, 0), p_s = softmax(0, 1) over k=2 -> tvd tanh(1/2)
        s = np.zeros((1, 5))
        s[0, 1] = 1.0
        loss, _ = kd_term(s, sparse([[0, 1]], [[1.0, 0.0]]), "TVD")
        assert abs(loss - np.tanh(0.5)) < 1e-9

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kl_stays_finite_where_a_probability_underflows(self, dtype):
        """KL is summed from log-probabilities: a teacher or student
        probability that underflows to 0 adds no 0 * log 0 and no
        log 0, and the gradient stays p_s - p_t."""
        student = np.zeros((1, 4), dtype=dtype)
        loss, d = kd_term(student, sparse([[0, 1]], [[0.0, -120.0]]), "KL")
        assert loss == pytest.approx(np.log(2), rel=1e-6)
        assert np.allclose(d, [[-0.5, 0.5, 0, 0]], atol=1e-6)

        student[0, 0] = -120.0
        loss, d = kd_term(student, sparse([[0, 1]], [[0.0, 0.0]]), "KL")
        assert loss == pytest.approx(60.0 - np.log(2), rel=1e-6)
        assert np.allclose(d, [[-0.5, 0.5, 0, 0]], atol=1e-6)

    def test_k_equals_vocab_matches_dense(self):
        rng = np.random.default_rng(2)
        V = 9
        student = rng.normal(size=(4, V))
        teacher_full = rng.normal(size=(4, V))
        pairs = top_k(teacher_full, V)

        def dense(kind):
            p_t = np.exp(teacher_full - teacher_full.max(-1, keepdims=True))
            p_t /= p_t.sum(-1, keepdims=True)
            p_s = np.exp(student - student.max(-1, keepdims=True))
            p_s /= p_s.sum(-1, keepdims=True)
            if kind == "KL":
                return float(np.mean(np.sum(p_t * np.log(p_t / p_s), -1)))
            return float(np.mean(0.5 * np.abs(p_t - p_s).sum(-1)))

        for kind in ("KL", "TVD"):
            loss, _ = kd_term(student, pairs, kind)
            assert abs(loss - dense(kind)) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        student = rng.normal(scale=3.0, size=(2, 8))
        teacher = rng.normal(scale=3.0, size=(2, 3))
        ids = np.stack([rng.choice(8, size=3, replace=False) for _ in range(2)])
        kl, _ = kd_term(student, sparse(ids, teacher), "KL")
        tvd, _ = kd_term(student, sparse(ids, teacher), "TVD")
        assert kl >= 0.0
        assert 0.0 <= tvd <= 1.0

    def test_duplicate_ids_rejected(self):
        student = np.zeros((1, 5))
        with pytest.raises(ContractError):
            kd_term(student, sparse([[1, 1]], [[0.0, 0.0]]), "KL")

    def test_empty_records_rejected(self):
        with pytest.raises(ContractError):
            kd_term(np.zeros((0, 5)), np.zeros((0, 2), dtype=SPARSE_DTYPE), "KL")


class TestLossSpec:
    def test_weights_validate(self):
        with pytest.raises(ConfigError):
            LossSpec(ce=0.5, kl=0.2, tvd=0.2)
        with pytest.raises(ConfigError):
            LossSpec(ce=-0.5, kl=1.5)
        LossSpec(ce=0.5, kl=0.5)

    def test_weights_default_to_zero(self):
        w = read("loss", {"KL": 1.0}, LOSS)
        assert (w.CE, w.KL, w.TVD) == (0.0, 1.0, 0.0)
        assert LossSpec(kl=1.0).ce == 0.0

    def test_mixture_is_exact_weighted_sum(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(6, 11))
        gold = rng.integers(0, 11, size=6)
        ids = np.stack([rng.choice(11, size=4, replace=False) for _ in range(6)])
        teacher = sparse(ids, rng.normal(size=(6, 4)))
        ce, _ = ce_loss(logits, gold)
        kl, _ = kd_term(logits, teacher, "KL")
        tvd, _ = kd_term(logits, teacher, "TVD")
        for spec in (LossSpec(ce=0.5, kl=0.5), LossSpec(ce=0.5, tvd=0.5),
                     LossSpec(ce=0.2, kl=0.3, tvd=0.5)):
            total, _, _ = combined_loss(logits, gold, spec, teacher)
            expect = spec.ce * ce + spec.kl * kl + spec.tvd * tvd
            assert total == expect

    def test_teacher_required(self):
        with pytest.raises(ConfigError):
            combined_loss(np.zeros((2, 5)), np.zeros(2, dtype=int),
                          LossSpec(ce=0.5, kl=0.5))
