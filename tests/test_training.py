import warnings

import numpy as np
import pytest

from speclab import LossSpec, ModelConfig, TrainSchedule, init_model, lr_at, train_stage
from speclab.checkpoint import load_checkpoint, save_checkpoint
from speclab.data import lm_batches
from speclab.distill import extract_sparse_logits, top_k
from speclab.errors import ConfigError
from speclab.losses import ce_loss
from speclab.model import forward, forward_train
from speclab.synthetic import word_sentence_corpus
from speclab.tokenizer import ByteTokenizer
from speclab.training import AdamW, Batch, loss_and_grads


class TestSchedule:
    def test_paper_values(self):
        sched = TrainSchedule(peak_lr=1e-4, total_steps=1000, warmup_fraction=0.05)
        assert lr_at(sched, 0) == 0.0
        assert lr_at(sched, 50) == 1e-4
        assert lr_at(sched, 1000) == 0.0
        assert lr_at(sched, 25) == 5e-5

    def test_interior_linearity(self):
        sched = TrainSchedule(peak_lr=2e-3, total_steps=400, warmup_fraction=0.25)
        # decay segment: exact linear interpolation between peak and zero
        assert lr_at(sched, 250) == 2e-3 * (400 - 250) / 300
        assert lr_at(sched, 100) == 2e-3

    def test_out_of_range(self):
        sched = TrainSchedule(peak_lr=1e-4, total_steps=10)
        with pytest.raises(ConfigError):
            lr_at(sched, -1)
        with pytest.raises(ConfigError):
            lr_at(sched, 11)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainSchedule(peak_lr=0.0, total_steps=10)
        with pytest.raises(ConfigError):
            TrainSchedule(peak_lr=1e-4, total_steps=10, beta1=1.0)


def _tiny_batch(vocab=40, batch=2, seq=6, seed=0):
    rng = np.random.default_rng(seed)
    return Batch(
        inputs=rng.integers(0, vocab, size=(batch, seq)),
        targets=rng.integers(0, vocab, size=(batch, seq)),
        mask=np.ones((batch, seq), dtype=bool),
    )


class TestOptimizer:
    def test_zero_lr_zero_decay_is_identity(self, tiny_state):
        sched = TrainSchedule(peak_lr=1e-3, total_steps=10, weight_decay=0.0)
        opt = AdamW(tiny_state, sched)
        before = {k: v.copy() for k, v in tiny_state.tensors.items()}
        _, grads, _ = loss_and_grads(tiny_state, _tiny_batch(), LossSpec(ce=1.0))
        opt.step(tiny_state, grads, lr=0.0)
        for name in before:
            assert np.array_equal(tiny_state.tensors[name], before[name])

    def test_step_moves_parameters(self, tiny_state):
        sched = TrainSchedule(peak_lr=1e-3, total_steps=10)
        opt = AdamW(tiny_state, sched)
        before = {k: v.copy() for k, v in tiny_state.tensors.items()}
        _, grads, _ = loss_and_grads(tiny_state, _tiny_batch(), LossSpec(ce=1.0))
        opt.step(tiny_state, grads, lr=1e-3)
        assert any(not np.array_equal(tiny_state.tensors[n], before[n]) for n in before)


class TestSupervisedRows:
    def test_mask_restricts_positions(self, tiny_state):
        """The loss is the mean over the supervised positions alone."""
        full = _tiny_batch()
        part = _tiny_batch()
        part.mask[0, :4] = False
        part.mask[1, 5] = False
        loss, _, parts = loss_and_grads(tiny_state, part, LossSpec(ce=1.0))
        logits, _ = forward_train(tiny_state, part.inputs)
        assert loss == parts["CE"] == ce_loss(logits[part.mask], part.targets[part.mask])[0]
        assert loss != loss_and_grads(tiny_state, full, LossSpec(ce=1.0))[0]

    def test_masked_positions_are_never_read(self, tiny_state):
        """Duplicate ids and NaN logits in the teacher pairs of masked
        positions change nothing: loss, parts and grads are bit-identical."""
        spec = LossSpec(ce=0.4, kl=0.3, tvd=0.3)
        clean = _tiny_batch()
        clean.mask[:, :2] = False
        clean.teacher = top_k(np.random.default_rng(1).normal(size=(2, 6, 40)), 4)
        dirty = Batch(clean.inputs, clean.targets, clean.mask, clean.teacher.copy())
        dirty.teacher["id"][~clean.mask] = 3
        dirty.teacher["logit"][~clean.mask] = np.nan
        loss, grads, parts = loss_and_grads(tiny_state, clean, spec)
        d_loss, d_grads, d_parts = loss_and_grads(tiny_state, dirty, spec)
        assert (d_loss, d_parts) == (loss, parts)
        for name, g in grads.items():
            assert np.array_equal(d_grads[name], g), name


def _stage_inputs(total_steps=60, seed=0):
    tok = ByteTokenizer()
    corpus = word_sentence_corpus(n_docs=400, seed=seed)
    sched = TrainSchedule(peak_lr=2e-3, total_steps=total_steps,
                          batch_size=4, seq_len=32)
    batches = lm_batches(corpus, tok, 4, 32, seed=seed + 1)
    return corpus, sched, batches


class TestTrainStage:
    def test_learns_memorizable_corpus(self):
        cfg = ModelConfig(hidden_size=16, intermediate_size=32, n_layers=1,
                          n_heads=2, n_kv_heads=2, vocab_size=264, max_seq_len=64)
        state = init_model(cfg, seed=0)
        _, sched, batches = _stage_inputs()
        result = train_stage(state, batches, sched, LossSpec(ce=1.0))
        first = np.mean(result.losses[:5])
        last = np.mean(result.losses[-5:])
        assert last < first

    def test_deterministic_given_seed(self):
        cfg = ModelConfig(hidden_size=8, intermediate_size=16, n_layers=1,
                          n_heads=2, n_kv_heads=2, vocab_size=264, max_seq_len=64)
        outs = []
        for _ in range(2):
            state = init_model(cfg, seed=0)
            _, sched, batches = _stage_inputs(total_steps=20)
            outs.append(train_stage(state, batches, sched, LossSpec(ce=1.0)))
        a, b = outs
        assert a.losses == b.losses
        for name in a.state.tensors:
            assert np.array_equal(a.state.tensors[name], b.state.tensors[name])

    def test_input_state_not_mutated(self, tiny_state):
        before = {k: v.copy() for k, v in tiny_state.tensors.items()}
        sched = TrainSchedule(peak_lr=1e-3, total_steps=3, batch_size=2, seq_len=6)
        train_stage(tiny_state, iter([_tiny_batch(seed=i) for i in range(3)]),
                    sched, LossSpec(ce=1.0))
        for name in before:
            assert np.array_equal(tiny_state.tensors[name], before[name])

    def test_corpus_exhaustion_truncates_with_warning(self, tiny_state):
        sched = TrainSchedule(peak_lr=1e-3, total_steps=10, batch_size=2, seq_len=6)
        with pytest.warns(UserWarning, match="exhausted"):
            result = train_stage(tiny_state, iter([_tiny_batch()] * 4),
                                 sched, LossSpec(ce=1.0))
        assert result.steps_run == 4
        assert len(result.losses) == 4

    def test_kl_self_distillation_fixed_point(self):
        """Teacher = frozen copy of the student. (a) Without weight decay the
        student sits at a fixed point: every loss is ~0 and no weight moves
        over several steps. (b) With weight decay, one step from the fixed
        point moves each weight by the decoupled decay term alone. Later
        steps start off the fixed point, where Adam's normalisation turns
        the small KL gradient into an lr-sized step, so (b) stops at one."""
        cfg = ModelConfig(hidden_size=8, intermediate_size=16, n_layers=1,
                          n_heads=2, n_kv_heads=2, vocab_size=30, max_seq_len=32)
        state = init_model(cfg, seed=4)
        rng = np.random.default_rng(0)
        seqs = [rng.integers(0, 30, size=9).tolist() for _ in range(4)]
        batches = []
        for seq in seqs:
            _, pairs = next(iter(extract_sparse_logits(state, [seq], k=30)))
            arr = np.asarray(seq)
            batches.append(Batch(
                inputs=arr[None, :-1], targets=arr[None, 1:],
                mask=np.ones((1, len(seq) - 1), dtype=bool), teacher=pairs[None]))

        # (a) fixed point: no decay, four steps, nothing moves
        sched = TrainSchedule(peak_lr=1e-3, total_steps=4, batch_size=1,
                              seq_len=8, weight_decay=0.0)
        result = train_stage(state, iter(batches), sched, LossSpec(kl=1.0))
        assert all(abs(l) < 1e-6 for l in result.losses)
        for name, t in result.state.tensors.items():
            assert np.array_equal(t, state.tensors[name]), name

        # (b) decay alone at the fixed point: step 1 is the only step with lr > 0
        sched = TrainSchedule(peak_lr=1e-3, total_steps=2, batch_size=1,
                              seq_len=8, weight_decay=0.01)
        result = train_stage(state, iter(batches), sched, LossSpec(kl=1.0))
        assert abs(result.losses[0]) < 1e-6
        for name, t in result.state.tensors.items():
            base = state.tensors[name]
            decayed = base - lr_at(sched, 1) * sched.weight_decay * base
            assert np.allclose(t, decayed, rtol=1e-6, atol=0), name

    def test_chained_stages_with_checkpoint_round_trip(self, tmp_path):
        cfg = ModelConfig(hidden_size=8, intermediate_size=16, n_layers=1,
                          n_heads=2, n_kv_heads=2, vocab_size=264, max_seq_len=64)
        state = init_model(cfg, seed=0)
        _, sched, batches = _stage_inputs(total_steps=10)
        stage1 = train_stage(state, batches, sched, LossSpec(ce=1.0)).state

        path = tmp_path / "stage1.sfmd"
        save_checkpoint(stage1, path)
        reloaded = load_checkpoint(path)
        for name in stage1.tensors:
            assert np.array_equal(reloaded.tensors[name], stage1.tensors[name])

        _, sched2, batches2 = _stage_inputs(total_steps=10, seed=5)
        direct = train_stage(stage1, batches2, sched2, LossSpec(ce=1.0)).state
        _, _, batches3 = _stage_inputs(total_steps=10, seed=5)
        via_ckpt = train_stage(reloaded, batches3, sched2, LossSpec(ce=1.0)).state
        for name in direct.tensors:
            assert np.array_equal(direct.tensors[name], via_ckpt.tensors[name])


def test_lm_batches_are_next_token_shifted():
    tok = ByteTokenizer()
    corpus = word_sentence_corpus(n_docs=50, seed=0)
    batch = next(lm_batches(corpus, tok, 2, 16, seed=1))
    assert batch.inputs.shape == (2, 16)
    assert np.array_equal(batch.inputs[:, 1:], batch.targets[:, :-1])
