import platform
import resource
import warnings

import numpy as np
import pytest

from speclab import LossSpec, ModelConfig, TrainSchedule, init_model, lr_at, train_stage
from speclab.checkpoint import load_checkpoint, save_checkpoint
from speclab.data import (AlignmentSample, Corpus, Document, alignment_batches, lm_batches,
                          lm_token_stream, teacher_sequences)
from speclab.distill import SPARSE_DTYPE, extract_sparse_logits, top_k
from speclab.errors import ConfigError, ContractError
from speclab.losses import ce_loss, combined_loss
from speclab.model import backward, forward, forward_train
from speclab.synthetic import WORDS
from speclab.tokenizer import ByteTokenizer
from speclab.training import AdamW, Batch, loss_and_grads


def word_sentence_corpus(n_docs: int, seed: int) -> Corpus:
    """Plain sentences of 4 to 8 random words; no instruction structure."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        n = int(rng.integers(4, 9))
        sent = " ".join(WORDS[int(i)] for i in rng.integers(0, len(WORDS), n))
        docs.append(Document(text=(sent + ".").encode(), tag="text"))
    return Corpus(documents=docs)


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


def _tiny_batch(vocab=40, batch=2, seq=6, seed=0, mask=None):
    rng = np.random.default_rng(seed)
    inputs = rng.integers(0, vocab, size=(batch, seq))
    targets = rng.integers(0, vocab, size=(batch, seq))
    mask = np.ones((batch, seq), dtype=bool) if mask is None else mask
    return Batch(inputs=inputs, mask=mask, gold=targets[mask])


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
        """The loss is the mean over the supervised positions alone, whose
        gold tokens the batch holds in row-major order."""
        full = _tiny_batch()
        mask = np.ones((2, 6), dtype=bool)
        mask[0, :4] = False
        mask[1, 5] = False
        part = _tiny_batch(mask=mask)
        assert np.array_equal(part.gold, full.gold[mask.reshape(-1)])
        loss, _, parts = loss_and_grads(tiny_state, part, LossSpec(ce=1.0))
        logits, _ = forward_train(tiny_state, part.inputs)
        assert loss == parts["CE"] == ce_loss(logits[mask], part.gold)[0]
        assert loss != loss_and_grads(tiny_state, full, LossSpec(ce=1.0))[0]

    def test_rows_that_disagree_with_the_mask_raise(self):
        batch = _tiny_batch()
        pairs = top_k(np.zeros((12, 40)), 4)
        good = dict(inputs=batch.inputs, mask=batch.mask, gold=batch.gold, teacher=pairs)
        Batch(**good)
        for bad in (dict(gold=batch.gold[:-1]), dict(gold=batch.gold.reshape(2, 6)),
                    dict(teacher=pairs[:-1]), dict(mask=batch.mask[:, :-1])):
            with pytest.raises(ContractError, match="supervised positions"):
                Batch(**{**good, **bad})

    @pytest.mark.parametrize("source", ["lm", "align-response", "align-full"])
    def test_supervised_rows_match_the_padded_layout_bit_for_bit(self, source):
        """Loss, parts and gradient bytes under CE+KL+TVD equal those of the
        padded layout, rebuilt here by hand from each row's sequence: (B, S)
        targets and a zero-filled (B, S, k) teacher array, gathered by the
        mask."""
        tok = ByteTokenizer()
        cfg = ModelConfig(hidden_size=16, intermediate_size=32, n_layers=1, n_heads=2,
                          n_kv_heads=1, vocab_size=tok.vocab_size, max_seq_len=64)
        student, teacher = init_model(cfg, seed=0), init_model(cfg, seed=1)
        k, seq_len = 8, 60
        if source == "lm":
            corpus = word_sentence_corpus(n_docs=40, seed=0)
            stream = lm_token_stream(corpus, tok, np.random.default_rng(2))
            sequences = stream[:3 * (seq_len + 1)].reshape(3, seq_len + 1).tolist()
        else:
            docs = word_sentence_corpus(n_docs=10, seed=1).documents
            samples = [AlignmentSample(tok.encode(a.text[:12]), tok.encode(b.text), "original")
                       for a, b in zip(docs[::2], docs[1::2])]
            sequences = teacher_sequences(tok, samples, seq_len + 1)
        pairs = [p for _, p in extract_sparse_logits(teacher, sequences, k)]
        if source == "lm":
            batch = next(lm_batches(corpus, tok, 3, seq_len, seed=2))
            batch = Batch(batch.inputs, batch.mask, batch.gold,
                          np.concatenate([p[batch.mask[i]] for i, p in enumerate(pairs)]))
        else:
            batch = next(alignment_batches(samples, tok, 5, seq_len, seed=3, teacher=pairs,
                                           mask_mode=source.split("-")[1]))
            assert not batch.mask.all()
        # the padded layout: each row's next tokens and pairs, padding after them
        by_row = {tuple(s[:-1]): (s, p) for s, p in zip(sequences, pairs)}
        B, S = batch.inputs.shape
        targets = np.full((B, S), tok.pad_id, dtype=np.int64)
        padded = np.zeros((B, S, k), dtype=SPARSE_DTYPE)
        for i, row in enumerate(batch.inputs):
            seq, p = by_row[tuple(row[row != tok.pad_id].tolist())]
            targets[i, :len(seq) - 1] = seq[1:]
            padded[i, :len(seq) - 1] = p

        spec = LossSpec(ce=0.4, kl=0.3, tvd=0.3)
        loss, grads, parts = loss_and_grads(student, batch, spec)
        logits, tape = forward_train(student, batch.inputs)
        flat = logits.reshape(B * S, -1)
        rows = np.flatnonzero(batch.mask)
        want, drows, want_parts = combined_loss(flat[rows], targets.reshape(-1)[rows], spec,
                                                padded.reshape(B * S, k)[rows])
        dflat = np.zeros_like(flat)
        dflat[rows] = drows
        want_grads = backward(student, tape, dflat.reshape(logits.shape))
        assert (loss, parts) == (want, want_parts)
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name


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
            batches.append(Batch(inputs=arr[None, :-1], mask=np.ones((1, len(seq) - 1), bool),
                                 gold=arr[1:], teacher=pairs))

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
    assert np.array_equal(batch.inputs[:, 1:], batch.gold.reshape(2, 16)[:, :-1])


def test_lm_epochs_draw_from_one_generator():
    """The first epoch is the one-epoch stream of the seed, and epoch 1 of a
    stage seeded 4 is not epoch 0 of a stage seeded 5."""
    tok = ByteTokenizer()
    corpus = word_sentence_corpus(n_docs=50, seed=0)

    def tokens(batches):
        return np.concatenate([b.inputs.ravel() for b in batches])

    one = tokens(lm_batches(corpus, tok, 2, 16, seed=4))
    two = tokens(lm_batches(corpus, tok, 2, 16, seed=4, epochs=2))
    assert len(two) == 2 * len(one) and np.array_equal(two[:len(one)], one)
    assert not np.array_equal(two[len(one):], tokens(lm_batches(corpus, tok, 2, 16, seed=5)))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is set under glibc only")
def test_a_training_step_reuses_the_memory_the_last_step_freed():
    """Once a stage has run, the next stage of the same shapes takes its
    transient buffers from the heap the process kept, not from new pages."""
    cfg = ModelConfig(hidden_size=32, intermediate_size=64, n_layers=2, n_heads=4,
                      n_kv_heads=4, vocab_size=264, max_seq_len=64)
    state = init_model(cfg, seed=0)
    batch = _tiny_batch(vocab=264, batch=16, seq=64)
    sched = TrainSchedule(peak_lr=1e-3, total_steps=10, batch_size=16, seq_len=64)
    train_stage(state, [batch] * 10, sched, LossSpec(ce=1.0))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_stage(state, [batch] * 10, sched, LossSpec(ce=1.0))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
