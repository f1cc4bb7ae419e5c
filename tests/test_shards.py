"""Training steps and generation jobs split over forked workers
(`speclab.shards`): the same bits as one shard, errors with their type and
message, and workers that end with the pool."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from speclab import (LossSpec, ModelConfig, ModelState, TrainSchedule, init_model,
                     save_checkpoint, shards, train_stage)
from speclab.data import (AlignmentSample, alignment_batches, generate_alignment_set,
                          lm_batches, save_corpus, teacher_sequences)
from speclab.distill import extract_sparse_logits
from speclab.errors import ContractError, NumericError, StageError
from speclab.experiment import run_training
from speclab.tokenizer import ByteTokenizer

from test_training import word_sentence_corpus

TOK = ByteTokenizer()
CFG = ModelConfig(hidden_size=16, intermediate_size=32, n_layers=2, n_heads=2, n_kv_heads=1,
                  vocab_size=TOK.vocab_size, max_seq_len=64)
SEQ = 24

needs_fork = pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                                or "fork" not in multiprocessing.get_all_start_methods(),
                                reason="sharding needs Linux fork")


@pytest.fixture
def n_shards(monkeypatch):
    """Sets the CPU count the shard rule sees, with BLAS pinned to one thread."""
    for var in shards.THREAD_VARS:
        monkeypatch.setenv(var, "1")

    def use(cpus: int) -> None:
        monkeypatch.setattr(shards, "cpus", lambda: cpus)
    return use


def _samples(n: int) -> list[AlignmentSample]:
    docs = word_sentence_corpus(n_docs=2 * n, seed=1).documents
    return [AlignmentSample(TOK.encode(a.text[:10]), TOK.encode(b.text), "original")
            for a, b in zip(docs[::2], docs[1::2])]


def _stage(kind: str, rows: int, steps: int = 3):
    """(model, batches, schedule, loss) of a small stage: lm CE on a tied
    model, or align CE+KL or CE+TVD against a random teacher's k=8 pairs."""
    sched = TrainSchedule(peak_lr=3e-3, total_steps=steps, warmup_fraction=0.3,
                          batch_size=rows, seq_len=SEQ)
    if kind == "lm":
        state = init_model(ModelConfig(**{**CFG.to_dict(), "tie_embeddings": True}), seed=0)
        batches = lm_batches(word_sentence_corpus(n_docs=300, seed=0), TOK, rows, SEQ, seed=1)
        return state, list(batches)[:steps], sched, LossSpec(ce=1.0)
    samples = _samples(24)
    teacher = init_model(CFG, seed=1)
    pairs = [p for _, p in extract_sparse_logits(teacher, teacher_sequences(TOK, samples, SEQ + 1),
                                                 k=8)]
    batches = alignment_batches(samples, TOK, rows, SEQ, seed=3, teacher=pairs)
    loss = LossSpec(ce=0.5, kl=0.5) if kind == "align-kl" else LossSpec(ce=0.6, tvd=0.4)
    return init_model(CFG, seed=0), [next(batches) for _ in range(steps)], sched, loss


@needs_fork
def test_the_shard_count_is_one_per_cpu_and_row_with_blas_on_one_thread(n_shards, monkeypatch):
    """One shard per CPU and at most one per row, but only when every BLAS
    thread variable that is set is "1" and one is set."""
    n_shards(4)
    assert [shards.count(rows) for rows in (1, 3, 4, 16)] == [1, 3, 4, 4]
    monkeypatch.delenv("OMP_NUM_THREADS")
    monkeypatch.delenv("MKL_NUM_THREADS")
    assert shards.count(16) == 4
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    assert shards.count(16) == 1
    monkeypatch.delenv("MKL_NUM_THREADS")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert shards.count(16) == 1


@needs_fork
@pytest.mark.parametrize("rows", [1, 3, 8, 16])
@pytest.mark.parametrize("kind", ["lm", "align-kl", "align-tvd"])
def test_sharded_training_steps_equal_one_shard_bit_for_bit(n_shards, kind, rows):
    """Per-step losses and final weights are byte-equal on 1, 2 and 3
    shards, B = 1 and B below the shard count included."""
    state, batches, sched, loss = _stage(kind, rows)
    runs = []
    for cpus in (1, 2, 3):
        n_shards(cpus)
        runs.append(train_stage(state, batches, sched, loss))
    one = runs[0]
    for run in runs[1:]:
        assert run.losses == one.losses
        for name, t in one.state.tensors.items():
            assert run.state.tensors[name].tobytes() == t.tobytes(), name


@needs_fork
def test_a_worker_error_reaches_the_caller_with_its_type_and_message(n_shards, tmp_path):
    """A NumericError from non-finite activations in a worker's rows alone,
    and a ContractError from a bad teacher row there, raise what one shard
    raises; run_training wraps one as StageError. A failure closes the
    pool, and the input state stays as it was."""
    state, batches, sched, loss = _stage("align-kl", 4, steps=1)
    batch = batches[0]

    def poisoned(token: int) -> ModelState:
        tensors = {n: t.copy() for n, t in state.tensors.items()}
        tensors["embed"][token] = np.nan
        return ModelState(state.config, tensors)

    # a token that only the second shard's last row holds
    token = min(set(range(CFG.vocab_size)) - set(batch.inputs.ravel().tolist()))
    inputs = batch.inputs.copy()
    inputs[3, 1] = token
    nan_state = poisoned(token)
    bad_teacher = batch.teacher.copy()
    bad_teacher[-1]["id"] = bad_teacher[-1]["id"][0]  # duplicate ids in the last row
    bad = type(batch)(batch.inputs, batch.mask, batch.gold, bad_teacher)
    before = {n: t.copy() for n, t in nan_state.tensors.items()}
    for model, step, want in (
            (nan_state, type(batch)(inputs, batch.mask, batch.gold, batch.teacher),
             (NumericError, "non-finite activations in training forward")),
            (state, bad, (ContractError, "duplicate token ids in a sparse logit row"))):
        for cpus in (1, 2):
            n_shards(cpus)
            with pytest.raises(want[0]) as info:
                train_stage(model, [step], sched, loss)
            assert (type(info.value), str(info.value)) == want
        assert multiprocessing.active_children() == []  # the sharded run's pool closed
    for name, t in nan_state.tensors.items():
        assert t.tobytes() == before[name].tobytes(), name

    save_checkpoint(poisoned(TOK.encode(b" ")[0]), tmp_path / "draft.sfmd")
    save_corpus(word_sentence_corpus(n_docs=100, seed=0), tmp_path / "corpus.jsonl")
    config = {"draft_init_checkpoint": str(tmp_path / "draft.sfmd"), "stages": [
        {"name": "lm", "kind": "lm", "corpus": str(tmp_path / "corpus.jsonl"),
         "schedule": {"peak_lr": 1e-3, "total_steps": 2, "batch_size": 4, "seq_len": SEQ}}]}
    n_shards(2)
    with pytest.raises(StageError, match="stage lm failed: non-finite activations"):
        run_training(config, out_dir=tmp_path / "run")
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_sharded_stage_keeps_its_workers_and_returns_ordinary_arrays(n_shards):
    """After a stage the pool's idle workers stay for the next one and end
    with `shards.close`; the trained state owns its arrays."""
    state, batches, sched, loss = _stage("lm", 4)
    n_shards(2)
    result = train_stage(state, batches, sched, loss)
    workers = multiprocessing.active_children()
    assert len(workers) >= 1 and all(p.daemon for p in workers)
    assert all(t.base is None for t in result.state.tensors.values())  # not views of the mmap
    shards.close()
    assert multiprocessing.active_children() == []
    assert all(p.exitcode == 0 for p in workers)


@needs_fork
def test_generated_samples_do_not_depend_on_the_shard_count(n_shards):
    """Greedy, multinomial and self-prompted jobs give the same samples, in
    job order, from one process and from several."""
    target = init_model(CFG, seed=2)
    instructions = [TOK.encode(s) for s in ("one?", "two words?", "and three?")]
    got = []
    for cpus in (1, 2, 3):
        n_shards(cpus)
        got.append(generate_alignment_set(target, TOK, instructions, temperatures=[0.6, 1.0],
                                          self_prompt_count=2, seed=5, max_new_tokens=8))
    assert {s.temperature for s in got[0]} == {None, 0.6, 1.0}
    assert [s.instruction_source for s in got[0]].count("model") == 2
    assert got[1] == got[0] and got[2] == got[0]


@needs_fork
def test_a_sharded_process_writes_its_output_once_and_leaves_no_worker():
    """A child process that trains a sharded stage and generates, with
    unflushed output before both, prints each line once; its stdout
    closes when it exits, so no worker outlived it."""
    script = f"""
import sys
sys.path[:0] = [{str(Path(__file__).parent)!r}]
from speclab import shards
shards.cpus = lambda: 2
import test_shards as t
from speclab import train_stage
from speclab.data import generate_alignment_set
print("before", end=" ")
train_stage(*t._stage("lm", 4))
print("trained", end=" ")
generate_alignment_set(t.init_model(t.CFG, seed=2), t.TOK, [[1, 2]], temperatures=[0.6],
                       seed=1, max_new_tokens=4)
print("generated", len(shards._pool.procs))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]),
        **{var: "1" for var in shards.THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before trained generated 1\n"


@needs_fork
def test_a_forked_child_makes_its_own_pool_and_leaves_its_parents_alone():
    """A process forked from one with a live pool does not use that pool's
    workers, and its exit does not end them."""
    shards.start(1)
    parent_pool = shards._pool
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            shards.start(1)
            ok = (shards._pool is not parent_pool
                  and shards.run([(int, ()), (int, ("7",))]) == [0, 7])
            shards.close()
            code = 0 if ok else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert shards._pool is parent_pool
    assert shards.run([(int, ("1",)), (int, ("2",))]) == [1, 2]
