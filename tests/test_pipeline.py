"""End-to-end smoke test of the JSON-driven pipeline through the CLI.

`speclab train` runs an lm stage, a CE+KL sparse-logit align stage, an
evaluation grid and the arch-search table; `speclab eval` on the final
checkpoint and `speclab arch-search` on the same base config must then
reproduce those rows in every column that does not come from a measured
latency.
"""

import csv
import itertools
import json

import pytest

from speclab import (LossSpec, ModelConfig, TrainSchedule, init_model, save_checkpoint,
                     train_stage)
from speclab.cli import main
from speclab.data import (MixPart, MixSpec, alignment_batches, lm_batches,
                          load_alignment_set, load_corpus, mix, save_alignment_set,
                          save_corpus, teacher_sequences)
from speclab.distill import extract_sparse_logits, read_sparse_dataset, write_sparse_dataset
from speclab.errors import ConfigError, DataError, VocabMismatchError
from speclab.experiment import derive_seed, run_training
from speclab.specdec import BlockResult, read_audit_log, write_audit_log
from speclab.synthetic import TopicWorld
from speclab.tokenizer import ByteTokenizer

MEASURED = {"c", "tpot_ar", "tpot_sd", "speedup_est", "latency_1tok"}
ARCH_COLUMNS = {"hidden_size", "n_layers", "achieved_params_excl", "deviation",
                "feasible", "reason", "config"}
DRAFT = {"hidden_size": 16, "intermediate_size": 32, "n_layers": 1, "n_heads": 2,
         "n_kv_heads": 2, "vocab_size": 264, "max_seq_len": 96}
SCHEDULE = {"peak_lr": 3e-3, "total_steps": 4, "batch_size": 4, "seq_len": 32}
EVAL = {
    "benchmarks": [
        {"name": "chat", "kind": "instruction", "alignment": "align.jsonl", "n_tasks": 3},
        {"name": "text", "kind": "completion", "corpus": "pretrain.jsonl", "n_tasks": 2},
    ],
    "modes": ["greedy", "multinomial"],
    "gammas": [2, 3],
    "max_new_tokens": 8,
    "latency": {"warmup": 1, "reps": 5},
}
HIDDEN = [8, 12, 16, 64]


def _write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _same_outside_latency(got, want, columns=None):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        shared = (a.keys() & b.keys()) - MEASURED
        assert columns is None or columns <= shared
        assert {key: a[key] for key in shared} == {key: b[key] for key in shared}


@pytest.fixture
def world_files(tmp_path):
    """Corpus, alignment set and a random target checkpoint in tmp_path."""
    world = TopicWorld(n_topics=8, seed=0)
    save_corpus(world.pretrain_corpus(repeats=2, seed=3), tmp_path / "pretrain.jsonl")
    samples = world.target_training_samples()
    save_alignment_set(samples, tmp_path / "align.jsonl", ByteTokenizer())
    target = init_model(ModelConfig(**dict(DRAFT, hidden_size=32, intermediate_size=64)), seed=1)
    save_checkpoint(target, tmp_path / "target.sfmd")
    return samples, target


@pytest.mark.parametrize("c_hat_mode", ["total", "excluded"])
def test_train_eval_and_arch_search_agree(tmp_path, world_files, c_hat_mode):
    eval_section = dict(EVAL, c_hat_mode=c_hat_mode)
    train_cfg = _write(tmp_path / "train.json", {
        "seed": 3,
        "target_checkpoint": "target.sfmd",
        "draft": DRAFT,
        "stages": [
            {"name": "pretrain", "kind": "lm", "corpus": "pretrain.jsonl",
             "schedule": SCHEDULE},
            {"name": "align", "kind": "align", "alignment": "align.jsonl", "k": 8,
             "loss": {"CE": 0.5, "KL": 0.5}, "schedule": SCHEDULE},
        ],
        "eval": eval_section,
        "arch_search": {"hidden_candidates": HIDDEN, "gamma": 2},
    })
    run = tmp_path / "run"
    assert main(["train", train_cfg, "--out-dir", str(run)]) == 0
    assert (run / "distill" / "align.sfkd").exists()

    eval_cfg = _write(tmp_path / "eval.json", {
        "seed": 3,
        "target_checkpoint": "target.sfmd",
        "draft_init_checkpoint": "run/checkpoints/align.sfmd",
        "eval": eval_section,
    })
    assert main(["eval", eval_cfg, "--out-dir", str(tmp_path / "eval")]) == 0
    train_rows = _read(run / "metrics.json")
    assert len(train_rows) == 2 * 2 * 2
    # AR latency does not depend on gamma: one measurement serves every row
    assert len({(r["tpot_ar"], r["c"]) for r in train_rows}) == 1
    _same_outside_latency(_read(tmp_path / "eval" / "metrics.json"), train_rows)

    arch_cfg = _write(tmp_path / "arch.json",
                      {"base_config": DRAFT, "hidden_candidates": HIDDEN})
    assert main(["arch-search", arch_cfg, "--out-dir", str(tmp_path / "arch")]) == 0
    train_arch = _read(run / "arch_search.json")
    assert [r["feasible"] for r in train_arch] == [True, False, True, False]
    # the table shares the eval's target latency and c_hat definition
    tpot_ar, c_hat = train_rows[0]["tpot_ar"], train_rows[0]["c_hat"]
    feasible = [r for r in train_arch if r["feasible"]]
    assert all(r["c"] == r["latency_1tok"] / tpot_ar for r in feasible)
    assert [r["c_hat"] for r in feasible
            if ModelConfig.from_dict(r["config"]) == ModelConfig(**DRAFT)] == [c_hat]
    _same_outside_latency(_read(tmp_path / "arch" / "arch_search.json"), train_arch,
                          ARCH_COLUMNS)


def test_arch_search_csv_reads_back_the_configs_of_its_json_twin(tmp_path, world_files):
    train_cfg = _write(tmp_path / "train.json", {
        "target_checkpoint": "target.sfmd", "draft": DRAFT,
        "eval": {"gammas": [2], "latency": {"warmup": 1, "reps": 5}},
        "arch_search": {"hidden_candidates": HIDDEN}})
    run = tmp_path / "run"
    assert main(["train", train_cfg, "--out-dir", str(run)]) == 0
    with open(run / "arch_search.csv", newline="", encoding="utf-8") as f:
        cells = [row["config"] for row in csv.DictReader(f)]
    configs = [ModelConfig.from_dict(json.loads(c)) if c else None for c in cells]
    assert configs == [r["config"] and ModelConfig.from_dict(r["config"])
                       for r in _read(run / "arch_search.json")]
    assert [c is not None for c in configs] == [True, False, True, False]


@pytest.mark.parametrize("case, match", [
    ("fewer", "7 sequences for 8"),
    ("other", "sequence 0 does not begin with the training sequence of alignment sample 0"),
    ("short", "sequence 0 does not begin with the training sequence of alignment sample 0"),
], ids=["fewer", "other", "short"])
def test_align_stage_rejects_a_sparse_dataset_of_another_length(tmp_path, world_files,
                                                                 case, match):
    samples, target = world_files
    tok = ByteTokenizer()
    sequences = {
        "fewer": teacher_sequences(tok, samples[:-1], 33),
        "other": teacher_sequences(
            tok, TopicWorld(n_topics=8, seed=0).original_samples(list(range(8))), 33),
        "short": teacher_sequences(tok, samples, 8),
    }[case]
    write_sparse_dataset(tmp_path / "teacher.sfkd", extract_sparse_logits(target, sequences, 8),
                         k=8, vocab_size=target.config.vocab_size)
    config = {
        "target_checkpoint": str(tmp_path / "target.sfmd"),
        "draft": DRAFT,
        "stages": [{"name": "align", "kind": "align", "alignment": str(tmp_path / "align.jsonl"),
                    "sparse_dataset": str(tmp_path / "teacher.sfkd"),
                    "loss": {"CE": 0.5, "KL": 0.5}, "schedule": SCHEDULE}],
    }
    with pytest.raises(DataError, match=match):
        run_training(config, out_dir=tmp_path / "run")


@pytest.mark.parametrize("sparse_dataset", [False, True], ids=["extracted", "sparse_dataset"])
def test_align_stage_rejects_a_teacher_of_another_vocabulary(tmp_path, world_files,
                                                             sparse_dataset):
    """The teacher's vocabulary is the target's when the stage extracts the
    logits and the `.sfkd` header's when it reads them; either must be the
    draft's."""
    samples, target = world_files
    stage = {"name": "align", "kind": "align", "alignment": str(tmp_path / "align.jsonl"),
             "k": 8, "loss": {"CE": 0.5, "KL": 0.5}, "schedule": SCHEDULE}
    draft, match = dict(DRAFT, vocab_size=300), "over 264 tokens for a draft of 300"
    if sparse_dataset:
        write_sparse_dataset(tmp_path / "teacher.sfkd", extract_sparse_logits(
            target, teacher_sequences(ByteTokenizer(), samples, 33), 8), k=8, vocab_size=300)
        stage["sparse_dataset"] = str(tmp_path / "teacher.sfkd")
        draft, match = DRAFT, "over 300 tokens for a draft of 264"
    with pytest.raises(VocabMismatchError, match=match):
        run_training({"target_checkpoint": str(tmp_path / "target.sfmd"), "draft": draft,
                      "stages": [stage]}, out_dir=tmp_path / "run")


def test_align_stage_rejects_k_zero(tmp_path, world_files):
    """Only a missing or null `k` takes the default of 16."""
    stage = {"name": "align", "kind": "align", "alignment": str(tmp_path / "align.jsonl"),
             "k": 0, "loss": {"CE": 0.5, "KL": 0.5}, "schedule": SCHEDULE}
    with pytest.raises(ConfigError, match="k must be positive"):
        run_training({"target_checkpoint": str(tmp_path / "target.sfmd"), "draft": DRAFT,
                      "stages": [stage]}, out_dir=tmp_path / "run")
    assert not (tmp_path / "run" / "distill" / "align.sfkd").exists()


def test_stage_keys_reproduce_hand_built_train_stage_calls(tmp_path, world_files):
    """An align stage with `seed` and `mask`, an lm stage with `seed` and
    `epochs`, and an lm stage with `mix` train byte for byte what the
    documented batch builders and train_stage give by hand."""
    samples, _ = world_files
    tok = ByteTokenizer()
    save_corpus(TopicWorld(n_topics=8, seed=0).pretrain_corpus(repeats=1, seed=5),
                tmp_path / "other.jsonl")
    corpus = load_corpus(tmp_path / "pretrain.jsonl")
    corpora = {"pretrain": corpus, "other": load_corpus(tmp_path / "other.jsonl")}
    parts = [["pretrain", 300], ["other", 200]]
    epoch_steps = len(list(lm_batches(corpus, tok, 4, 32, seed=4)))
    schedules = {"target": SCHEDULE, "pretrain": dict(SCHEDULE, total_steps=epoch_steps + 1),
                 "mix": dict(SCHEDULE, total_steps=2)}
    run_training({"draft": DRAFT, "stages": [
        {"name": "target", "kind": "align", "alignment": str(tmp_path / "align.jsonl"),
         "seed": 11, "mask": "full", "schedule": schedules["target"]},
        {"name": "pretrain", "kind": "lm", "corpus": str(tmp_path / "pretrain.jsonl"),
         "seed": 4, "epochs": 2, "schedule": schedules["pretrain"]},
        {"name": "mix", "kind": "lm", "schedule": schedules["mix"], "mix": {
            "corpora": {cid: str(tmp_path / f"{cid}.jsonl") for cid in corpora},
            "parts": parts}},
    ]}, out_dir=tmp_path / "run", seed=3)

    mix_seed = derive_seed(3, 2)
    mixed = mix(MixSpec(tuple(MixPart(cid, b) for cid, b in parts), seed=mix_seed), corpora)
    state = init_model(ModelConfig(**DRAFT), 3)
    for name, batches in (
            ("target", alignment_batches(samples, tok, 4, 32, seed=11, mask_mode="full")),
            ("pretrain", itertools.chain(lm_batches(corpus, tok, 4, 32, seed=4),
                                         lm_batches(corpus, tok, 4, 32, seed=5))),
            ("mix", lm_batches(mixed, tok, 4, 32, seed=mix_seed))):
        state = train_stage(state, batches, TrainSchedule(**schedules[name]),
                            LossSpec(ce=1.0)).state
        save_checkpoint(state, tmp_path / f"{name}.sfmd")
        assert ((tmp_path / f"{name}.sfmd").read_bytes()
                == (tmp_path / "run" / "checkpoints" / f"{name}.sfmd").read_bytes()), name


@pytest.mark.parametrize("command", ["align-gen", "distill-data", "bench-latency"])
def test_data_and_latency_commands_write_what_the_readers_read(tmp_path, world_files, command,
                                                               capsys):
    samples, target = world_files
    tok = ByteTokenizer()
    (tmp_path / "seeds.jsonl").write_text('{"text": "topic one?"}\n{"text": "and two?"}\n',
                                          encoding="utf-8")
    config = {
        "align-gen": {"target_checkpoint": "target.sfmd", "seed_instructions": "seeds.jsonl",
                      "temperatures": [0.6], "max_new_tokens": 8},
        "distill-data": {"teacher_checkpoint": "target.sfmd", "alignment": "align.jsonl",
                         "k": 4, "max_seq_len": 40},
        "bench-latency": {"models": [{"name": "target", "checkpoint": "target.sfmd"},
                                     {"name": "draft", "config": DRAFT}],
                          "block_sizes": [1, 2], "warmup": 1, "reps": 5},
    }[command]
    out = tmp_path / "out"
    assert main([command, _write(tmp_path / "cmd.json", config), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    if command == "align-gen":
        got = load_alignment_set(out / "alignment.jsonl", tok)
        assert [(tok.decode_bytes(s.instruction), s.temperature) for s in got] == [
            (b"topic one?", None), (b"topic one?", 0.6), (b"and two?", None), (b"and two?", 0.6)]
        assert {s.source for s in got} == {"target_generated"}
    elif command == "distill-data":
        k, vocab, items = read_sparse_dataset(out / "teacher.sfkd")
        assert (k, vocab) == (4, target.config.vocab_size)
        assert [tokens for tokens, _ in items] == teacher_sequences(tok, samples, 40)
        assert all(pairs.shape == (len(tokens) - 1, 4) for tokens, pairs in items)
    else:
        rows = _read(out / "latency.json")
        assert [(r["name"], r["n_layers"], r["block_size"], len(r["samples_s"]))
                for r in rows] == [("target", 1, 1, 5), ("target", 1, 2, 5),
                                   ("draft", 1, 1, 5), ("draft", 1, 2, 5)]
        assert all(r["median_s"] > 0 for r in rows)
        assert _read(out / "manifest.json")["config"] == config


def test_eval_on_truncated_checkpoint_exits_2_with_json_error(tmp_path, world_files, capsys):
    blob = (tmp_path / "target.sfmd").read_bytes()
    (tmp_path / "draft.sfmd").write_bytes(blob[:len(blob) // 2])
    config = _write(tmp_path / "eval.json", {
        "target_checkpoint": "target.sfmd", "draft_init_checkpoint": "draft.sfmd", "eval": EVAL})
    assert main(["eval", config, "--out-dir", str(tmp_path / "eval")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "DataError" and "truncated" in error["message"]


@pytest.mark.parametrize("name", ["pretrain.jsonl", "align.jsonl", "audit.jsonl"])
def test_damaged_jsonl_raises_data_error(tmp_path, world_files, name):
    write_audit_log(tmp_path / "audit.jsonl", [BlockResult([5, 6], 1, [5, 7], [0.1, 0.9])])
    read = {"pretrain.jsonl": load_corpus, "audit.jsonl": read_audit_log,
            "align.jsonl": lambda path: load_alignment_set(path, ByteTokenizer())}[name]
    path = tmp_path / name
    good = path.read_bytes()
    assert read(path)
    first = json.loads(good.splitlines()[0])
    key = next(iter(first))
    wrong = dict(first, **{key: 5})
    del first[key]
    for damaged, where in ((good[:-3], "not JSON"),
                           (json.dumps(first).encode() + b"\n" + good, "missing key"),
                           (json.dumps(wrong).encode() + b"\n" + good,
                            f":1: key {key} has wrong type int")):
        path.write_bytes(damaged)
        with pytest.raises(DataError, match=where):
            read(path)


def test_report_on_damaged_audit_log_exits_2_with_json_error(tmp_path, capsys):
    (tmp_path / "audit.jsonl").write_text('{"proposed": [5, 6], "accepted_count": 1, "emi')
    config = _write(tmp_path / "report.json",
                    {"runs": [{"audit": "audit.jsonl", "gamma": 2, "c_hat": 0.5}]})
    assert main(["report", config, "--out-dir", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "DataError" and "audit.jsonl:1" in error["message"]


def test_report_on_wrongly_typed_audit_log_exits_2_with_json_error(tmp_path, capsys):
    (tmp_path / "audit.jsonl").write_text(
        '{"proposed": 3, "accepted_count": 1, "emitted": [5], "u": []}\n')
    config = _write(tmp_path / "report.json",
                    {"runs": [{"audit": "audit.jsonl", "gamma": 2, "c_hat": 0.5}]})
    assert main(["report", config, "--out-dir", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "DataError" and "audit.jsonl:1: key proposed" in error["message"]


def test_config_not_utf8_exits_3_with_json_error(tmp_path, capsys):
    config = tmp_path / "report.json"
    config.write_bytes(b"\xff\xfe{}")
    assert main(["report", str(config), "--out-dir", str(tmp_path / "out")]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "UnicodeDecodeError"
