"""End-to-end smoke test of the JSON-driven pipeline through the CLI.

`speclab train` runs an lm stage, a CE+KL sparse-logit align stage, an
evaluation grid and the arch-search table; `speclab train` with no stages
on the final checkpoint, and `speclab train` with only `draft` and
`arch_search`, must then reproduce those rows in every column that does
not come from a measured latency.
"""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speclab
from speclab import (LossSpec, ModelConfig, ModelState, TrainSchedule, init_model,
                     save_checkpoint, train_stage)
from speclab.cli import main
from speclab.config import load
from speclab.data import (alignment_batches, generate_alignment_set, lm_batches,
                          load_alignment_set, load_corpus, mix, save_alignment_set,
                          save_corpus, teacher_sequences)
from speclab.distill import extract_sparse_logits, read_sparse_dataset, write_sparse_dataset
from speclab.errors import ConfigError, DataError, VocabMismatchError
from speclab import experiment
from speclab.archsearch import arch_table
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
STUDY = Path(experiment.__file__).with_name("study")  # the alignment-direction study's configs


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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _agreement_run(tmp_path, c_hat_mode):
    """`speclab train` with an eval grid and arch table, `speclab train` with
    no stages on its final draft and `speclab train` with only its draft
    config and arch table, writing `run/`, `eval/` and `arch/` under
    tmp_path; returns `run/`."""
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
        "arch_search": {"hidden_candidates": HIDDEN},
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
    assert main(["train", eval_cfg, "--out-dir", str(tmp_path / "eval")]) == 0
    arch_cfg = _write(tmp_path / "arch.json",
                      {"draft": DRAFT, "arch_search": {"hidden_candidates": HIDDEN}})
    assert main(["train", arch_cfg, "--out-dir", str(tmp_path / "arch")]) == 0
    return run


@pytest.mark.parametrize("c_hat_mode", ["total", "excluded"])
def test_train_eval_and_arch_search_agree(tmp_path, world_files, c_hat_mode):
    run = _agreement_run(tmp_path, c_hat_mode)
    train_rows = _read(run / "metrics.json")
    assert len(train_rows) == 2 * 2 * 2
    # AR latency does not depend on gamma: one measurement serves every row
    assert len({(r["tpot_ar"], r["c"]) for r in train_rows}) == 1
    _same_outside_latency(_read(tmp_path / "eval" / "metrics.json"), train_rows)

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
    # no row borrows another model's acceptance
    assert not {"tau", "speedup_est", "mbsu"} & {k for r in train_arch for k in r}


def test_pipeline_and_report_write_strict_json(tmp_path, world_files):
    """Every JSON and JSON-lines file of the agreement run and of `speclab
    report` replaying its audit logs parses with NaN and infinity rejected;
    the replay leaves its unmeasured latency cells null (empty in the CSV)."""
    run = _agreement_run(tmp_path, "total")
    rows = _read(run / "metrics.json")
    report_cfg = _write(tmp_path / "report.json", {"runs": [
        {"audit": f"run/audit/{r['benchmark']}_{r['sampling_mode']}_g{r['gamma']}.jsonl",
         **{key: r[key] for key in ("gamma", "c_hat", "benchmark", "sampling_mode",
                                    "temperature")}} for r in rows]})
    assert main(["report", report_cfg, "--out-dir", str(tmp_path / "report")]) == 0
    written = sorted(tmp_path.rglob("*.json*"))
    assert {p.suffix for p in written} == {".json", ".jsonl"}
    for path in written:
        text = path.read_text(encoding="utf-8")
        for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
            json.loads(doc, parse_constant=_reject_constant)
    replayed = _read(tmp_path / "report" / "metrics.json")
    _same_outside_latency(replayed, rows)
    unmeasured = ("c", "tpot_ar", "tpot_sd", "speedup_est")
    assert all(r[key] is None for r in replayed for key in unmeasured)
    with open(tmp_path / "report" / "metrics.csv", newline="", encoding="utf-8") as f:
        assert all(r[key] == "" for r in csv.DictReader(f) for key in unmeasured)


def test_arch_search_csv_reads_back_the_configs_of_its_json_twin(tmp_path, world_files):
    """The pipeline writes the table as twins with and without `eval`."""
    train_cfg = _write(tmp_path / "train.json", {
        "target_checkpoint": "target.sfmd", "draft": DRAFT,
        "eval": {"gammas": [2], "latency": {"warmup": 1, "reps": 5}},
        "arch_search": {"hidden_candidates": HIDDEN}})
    assert main(["train", train_cfg, "--out-dir", str(tmp_path / "run")]) == 0
    arch_cfg = _write(tmp_path / "arch.json",
                      {"draft": DRAFT, "arch_search": {"hidden_candidates": HIDDEN}})
    assert main(["train", arch_cfg, "--out-dir", str(tmp_path / "arch")]) == 0
    for out in (tmp_path / "run", tmp_path / "arch"):
        with open(out / "arch_search.csv", newline="", encoding="utf-8") as f:
            cells = [row["config"] for row in csv.DictReader(f)]
        configs = [ModelConfig.from_dict(json.loads(c)) if c else None for c in cells]
        assert configs == [r["config"] and ModelConfig.from_dict(r["config"])
                           for r in _read(out / "arch_search.json")]
        assert [c is not None for c in configs] == [True, False, True, False]


def test_align_stage_rejects_a_teacher_of_another_vocabulary(tmp_path, world_files):
    """The teacher's vocabulary, the target's, must be the draft's; the
    target's header is read before any work, so nothing is written."""
    stage = {"name": "align", "kind": "align", "alignment": str(tmp_path / "align.jsonl"),
             "k": 8, "loss": {"CE": 0.5, "KL": 0.5}, "schedule": SCHEDULE}
    with pytest.raises(VocabMismatchError, match="over 264 tokens for a draft of 300"):
        run_training({"target_checkpoint": str(tmp_path / "target.sfmd"),
                      "draft": dict(DRAFT, vocab_size=300), "stages": [stage]},
                     out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("draft_key", ["draft", "draft_init_checkpoint"])
def test_an_eval_of_a_draft_of_another_vocabulary_exits_2_before_any_stage_trains(
        tmp_path, world_files, capsys, draft_key):
    """The eval's draft is the `draft` config or the checkpoint's header; a
    vocabulary other than the target's is found before the lm stage trains."""
    draft = dict(DRAFT, vocab_size=300)
    save_checkpoint(init_model(ModelConfig(**draft), 0), tmp_path / "draft.sfmd")
    config = {"target_checkpoint": "target.sfmd", "stages": [LM_STAGE], "eval": {"gammas": [2]},
              draft_key: draft if draft_key == "draft" else "draft.sfmd"}
    assert main(["train", _write(tmp_path / "cmd.json", config),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "VocabMismatchError", "message": "config.target_checkpoint: the target's "
        "logits are over 264 tokens for a draft of 300"}
    assert not (tmp_path / "out").exists()


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
    mixed = mix(corpora, parts, mix_seed)
    state = init_model(ModelConfig(**DRAFT), 3)
    for name, batches in (
            ("target", alignment_batches(samples, tok, 4, 32, seed=11, mask_mode="full")),
            ("pretrain", lm_batches(corpus, tok, 4, 32, seed=4, epochs=2)),
            ("mix", lm_batches(mixed, tok, 4, 32, seed=mix_seed))):
        state = train_stage(state, batches, TrainSchedule(**schedules[name]),
                            LossSpec(ce=1.0)).state
        save_checkpoint(state, tmp_path / f"{name}.sfmd")
        assert ((tmp_path / f"{name}.sfmd").read_bytes()
                == (tmp_path / "run" / "checkpoints" / f"{name}.sfmd").read_bytes()), name


@pytest.mark.parametrize("as_file", [False, True], ids=["dict", "file"])
def test_generate_stage_writes_what_a_hand_call_gives_and_align_trains_on_it(tmp_path,
                                                                             world_files, as_file):
    """A generate stage without `seed` samples with its child seed of the run
    seed and writes `data/<name>.jsonl` byte for byte as a hand call of
    `generate_alignment_set` does; a later CE+KL align stage that names that
    file writes the `.sfkd` that a hand call of `extract_sparse_logits` and
    `write_sparse_dataset` gives, and trains what `alignment_batches` with
    that teacher and train_stage give by hand. As a file, the config names
    its inputs and `<run>/data/gen.jsonl` relative to its own directory, as
    the study's `ft_generated.json` does."""
    _, target = world_files
    tok = ByteTokenizer()
    (tmp_path / "seeds.jsonl").write_text('{"text": "topic one?"}\n{"text": "and two?"}\n',
                                          encoding="utf-8")
    generated = tmp_path / "run" / "data" / "gen.jsonl"
    inputs = (["target.sfmd", "seeds.jsonl", "run/data/gen.jsonl"] if as_file else
              [str(tmp_path / "target.sfmd"), str(tmp_path / "seeds.jsonl"), str(generated)])
    config = {"target_checkpoint": inputs[0], "draft": DRAFT, "stages": [
        {"name": "gen", "kind": "generate", "seed_instructions": inputs[1],
         "temperatures": [0.6, 0.9], "self_prompt_count": 1, "max_new_tokens": 8},
        {"name": "ft", "kind": "align", "alignment": inputs[2], "seed": 7,
         "loss": {"CE": 0.5, "KL": 0.5}, "schedule": SCHEDULE}]}
    report = run_training(_write(tmp_path / "ft.json", config) if as_file else config,
                          out_dir=tmp_path / "run", seed=3)
    assert list(report.checkpoints) == ["ft"]

    save_alignment_set(generate_alignment_set(
        target, tok, [tok.encode("topic one?"), tok.encode("and two?")], [0.6, 0.9],
        self_prompt_count=1, seed=derive_seed(3, 0), max_new_tokens=8),
        tmp_path / "gen.jsonl", tok)
    assert (tmp_path / "gen.jsonl").read_bytes() == generated.read_bytes()
    samples = load_alignment_set(tmp_path / "gen.jsonl", tok)
    write_sparse_dataset(tmp_path / "ft.sfkd", extract_sparse_logits(
        target, teacher_sequences(tok, samples, 33), 16), k=16, vocab_size=264)
    assert ((tmp_path / "ft.sfkd").read_bytes()
            == (tmp_path / "run" / "distill" / "ft.sfkd").read_bytes())
    teacher = [pairs for _, pairs in read_sparse_dataset(tmp_path / "ft.sfkd")[2]]
    state = train_stage(init_model(ModelConfig(**DRAFT), 3), alignment_batches(
        samples, tok, 4, 32, seed=7, teacher=teacher),
        TrainSchedule(**SCHEDULE), LossSpec(ce=0.5, kl=0.5)).state
    save_checkpoint(state, tmp_path / "ft.sfmd")
    assert ((tmp_path / "ft.sfmd").read_bytes()
            == (tmp_path / "run" / "checkpoints" / "ft.sfmd").read_bytes())


@pytest.mark.parametrize("path", sorted(STUDY.glob("*.json")), ids=lambda path: path.name)
def test_every_study_config_reads_by_the_pipeline_schema(path):
    """An unknown, missing or mistyped key in a committed study config is a ConfigError."""
    load(path, experiment.PIPELINE)


def test_a_generate_stage_writes_what_load_alignment_set_reads_and_a_machine_manifest(
        tmp_path, world_files, capsys):
    """`speclab train` with a generate stage writes the alignment set that
    `load_alignment_set` reads, and a manifest of the machine."""
    tok = ByteTokenizer()
    (tmp_path / "seeds.jsonl").write_text('{"text": "topic one?"}\n{"text": "and two?"}\n',
                                          encoding="utf-8")
    config = {"target_checkpoint": "target.sfmd", "draft": DRAFT, "stages": [
        {"name": "alignment", "kind": "generate", "seed_instructions": "seeds.jsonl",
         "temperatures": [0.6], "max_new_tokens": 8}]}
    out = tmp_path / "out"
    assert main(["train", _write(tmp_path / "cmd.json", config), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    got = load_alignment_set(out / "data" / "alignment.jsonl", tok)
    assert [(tok.decode_bytes(s.instruction), s.temperature) for s in got] == [
        (b"topic one?", None), (b"topic one?", 0.6), (b"and two?", None), (b"and two?", 0.6)]
    assert {s.source for s in got} == {"target_generated"}
    manifest = _read(out / "manifest.json")
    assert manifest["config"] == config
    assert set(manifest["machine"]) == {"cpu_count", "threads", "blas", "libc"}
    assert set(manifest["machine"]["threads"]) == {
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}


def test_eval_on_truncated_checkpoint_exits_2_with_json_error(tmp_path, world_files, capsys):
    blob = (tmp_path / "target.sfmd").read_bytes()
    (tmp_path / "draft.sfmd").write_bytes(blob[:len(blob) // 2])
    config = _write(tmp_path / "eval.json", {
        "target_checkpoint": "target.sfmd", "draft_init_checkpoint": "draft.sfmd", "eval": EVAL})
    assert main(["train", config, "--out-dir", str(tmp_path / "eval")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "DataError" and "truncated" in error["message"]


# every key is typed, optional keys and list items too; JSON's true is not an int
BAD_AUDIT_LINE = (b'{"proposed": ["x", true], "accepted_count": 1, "emitted": [1.5, 2], '
                  b'"u": ["a"]}\n')
ALIGN_LINE = b'{"instruction": "a", "response": "b", "source": "s"'
BAD_LINES = {
    "pretrain.jsonl": [(b'{"text": "a", "tag": 5}\n', "line.tag must be str, not int"),
                       (b'{"text": "a", "tag": "poem"}\n', "line.tag: unknown tag 'poem'")],
    "align.jsonl": [
        (ALIGN_LINE + b', "temperature": "hot", "truncated": "yes", "instruction_source": 5}\n',
         "line.temperature must be float, not str"),
        (ALIGN_LINE + b', "truncated": "yes"}\n', "line.truncated must be bool, not str"),
        (ALIGN_LINE + b', "instruction_source": 5}\n',
         "line.instruction_source must be str, not int")],
    "audit.jsonl": [
        (BAD_AUDIT_LINE, "line.proposed[0] must be int, not str"),
        (b'{"proposed": [], "accepted_count": 0, "emitted": [1.5], "u": []}\n',
         "line.emitted[0] must be int, not float"),
        (b'{"proposed": [], "accepted_count": 0, "emitted": [1], "u": ["a"]}\n',
         "line.u[0] must be float, not str")],
}


@pytest.mark.parametrize("name", ["pretrain.jsonl", "align.jsonl", "audit.jsonl"])
def test_damaged_jsonl_raises_data_error(tmp_path, world_files, name):
    blocks = [BlockResult([5, 6], [5, 7], [0.1, 0.9])]
    write_audit_log(tmp_path / "audit.jsonl", blocks)
    assert read_audit_log(tmp_path / "audit.jsonl") == blocks
    # a log of the older format, which also held each block's accepted count
    (tmp_path / "old.jsonl").write_text(
        '{"proposed": [5, 6], "accepted_count": 1, "emitted": [5, 7], "u": [0.1, 0.9]}\n')
    assert read_audit_log(tmp_path / "old.jsonl") == blocks
    read = {"pretrain.jsonl": load_corpus, "audit.jsonl": read_audit_log,
            "align.jsonl": lambda path: load_alignment_set(path, ByteTokenizer())}[name]
    path = tmp_path / name
    good = path.read_bytes()
    assert read(path)
    first = json.loads(good.splitlines()[0])
    key = next(iter(first))
    wrong = dict(first, **{key: 5})
    del first[key]
    cases = [(good[:-3], "not JSON"),
             (json.dumps(first).encode() + b"\n" + good, f":1: line.{key} is missing"),
             (json.dumps(wrong).encode() + b"\n" + good, f":1: line.{key} must be \\w+, not int")]
    cases += [(line, ":1: " + re.escape(message)) for line, message in BAD_LINES[name]]
    for damaged, where in cases:
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
    config = _write(tmp_path / "report.json",
                    {"runs": [{"audit": "audit.jsonl", "gamma": 2, "c_hat": 0.5}]})
    for line, message in ((b'{"proposed": 3, "accepted_count": 1, "emitted": [5], "u": []}\n',
                           "audit.jsonl:1: line.proposed must be list, not int"),
                          (BAD_AUDIT_LINE, "audit.jsonl:1: line.proposed[0] must be int")):
        (tmp_path / "audit.jsonl").write_bytes(line)
        assert main(["report", config, "--out-dir", str(tmp_path / "out")]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DataError" and message in error["message"]
        assert not (tmp_path / "out").exists()


def test_config_not_utf8_exits_3_with_json_error(tmp_path, capsys):
    config = tmp_path / "report.json"
    config.write_bytes(b"\xff\xfe{}")
    assert main(["report", str(config), "--out-dir", str(tmp_path / "out")]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "UnicodeDecodeError"


LM_STAGE = {"name": "lm", "kind": "lm", "corpus": "pretrain.jsonl", "schedule": SCHEDULE}


@pytest.mark.parametrize("config, message", [
    ({"draft": dict(DRAFT, hidden=3)}, "draft: unknown key 'hidden'"),
    ({"draft": dict(DRAFT, hidden_size=None)}, "draft.hidden_size is missing"),
    ({"draft": DRAFT, "stages": [dict(LM_STAGE, schedule=dict(SCHEDULE, lr=1e-3))]},
     "stages[0].schedule: unknown key 'lr'"),
    ({"draft": DRAFT, "stages": [dict(LM_STAGE, loss={"CE": 1.0, "kl": 0.5})]},
     "stages[0].loss: unknown key 'kl'"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT,
      "eval": {"modes": ["sample"]}}, "eval.modes[0]: unknown sampling mode 'sample'"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT,
      "eval": {"c_hat_mode": "embeddings"}}, "unknown c_hat_mode 'embeddings'"),
    ({"draft": DRAFT, "arch_search": {"hidden_candidates": ["x"]}},
     "config.arch_search.hidden_candidates[0] must be int, not str"),
    ({"draft": dict(DRAFT, hidden_size="x")},
     "draft.hidden_size must be int, not str"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT,
      "eval": {"temperature": "hot"}}, "eval.temperature must be float, not str"),
    ({"draft": DRAFT, "stages": [None]}, "stages[0] is missing"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT, "eval": {"gamma": [2]}},
     "eval: unknown key 'gamma'"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT, "eval": {"stop_at_eos": False}},
     "config.eval: unknown key 'stop_at_eos'"),
    ({"target_checkpoint": "", "draft": DRAFT, "stages": [LM_STAGE]},
     "config.target_checkpoint is an empty path"),
    ({"draft_init_checkpoint": "", "draft": DRAFT},
     "config.draft_init_checkpoint is an empty path"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT, "eval": {"gammas": [2]},
      "arch_search": {}}, "config.arch_search.hidden_candidates is missing"),
    ({"draft": DRAFT, "stages": [LM_STAGE, dict(LM_STAGE, seed=5)]},
     "config.stages[1].name: an earlier stage is named 'lm'"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT,
      "eval": {"benchmarks": [{"name": "b", "kind": "chat"}]}},
     "config.eval.benchmarks[0].kind: unknown kind 'chat'"),
    ({"draft": DRAFT, "stages": [{"name": "gen", "kind": "generate",
                                  "seed_instructions": "seeds.jsonl"}]},
     "config.target_checkpoint is missing"),
    ({"draft": DRAFT, "stages": [dict(LM_STAGE, temperatures=[0.6])]},
     "config.stages[0]: unknown key 'temperatures'"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT, "eval": {"gammas": [2]},
      "arch_search": {"hidden_candidates": [8], "budget": 0}},
     "config.arch_search: budget must be positive"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT, "eval": {"gammas": [2]},
      "arch_search": {"hidden_candidates": []}},
     "config.arch_search: hidden_candidates must be a non-empty list of positive sizes"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT, "eval": {"gammas": [2]},
      "arch_search": {"hidden_candidates": [0]}},
     "config.arch_search: hidden_candidates must be a non-empty list of positive sizes"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT, "stages": [
        {"name": "align", "kind": "align", "alignment": "align.jsonl",
         "sparse_dataset": "teacher.sfkd", "schedule": SCHEDULE}]},
     "config.stages[0]: unknown key 'sparse_dataset'"),
    ({"runs": [{"audit": "missing.jsonl", "gamma": 0, "c_hat": 0.5}]},
     "config.runs[0].gamma must be positive"),
    ({"runs": [{"audit": "missing.jsonl", "gamma": 2, "c_hat": 0.5, "sampling_mode": "beam"}]},
     "config.runs[0].sampling_mode: unknown sampling_mode 'beam'"),
], ids=["draft", "null", "schedule", "loss", "modes", "c_hat_mode",
        "hidden_candidates", "hidden_size", "temperature", "stages", "gamma", "stop_at_eos",
        "empty_target_checkpoint", "empty_draft_init_checkpoint", "empty_arch_search",
        "duplicate_stage_name", "benchmark_kind", "generate_without_target",
        "key_of_another_kind", "zero_budget", "no_candidates", "zero_candidate",
        "sparse_dataset", "report_gamma", "report_sampling_mode"])
def test_bad_config_key_exits_2_with_json_error(tmp_path, world_files, capsys, config,
                                                message):
    """Every config fault is found before any work: nothing is written. A
    config with `runs` is a `speclab report` config."""
    command = "report" if "runs" in config else "train"
    assert main([command, _write(tmp_path / "cmd.json", config),
                 "--out-dir", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ConfigError" and message in error["message"]
    assert error["message"].startswith(message) or not message.startswith("config.")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("keys, message", [
    ({"eval": {"gamma": [2]}}, "config.eval: unknown key 'gamma'"),
    ({"eval": {"gammas": [0]}}, "config.eval: gamma must be >= 1"),
    ({"eval": {"max_new_tokens": 0}}, "config.eval: max_new_tokens must be >= 1"),
    ({"eval": {"latency": {"reps": 2}}}, "config.eval.latency.reps must be at least 5"),
    ({"eval": {"latency": {"warmup": -3}}}, "config.eval.latency.warmup must be nonnegative"),
    ({"eval": {"benchmarks": [{"name": "text", "kind": "completion",
                               "corpus": "pretrain.jsonl", "n_tasks": 0}]}},
     "config.eval.benchmarks[0].n_tasks must be positive"),
    ({"eval": {"benchmarks": [{"name": "chat", "kind": "instruction",
                               "alignment": "align.jsonl", "n_tasks": -1}]}},
     "config.eval.benchmarks[0].n_tasks must be positive"),
    ({"eval": {"benchmarks": [{"name": "text", "kind": "completion",
                               "corpus": "pretrain.jsonl", "min_ctx": -1}]}},
     "config.eval.benchmarks[0].min_ctx must be nonnegative"),
    ({"stages": [dict(LM_STAGE, name="lm2", epochs=0)]},
     "config.stages[1].epochs must be positive"),
    ({"stages": [dict(LM_STAGE, name="lm2", epochs=True)]},
     "config.stages[1].epochs must be int, not bool"),
    ({"stages": [dict(LM_STAGE, corpus=None, name="mix", mix={
        "corpora": {"x": "pretrain.jsonl"}, "parts": [["x", 10], ["y", 10]]})]},
     "config.stages[1].mix: parts[1] names an unknown corpus id 'y'"),
    ({"stages": [dict(LM_STAGE, corpus=None, name="mix", mix={
        "corpora": {"x": "pretrain.jsonl"}, "parts": [["x", 10], ["x", -5]]})]},
     "config.stages[1].mix: parts[1] has a negative token budget"),
    ({"stages": [{"name": "gen", "kind": "generate", "seed_instructions": "pretrain.jsonl",
                  "temperatures": [0.0]}]},
     "config.stages[1].temperatures[0]: temperature must be positive"),
    ({"stages": [{"name": "gen", "kind": "generate", "seed_instructions": "pretrain.jsonl",
                  "max_new_tokens": 0}]}, "config.stages[1].max_new_tokens must be positive"),
    ({"stages": [{"name": "gen", "kind": "generate", "seed_instructions": "pretrain.jsonl",
                  "temperatures": [], "include_greedy": False}]},
     "config.stages[1]: need at least one sampling configuration"),
    ({"stages": [{"name": "gen", "kind": "generate", "seed_instructions": "pretrain.jsonl",
                  "self_prompt_count": -1}]},
     "config.stages[1].self_prompt_count must be nonnegative"),
    ({"stages": [{"name": "align", "kind": "align", "alignment": "align.jsonl", "k": 0,
                  "loss": {"CE": 0.5, "KL": 0.5}, "schedule": SCHEDULE}]},
     "config.stages[1].k must be positive"),
    ({"stages": [{"name": "align", "kind": "align", "alignment": "align.jsonl", "mask": "all",
                  "schedule": SCHEDULE}]},
     "config.stages[1].mask: unknown mask 'all'"),
    ({"stages": [{"name": "align", "kind": "align", "alignment": "align.jsonl", "k": 265,
                  "loss": {"CE": 0.5, "KL": 0.5}, "schedule": SCHEDULE}]},
     "config.stages[1].k exceeds the target's vocabulary of 264"),
    ({"eval": {"gammas": [80, 81]}},
     "config.eval.gammas[1]: prefill plus block exceeds max_seq_len: 16 + 81 > 96"),
    ({"draft": dict(DRAFT, max_seq_len=16), "eval": {"gammas": [2]},
      "lm": dict(LM_STAGE, schedule=dict(SCHEDULE, seq_len=8))},
     "config.draft: prefill plus block exceeds max_seq_len: 16 + 1 > 16"),
    ({"arch_search": {"hidden_candidates": [12]}},
     "config.arch_search: no feasible layer count for any hidden candidate"),
    ({"stages": [dict(LM_STAGE, name="lm2", schedule=dict(SCHEDULE, seq_len=100))]},
     "config.stages[1].schedule.seq_len 100 exceeds the draft's max_seq_len 96"),
    ({"stages": [{"name": "align", "kind": "align", "alignment": "align.jsonl",
                  "loss": {"CE": 0.5, "KL": 0.5}, "schedule": dict(SCHEDULE, seq_len=96)}]},
     "config.stages[1].schedule.seq_len 96 plus one exceeds the target's max_seq_len 96"),
    ({"eval": {"benchmarks": [EVAL["benchmarks"][0]] * 2}},
     "config.eval.benchmarks[1].name: an earlier benchmark is named 'chat'"),
    ({"eval": {"modes": ["multinomial", "multinomial"]}},
     "config.eval.modes[1]: an earlier mode is 'multinomial'"),
    ({"eval": {"gammas": [2, 2]}}, "config.eval.gammas[1]: an earlier gamma is 2"),
    ({"draft": dict(DRAFT, vocab_size=200)},
     "config.draft: the draft's vocabulary of 200 is smaller than the tokenizer's 264"),
    ({"target_vocab_size": 200, "stages": [{"name": "gen", "kind": "generate",
                                            "seed_instructions": "pretrain.jsonl"}]},
     "config.target_checkpoint: the target's vocabulary of 200 is smaller than the "
     "tokenizer's 264"),
], ids=["eval_unknown_key", "eval_gamma", "eval_max_new_tokens", "latency_reps",
        "latency_warmup", "n_tasks_zero", "n_tasks_negative", "min_ctx", "lm_epochs",
        "lm_epochs_bool", "mix_unknown_corpus", "mix_negative_budget", "generate_temperature",
        "generate_max_new_tokens", "generate_no_sampling", "generate_self_prompt_count",
        "align_k", "align_mask", "align_k_over_target_vocabulary",
        "eval_gamma_over_target_context",
        "eval_draft_context", "arch_none_feasible", "stage_seq_len_over_draft_context",
        "teacher_seq_len_over_target_context", "repeated_benchmark_name", "repeated_mode",
        "repeated_gamma", "draft_vocabulary_under_tokenizer",
        "target_vocabulary_under_tokenizer"])
def test_a_bad_value_exits_2_before_any_stage_trains(tmp_path, world_files, capsys, keys,
                                                     message):
    """A value that a later stage, the eval or the arch table would reject,
    judged by the config or the checkpoints' headers, is found before the lm
    stage in front of it trains: nothing is written. `target_vocab_size`
    swaps in a target of that vocabulary."""
    target = "target.sfmd"
    if "target_vocab_size" in keys:
        target = "small_target.sfmd"
        save_checkpoint(init_model(ModelConfig(**dict(DRAFT, vocab_size=keys["target_vocab_size"])),
                                   0), tmp_path / target)
    config = {"target_checkpoint": target, "draft": keys.get("draft", DRAFT),
              "stages": [keys.get("lm", LM_STAGE)] + keys.get("stages", []),
              "eval": keys.get("eval"),
              "arch_search": keys.get("arch_search")}
    assert main(["train", _write(tmp_path / "cmd.json", config),
                 "--out-dir", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "ConfigError", "message": message}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("draft_key", ["draft", "draft_init_checkpoint"])
def test_an_arch_only_run_builds_no_model(tmp_path, world_files, monkeypatch, draft_key):
    """With neither stages nor eval, the table's base is the `draft` config
    or the checkpoint's header: no weights are built or read, and only the
    columns that need no target are written."""
    save_checkpoint(init_model(ModelConfig(**DRAFT), 0), tmp_path / "draft.sfmd")

    def no_weights(*args, **kwargs):
        raise AssertionError("an arch-only run built a model")

    monkeypatch.setattr(experiment, "init_model", no_weights)
    monkeypatch.setattr(experiment, "load_checkpoint", no_weights)
    config = {draft_key: DRAFT if draft_key == "draft" else "draft.sfmd",
              "arch_search": {"hidden_candidates": HIDDEN}}
    assert main(["train", _write(tmp_path / "cmd.json", config),
                 "--out-dir", str(tmp_path / "out")]) == 0
    rows = _read(tmp_path / "out" / "arch_search.json")
    assert rows == json.loads(json.dumps(arch_table(HIDDEN, None, ModelConfig(**DRAFT))))
    assert {k for r in rows for k in r} == ARCH_COLUMNS
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "arch_search.csv", "arch_search.json", "manifest.json"]


@pytest.mark.parametrize("config, where", [
    ({"draft": DRAFT, "stages": [LM_STAGE, dict(LM_STAGE, name="lm2", corpus="pretrian.jsonl")]},
     "config.stages[1].corpus"),
    ({"draft": DRAFT, "stages": [dict(LM_STAGE, corpus=None, mix={
        "corpora": {"a": "pretrain.jsonl", "b": "pretrian.jsonl"}, "parts": [["a", 10]]})]},
     "config.stages[0].mix.corpora.b"),
    ({"draft_init_checkpoint": "draft.sfmd"}, "config.draft_init_checkpoint"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT, "stages": [
        {"name": "ft", "kind": "align", "alignment": "out/data/gen.jsonl", "schedule": SCHEDULE},
        {"name": "gen", "kind": "generate", "seed_instructions": "align.jsonl"}]},
     "config.stages[0].alignment"),
    ({"target_checkpoint": "target.sfmd", "draft": DRAFT, "eval": {"benchmarks": [
        {"name": "text", "kind": "completion", "corpus": "pretrian.jsonl"}]}},
     "config.eval.benchmarks[0].corpus"),
], ids=["later_stage_corpus", "mix_corpus", "draft_init_checkpoint",
        "alignment_of_a_later_generate_stage", "benchmark_corpus"])
def test_a_missing_input_file_exits_3_before_any_stage_trains(tmp_path, world_files, capsys,
                                                              config, where):
    """Every input file is looked for before any work; only the file that an
    earlier generate stage writes may be missing."""
    assert main(["train", _write(tmp_path / "cmd.json", config),
                 "--out-dir", str(tmp_path / "out")]) == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "FileNotFoundError" and error["message"].startswith(where)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, code, error", [
    ({"draft": DRAFT, "arch_search": {"hidden_candidates": [8, 16]}}, 0, None),
    ({"draft": DRAFT, "arch_search": {"hidden_candidates": ["x"]}}, 2,
     {"error": "ConfigError",
      "message": "config.arch_search.hidden_candidates[0] must be int, not str"}),
    ({"draft": DRAFT, "stages": [dict(LM_STAGE, corpus="corpus.jsonl"),
                                 dict(LM_STAGE, name="lm2", corpus="corpsu.jsonl")]}, 3,
     {"error": "FileNotFoundError", "message": "config.stages[1].corpus"}),
], ids=["arch_only", "hidden_candidates", "later_stage_corpus"])
def test_the_cli_process_exits_with_mains_code_and_one_json_error_line(tmp_path, config, code,
                                                                         error):
    """`python -m speclab.cli` in a child process: the exit code is `main`'s,
    stderr is empty or exactly one `{"error", "message"}` JSON line, and a
    failed run writes no out dir. The installed script runs this route (see
    the next test); pytest's `pythonpath` does not reach a child, so its
    PYTHONPATH names the tested package's directory."""
    (tmp_path / "corpus.jsonl").write_text('{"text": "one line of corpus text"}\n',
                                           encoding="utf-8")
    src = str(Path(speclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "speclab.cli", "train",
                           _write(tmp_path / "cmd.json", config), "--out-dir", "out"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    out = tmp_path / "out"
    if error is None:
        assert proc.stderr == ""
        assert (out / "arch_search.csv").exists() and not (out / "checkpoints").exists()
        assert json.loads((out / "arch_search.json").read_text(encoding="utf-8"),
                          parse_constant=_reject_constant)
        return
    line, = proc.stderr.splitlines()
    got = json.loads(line)
    assert set(got) == {"error", "message"} and proc.stderr == line + "\n"
    assert got["error"] == error["error"] and got["message"].startswith(error["message"])
    assert not out.exists()


def test_the_speclab_script_is_cli_main():
    """The installed `speclab` script calls `speclab.cli:main` and exits with
    its result, as `cli.py`'s `__main__` block does, so the child-process
    test above runs the script's route. pyproject.toml is read as text:
    Python 3.10 has no tomllib."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert dict(re.findall(r'^(\S+)\s*=\s*"([^"]*)"', section.group(1), re.M)) == {
        "speclab": "speclab.cli:main"}


def test_an_empty_eval_section_runs_the_grid_with_its_defaults(tmp_path, world_files, capsys):
    """`{}` is a section with every default, not an absent one."""
    config = {"target_checkpoint": "target.sfmd", "draft": DRAFT, "eval": {}}
    assert main(["train", _write(tmp_path / "cmd.json", config),
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert _read(tmp_path / "out" / "metrics.json") == []


def test_an_eval_without_modes_reads_no_gamma(tmp_path, world_files):
    """A grid without modes decodes nothing and times no block, so its
    `gammas` are checked and used by nothing."""
    report = run_training({"target_checkpoint": str(tmp_path / "target.sfmd"), "draft": DRAFT,
                           "eval": {"modes": [], "gammas": [0]}}, out_dir=tmp_path / "out")
    assert report.rows == [] and _read(tmp_path / "out" / "metrics.json") == []


def test_a_null_key_trains_as_an_absent_one(tmp_path, world_files):
    """Null stage `seed` and `mix` (lm) keys, and null sections, train the
    same bytes as a config without them; null `stages` train none."""
    stages = [dict(LM_STAGE, corpus=str(tmp_path / "pretrain.jsonl")),
              {"name": "align", "kind": "align", "alignment": str(tmp_path / "align.jsonl"),
               "k": 8, "loss": {"CE": 0.5, "KL": 0.5}, "schedule": SCHEDULE}]
    config = {"target_checkpoint": str(tmp_path / "target.sfmd"), "draft": DRAFT}
    nulls = [{"seed": None, "mix": None}, {"seed": None}]
    run_training(dict(config, stages=stages), out_dir=tmp_path / "absent", seed=3)
    run_training(dict(config, stages=[dict(s, **n) for s, n in zip(stages, nulls)], eval=None,
                      arch_search=None), out_dir=tmp_path / "null", seed=3)
    for name in ("lm.sfmd", "align.sfmd"):
        assert ((tmp_path / "absent" / "checkpoints" / name).read_bytes()
                == (tmp_path / "null" / "checkpoints" / name).read_bytes()), name
    assert not run_training(dict(config, stages=None), out_dir=tmp_path / "none").checkpoints


def test_self_prompted_samples_follow_the_seeded_ones(world_files):
    """The model writes the instruction of each self-prompted sample, after
    every seeded sample; a written instruction that reaches the length limit
    before `<resp>` marks its sample truncated."""
    _, target = world_files
    tok = ByteTokenizer()
    seeds = [tok.encode("topic one?"), tok.encode("and two?")]

    def generate(state, temperatures, count):
        return generate_alignment_set(state, tok, seeds, temperatures=temperatures,
                                      self_prompt_count=count, seed=5, max_new_tokens=6)

    got = generate(target, [0.6], 3)
    assert got == generate(target, [0.6], 3)
    assert [(s.instruction_source, s.temperature) for s in got] == (
        [("corpus", None), ("corpus", 0.6)] * 2 + [("model", 0.6)] * 3)
    assert [s.instruction for s in got[:4]] == [seeds[0], seeds[0], seeds[1], seeds[1]]

    # every position's residual is the all-ones embedding, so the head
    # makes eos the argmax: instructions never reach <resp>, responses stop at once
    tensors = {name: np.zeros_like(t) if name.endswith(("wo", "w_down")) else t.copy()
               for name, t in target.tensors.items()}
    tensors["embed"][:] = 1.0
    tensors["final_norm"][:] = 1.0
    tensors["head"][:] = 0.0
    tensors["head"][:, tok.eos_id] = 1.0
    eos_only = generate(ModelState(target.config, tensors), [], 1)
    assert [(s.instruction, s.response, s.truncated) for s in eos_only] == [
        (seeds[0], [], False), (seeds[1], [], False), ([tok.eos_id] * 6, [], True)]
