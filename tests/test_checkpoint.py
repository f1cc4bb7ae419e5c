import numpy as np
import pytest

from speclab import ModelConfig, ModelState, init_model
from speclab.checkpoint import load_checkpoint, read_jsonl, save_checkpoint, write_jsonl
from speclab.errors import ConfigError, DataError


def test_round_trip_bit_exact(tmp_path, tiny_state):
    path = tmp_path / "model.sfmd"
    save_checkpoint(tiny_state, path)
    loaded = load_checkpoint(path)
    assert loaded.config == tiny_state.config
    for name, t in tiny_state.tensors.items():
        assert loaded.tensors[name].dtype == np.float32
        assert np.array_equal(loaded.tensors[name], t)


def test_double_round_trip_identical_bytes(tmp_path, tiny_state):
    p1, p2 = tmp_path / "a.sfmd", tmp_path / "b.sfmd"
    save_checkpoint(tiny_state, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_tied_model_round_trip(tmp_path):
    cfg = ModelConfig(hidden_size=8, intermediate_size=16, n_layers=1,
                      n_heads=2, n_kv_heads=1, vocab_size=30, max_seq_len=8,
                      tie_embeddings=True)
    st = init_model(cfg, seed=3)
    path = tmp_path / "tied.sfmd"
    save_checkpoint(st, path)
    loaded = load_checkpoint(path)
    assert "head" not in loaded.tensors
    assert np.array_equal(loaded.tensors["embed"], st.tensors["embed"])


def test_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_truncated_or_padded_checkpoint_raises_data_error(tmp_path, tiny_state):
    path = tmp_path / "model.sfmd"
    save_checkpoint(tiny_state, path)
    blob = path.read_bytes()
    damaged = tmp_path / "damaged.sfmd"
    # inside the magic, the config length, the config JSON, a tensor, the last byte
    for data in (blob[:2], blob[:10], blob[:30], blob[:len(blob) // 2], blob[:-1],
                 blob + b"\0"):
        damaged.write_bytes(data)
        with pytest.raises(DataError):
            load_checkpoint(damaged)


def test_config_block_with_an_unknown_key_raises_data_error(tmp_path, tiny_state):
    path = tmp_path / "model.sfmd"
    save_checkpoint(tiny_state, path)
    # same length, so only the config's keys change
    path.write_bytes(path.read_bytes().replace(b'"n_layers"', b'"n_levels"', 1))
    with pytest.raises(DataError, match="unknown key 'n_levels'"):
        load_checkpoint(path)


def test_save_is_atomic(tmp_path, tiny_state):
    path = tmp_path / "model.sfmd"
    save_checkpoint(tiny_state, path)
    before = path.read_bytes()
    broken = ModelState(config=tiny_state.config, tensors=dict(tiny_state.tensors))
    del broken.tensors["head"]  # the writer fails after the earlier tensors
    with pytest.raises(KeyError):
        save_checkpoint(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.sfmd"]


def test_jsonl_round_trip_and_damage(tmp_path):
    path = tmp_path / "records.jsonl"
    records = [{"a": 1, "b": "x\udcff", "c": 0.5}, {"a": 2, "b": None, "c": None}]
    write_jsonl(path, records)
    schema = {"a": int, "b": (str, None), "c": (float, 1.0)}
    assert [vars(r) for r in read_jsonl(path, schema)] == [records[0], dict(records[1], c=1.0)]
    good = path.read_bytes()
    # a key outside the schema is ignored, an absent optional key is its default, and an
    # int is taken where a float is due
    path.write_bytes(b'{"a": 3, "c": 2, "extra": [true]}\n')
    assert [vars(r) for r in read_jsonl(path, schema)] == [{"a": 3, "b": None, "c": 2.0}]
    for damaged, where, what in ((good[:-4], ":2:", "not JSON"),
                                 (b"\n[1]\n", ":2:", "not a JSON object"),
                                 (b'{"b": "x"}\n', ":1:", "line.a is missing"),
                                 (b'{"a": 1, "b": "\xff"}\n', ":1:", "not JSON"),
                                 (b'{"a": 1, "b": null}\n{"a": "2", "b": null}\n', ":2:",
                                  "line.a must be int, not str"),
                                 (b'{"a": true}\n', ":1:", "line.a must be int, not bool"),
                                 (b'{"a": 1, "c": "x"}\n', ":1:", "line.c must be float, not str")):
        path.write_bytes(damaged)
        with pytest.raises(DataError, match=f"records.jsonl{where} {what}"):
            read_jsonl(path, schema)
