import numpy as np
import pytest

from speclab import ModelConfig, init_model
from speclab.distill import (SPARSE_DTYPE, extract_sparse_logits, read_sparse_dataset,
                             top_k, write_sparse_dataset)
from speclab.errors import ConfigError, ContractError, DataError, LengthError, NumericError
from speclab.model import forward


def test_top_k_hand_example():
    assert top_k(np.array([1.0, 3.0, 2.0]), 2).tolist() == [(1, 3.0), (2, 2.0)]


def test_top_k_tie_break_smaller_id():
    assert top_k(np.array([5.0, 7.0, 7.0, 1.0]), 2).tolist() == [(1, 7.0), (2, 7.0)]


def test_top_k_rows_match_lexsort():
    rng = np.random.default_rng(3)
    logits = rng.integers(-3, 3, size=(50, 9)).astype(np.float64)  # many ties
    pairs = top_k(logits, 4)
    for row, got in zip(logits, pairs):
        want = np.lexsort((np.arange(9), -row))[:4]
        assert got["id"].tolist() == want.tolist()
        assert got["logit"].tolist() == row[want].astype(np.float32).tolist()


@pytest.mark.parametrize("shape", [(9,), (7, 9), (3, 4, 9)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_top_k_equals_the_stable_argsort_by_bytes(shape, dtype):
    """For every k from 1 to V, on rows of integer-valued logits (many
    ties, a negative zero among them), the partition gives the bytes of
    the first k of a stable argsort of the negated rows."""
    logits = np.random.default_rng(len(shape)).integers(-3, 3, size=shape).astype(dtype)
    logits.flat[::5] = -0.0
    for k in range(1, shape[-1] + 1):
        ids = np.argsort(-logits, axis=-1, kind="stable")[..., :k]
        want = np.empty(ids.shape, dtype=SPARSE_DTYPE)
        want["id"] = ids
        want["logit"] = np.take_along_axis(logits, ids, axis=-1)
        assert top_k(logits, k).tobytes() == want.tobytes(), f"k {k}"


@pytest.mark.parametrize("k", [1, 2, 4])
def test_top_k_of_logits_holding_nan_raises(k):
    logits = np.array([[1.0, 4.0, 2.0, 3.0], [1.0, np.nan, 2.0, 0.0]])
    with pytest.raises(NumericError):
        top_k(logits, k)


def test_k_equals_vocab_is_argsort():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=12)
    pairs = top_k(logits, 12)
    assert pairs["id"].tolist() == list(np.argsort(-logits, kind="stable"))


def test_k_validation():
    with pytest.raises(ConfigError):
        top_k(np.zeros(4), 0)
    with pytest.raises(ConfigError):
        top_k(np.zeros(4), 5)


@pytest.fixture
def teacher():
    cfg = ModelConfig(hidden_size=8, intermediate_size=16, n_layers=1,
                      n_heads=2, n_kv_heads=2, vocab_size=30, max_seq_len=32)
    return init_model(cfg, seed=9)


def test_extraction_matches_forward(teacher):
    seq = [1, 4, 9, 2, 7]
    (tokens, pairs), = list(extract_sparse_logits(teacher, [seq], k=5))
    assert tokens == seq
    assert pairs.dtype == SPARSE_DTYPE and pairs.shape == (len(seq) - 1, 5)
    logits, _ = forward(teacher, seq)
    for pos, row in enumerate(pairs):
        assert np.array_equal(row, top_k(logits[pos], 5))


def test_sequence_longer_than_context_raises(teacher):
    seq = list(range(teacher.config.max_seq_len + 1))
    with pytest.raises(LengthError):
        list(extract_sparse_logits(teacher, [seq], k=4))


def test_dataset_round_trip_bit_exact(tmp_path, teacher):
    rng = np.random.default_rng(1)
    seqs = [rng.integers(0, 30, size=int(rng.integers(3, 12))).tolist()
            for _ in range(6)]
    path = tmp_path / "kd.sfkd"
    write_sparse_dataset(path, extract_sparse_logits(teacher, seqs, k=4),
                         k=4, vocab_size=30)
    k, vocab, items = read_sparse_dataset(path)
    assert (k, vocab) == (4, 30)
    assert [t for t, _ in items] == seqs
    fresh = list(extract_sparse_logits(teacher, seqs, k=4))
    for (_, got), (_, want) in zip(items, fresh):
        assert np.array_equal(got, want)
    # writing what was read reproduces the same bytes
    path2 = tmp_path / "kd2.sfkd"
    write_sparse_dataset(path2, items, k=4, vocab_size=30)
    assert path.read_bytes() == path2.read_bytes()


def test_storage_scales_with_k_not_vocab(tmp_path):
    """Per-position record payload shrinks by vocab/k versus dense records."""
    cfg = ModelConfig(hidden_size=8, intermediate_size=16, n_layers=1,
                      n_heads=2, n_kv_heads=2, vocab_size=30, max_seq_len=128)
    teacher = init_model(cfg, seed=9)
    vocab = teacher.config.vocab_size
    seq = np.random.default_rng(2).integers(0, vocab, size=101).tolist()
    small = tmp_path / "k4.sfkd"
    dense = tmp_path / "kdense.sfkd"
    write_sparse_dataset(small, extract_sparse_logits(teacher, [seq], k=4),
                         k=4, vocab_size=vocab)
    write_sparse_dataset(dense, extract_sparse_logits(teacher, [seq], k=vocab),
                         k=vocab, vocab_size=vocab)
    overhead = 16 + 4 + 4 * len(seq)  # header, length field, token ids
    positions = len(seq) - 1
    small_per_pos = (small.stat().st_size - overhead) / positions
    dense_per_pos = (dense.stat().st_size - overhead) / positions
    assert dense_per_pos / small_per_pos >= vocab / 4


def _dataset(tmp_path, teacher):
    seqs = [[1, 4, 9, 2, 7], [3, 3, 8], [5, 6, 7, 8, 9, 10]]
    path = tmp_path / "kd.sfkd"
    write_sparse_dataset(path, extract_sparse_logits(teacher, seqs, k=4),
                         k=4, vocab_size=30)
    return path


def test_truncated_dataset_raises_data_error(tmp_path, teacher):
    blob = _dataset(tmp_path, teacher).read_bytes()
    cut = tmp_path / "cut.sfkd"
    for size in (2, 6, 15, 18, 40, len(blob) // 2, len(blob) - 1):
        cut.write_bytes(blob[:size])
        with pytest.raises(DataError):
            read_sparse_dataset(cut)


def _set_id(col, value):
    def edit(row):
        row["id"][col] = row["id"][0] if value is None else value
    return edit


def _set_logit(col, value):
    def edit(row):
        row["logit"][col] = value
    return edit


@pytest.mark.parametrize("edit,match", [
    (_set_id(2, 30), "vocabulary"),       # id outside the vocabulary
    (_set_id(1, None), "duplicate"),      # duplicate of the row's first id
    (_set_logit(3, 1e9), "descending"),   # larger than the logit before it
])
def test_damaged_rows_raise_data_error(tmp_path, teacher, edit, match):
    path = _dataset(tmp_path, teacher)
    _, _, items = read_sparse_dataset(path)
    (t0, p0), (t1, p1) = items[:2]
    row = np.array(p1[0])  # first row of the second sequence
    edit(row)
    off = 16 + (4 + 4 * len(t0) + p0.nbytes) + 4 + 4 * len(t1)
    blob = bytearray(path.read_bytes())
    blob[off:off + row.nbytes] = row.tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=match):
        read_sparse_dataset(path)


def test_writer_is_atomic(tmp_path, teacher):
    path = _dataset(tmp_path, teacher)
    before = path.read_bytes()
    bad = [([1, 2, 3], np.zeros((1, 4), dtype=SPARSE_DTYPE))]  # one row short
    with pytest.raises(ContractError):
        write_sparse_dataset(path, bad, k=4, vocab_size=30)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kd.sfkd"]
