from hypothesis import given, strategies as st

from speclab.tokenizer import BYTE_VOCAB, ByteTokenizer


def test_vocab_layout():
    tok = ByteTokenizer()
    assert tok.vocab_size == 264
    assert len(tok.special_tokens) == 8
    assert tok.pad_id == 256 and tok.eos_id == 258


@given(st.binary(max_size=200))
def test_round_trip_arbitrary_bytes(data):
    tok = ByteTokenizer()
    assert tok.decode_bytes(tok.encode(data)) == data


def test_encode_utf8_strings():
    tok = ByteTokenizer()
    s = "héllo, wörld"
    assert tok.decode(tok.encode(s)) == s


def test_decode_drops_specials():
    tok = ByteTokenizer()
    ids = [tok.bos_id] + tok.encode(b"ab") + [tok.eos_id, tok.pad_id]
    assert tok.decode_bytes(ids) == b"ab"


def test_special_ids_outside_byte_range():
    tok = ByteTokenizer()
    assert all(i >= BYTE_VOCAB for i in tok.special_tokens.values())
