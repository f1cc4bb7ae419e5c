"""Byte-level tokenizer with a fixed 264-token vocabulary.

Token ids 0..255 are raw bytes; ids 256..263 are special tokens. Any two
models trained with this tokenizer trivially share a vocabulary, which is
the compatibility precondition for draft/target speculative decoding.
"""

from __future__ import annotations

BYTE_VOCAB = 256

PAD = 256
BOS = 257
EOS = 258
INST = 259  # instruction separator
RESP = 260  # response separator
RESERVED = (261, 262, 263)

SPECIAL_TOKENS = {
    "<pad>": PAD,
    "<bos>": BOS,
    "<eos>": EOS,
    "<inst>": INST,
    "<resp>": RESP,
    "<r1>": RESERVED[0],
    "<r2>": RESERVED[1],
    "<r3>": RESERVED[2],
}

VOCAB_SIZE = BYTE_VOCAB + len(SPECIAL_TOKENS)


class ByteTokenizer:
    """Maps arbitrary byte strings to ids 0..255 plus 8 specials.

    encode/decode are exact inverses on byte content; special tokens are
    dropped by decode.
    """

    pad_id = PAD
    bos_id = BOS
    eos_id = EOS
    inst_id = INST
    resp_id = RESP
    vocab_size = VOCAB_SIZE
    special_tokens = SPECIAL_TOKENS

    def encode(self, text: str | bytes) -> list[int]:
        if isinstance(text, str):
            text = text.encode("utf-8")
        return list(text)

    def decode_bytes(self, ids) -> bytes:
        return bytes(int(i) for i in ids if 0 <= int(i) < BYTE_VOCAB)

    def decode(self, ids) -> str:
        return self.decode_bytes(ids).decode("utf-8", errors="replace")
