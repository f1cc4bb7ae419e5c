"""Corpus handling: ingestion, token-budget subsampling and mixing,
completion-task construction, synthetic alignment-set generation, and the
batch builders that feed training.

Corpora and alignment sets are JSON-lines files, one object per line,
read by the schemas `CORPUS` and `ALIGNMENT`. Every operation is a
deterministic function of its inputs and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import read_jsonl, write_jsonl
from .errors import ConfigError, DataError
from .model import ModelState
from .sampling import SamplingPolicy, autoregressive_decode
from .tokenizer import ByteTokenizer
from .training import Batch

TAGS = frozenset({"text", "code", "instruction"})
MASK_MODES = frozenset({"response", "full"})  # what `alignment_batches` supervises
# the schema of a corpus line and of an alignment-set line (config.py gives the notation)
CORPUS = {"text": str, "tag": (TAGS, "text")}
ALIGNMENT = {"instruction": str, "response": str, "source": str, "temperature": (float, None),
             "instruction_source": (str, "corpus"), "truncated": (bool, False)}


@dataclass(frozen=True)
class Document:
    text: bytes
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in TAGS:
            raise DataError(f"unknown document tag {self.tag!r}")


@dataclass
class Corpus:
    documents: list[Document]
    token_count: int = field(init=False)

    def __post_init__(self) -> None:
        # byte-level tokenization: one token per byte
        self.token_count = sum(len(d.text) for d in self.documents)


def load_corpus(path: str | Path) -> Corpus:
    return Corpus(documents=[
        Document(text=rec.text.encode("utf-8", errors="surrogateescape"), tag=rec.tag)
        for rec in read_jsonl(path, CORPUS)])


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    write_jsonl(path, ({"text": d.text.decode("utf-8", errors="surrogateescape"), "tag": d.tag}
                       for d in corpus.documents))


def subsample(corpus: Corpus, token_budget: int, seed: int | np.random.SeedSequence) -> Corpus:
    """Uniform documents without replacement until the budget is first met
    or exceeded; the last document is kept whole."""
    if token_budget < 0:
        raise DataError("token budget must be nonnegative")
    if token_budget > corpus.token_count:
        raise DataError(
            f"budget {token_budget} exceeds corpus size {corpus.token_count}")
    if token_budget == 0:
        return Corpus(documents=[])
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus.documents))
    picked: list[Document] = []
    total = 0
    for idx in order:
        doc = corpus.documents[int(idx)]
        picked.append(doc)
        total += len(doc.text)
        if total >= token_budget:
            break
    return Corpus(documents=picked)


def check_parts(parts: list[tuple[str, int]], corpus_ids) -> None:
    """Raise ConfigError unless every part names one of `corpus_ids` with a
    nonnegative budget and the budgets sum to a positive number."""
    for i, (corpus_id, budget) in enumerate(parts):
        if corpus_id not in corpus_ids:
            raise ConfigError(f"parts[{i}] names an unknown corpus id {corpus_id!r}")
        if budget < 0:
            raise ConfigError(f"parts[{i}] has a negative token budget")
    if sum(budget for _, budget in parts) <= 0:
        raise ConfigError("mix budgets must sum to a positive number")


def mix(corpora: dict[str, Corpus], parts: list[tuple[str, int]], seed: int) -> Corpus:
    """Subsample each `(corpus id, token budget)` part to its budget, then
    interleave with a deterministic shuffle; tag ratios match budgets within
    one document. Part `i` draws from child `i` of `SeedSequence(seed)` and
    the shuffle from child `len(parts)`."""
    check_parts(parts, corpora)
    *children, shuffle = np.random.SeedSequence(seed).spawn(len(parts) + 1)
    docs: list[Document] = []
    for (corpus_id, budget), child in zip(parts, children):
        docs.extend(subsample(corpora[corpus_id], budget, seed=child).documents)
    order = np.random.default_rng(shuffle).permutation(len(docs))
    return Corpus(documents=[docs[int(i)] for i in order])


def make_completion_tasks(
    corpus: Corpus,
    tokenizer: ByteTokenizer,
    n_tasks: int,
    min_ctx: int,
    seed: int,
) -> list[list[int]]:
    """Decode contexts: documents split at a uniform random position
    >= min_ctx, each the prefix before the split."""
    if n_tasks < 0:
        raise DataError("n_tasks must be nonnegative")
    eligible = [d for d in corpus.documents if len(d.text) > min_ctx]
    if n_tasks and not eligible:
        raise DataError(f"no document longer than min_ctx={min_ctx}")
    rng = np.random.default_rng(seed)
    contexts = []
    for _ in range(n_tasks):
        doc = eligible[int(rng.integers(len(eligible)))]
        ids = tokenizer.encode(doc.text)
        contexts.append(ids[:int(rng.integers(min_ctx, len(ids)))])
    return contexts


@dataclass
class AlignmentSample:
    """One instruction/response pair for draft alignment.

    source records who produced the response; instruction_source records
    whether the instruction came from the seed corpus or was solicited from
    the model itself; truncated marks responses cut at the length limit
    before an eos appeared.
    """
    instruction: list[int]
    response: list[int]
    source: str                      # "original" | "target_generated"
    temperature: float | None = None  # None means greedy
    instruction_source: str = "corpus"  # "corpus" | "model"
    truncated: bool = False


def save_alignment_set(samples: list[AlignmentSample], path: str | Path,
                       tokenizer: ByteTokenizer) -> None:
    def text(ids: list[int]) -> str:
        return tokenizer.decode_bytes(ids).decode("utf-8", errors="surrogateescape")

    write_jsonl(path, ({
        "instruction": text(s.instruction),
        "response": text(s.response),
        "source": s.source,
        "temperature": s.temperature,
        "instruction_source": s.instruction_source,
        "truncated": s.truncated,
    } for s in samples))


def load_alignment_set(path: str | Path, tokenizer: ByteTokenizer) -> list[AlignmentSample]:
    def ids(text: str) -> list[int]:
        return tokenizer.encode(text.encode("utf-8", errors="surrogateescape"))

    return [AlignmentSample(ids(rec.instruction), ids(rec.response), rec.source, rec.temperature,
                            rec.instruction_source, rec.truncated)
            for rec in read_jsonl(path, ALIGNMENT)]


def chat_prompt(tokenizer: ByteTokenizer, instruction: list[int]) -> list[int]:
    return [tokenizer.bos_id, tokenizer.inst_id] + list(instruction) + [tokenizer.resp_id]


def chat_sequence(tokenizer: ByteTokenizer, sample: AlignmentSample) -> tuple[list[int], int]:
    """Full training sequence and the index where the response begins."""
    prompt = chat_prompt(tokenizer, sample.instruction)
    return prompt + list(sample.response) + [tokenizer.eos_id], len(prompt)


def teacher_sequences(tokenizer: ByteTokenizer, samples: list[AlignmentSample],
                      max_len: int) -> list[list[int]]:
    """Training sequences cut to `max_len`, as teacher logits are extracted."""
    return [chat_sequence(tokenizer, s)[0][:max_len] for s in samples]


def generate_alignment_set(
    target: ModelState,
    tokenizer: ByteTokenizer,
    seed_instructions: list[list[int]],
    temperatures: list[float],
    include_greedy: bool = True,
    self_prompt_count: int = 0,
    *,
    seed: int,
    max_new_tokens: int = 64,
) -> list[AlignmentSample]:
    """Solicit responses from the target for every seed instruction under
    each sampling configuration, plus optional self-prompted samples where
    the target writes the instruction too."""
    if not temperatures and not include_greedy:
        raise ConfigError("need at least one sampling configuration")
    configs: list[float | None] = ([None] if include_greedy else []) + list(temperatures)
    # (instruction, temperature); None as instruction: the target writes it
    jobs: list[tuple[list[int] | None, float | None]] = [
        (list(instr), temp) for instr in seed_instructions for temp in configs]
    jobs += [(None, temperatures[0] if temperatures else None)] * self_prompt_count
    samples: list[AlignmentSample] = []
    for (instr, temp), child in zip(jobs, np.random.SeedSequence(seed).spawn(len(jobs))):
        rng = np.random.default_rng(child)
        policy = (SamplingPolicy("greedy") if temp is None
                  else SamplingPolicy("multinomial", temperature=temp))

        def respond(prompt: list[int], stop: int) -> tuple[list[int], bool]:
            out = autoregressive_decode(target, prompt, policy, max_new_tokens,
                                        rng=rng, eos_id=stop)
            return (out[:-1], False) if stop in out else (out, True)

        instr_source, instr_truncated = "corpus", False
        if instr is None:
            # the model writes the instruction from the bare separator prefix
            instr_source = "model"
            instr, instr_truncated = respond([tokenizer.bos_id, tokenizer.inst_id],
                                             tokenizer.resp_id)
        response, truncated = respond(chat_prompt(tokenizer, instr), tokenizer.eos_id)
        samples.append(AlignmentSample(
            instruction=instr, response=response,
            source="target_generated", temperature=temp,
            instruction_source=instr_source, truncated=truncated or instr_truncated))
    return samples


def lm_token_stream(corpus: Corpus, tokenizer: ByteTokenizer,
                    rng: np.random.Generator) -> np.ndarray:
    """Shuffle documents with `rng` and concatenate them, eos-separated,
    into one id stream for next-token pre-training."""
    order = rng.permutation(len(corpus.documents))
    ids: list[int] = []
    for i in order:
        ids.extend(tokenizer.encode(corpus.documents[int(i)].text))
        ids.append(tokenizer.eos_id)
    return np.asarray(ids, dtype=np.int64)


def lm_batches(corpus: Corpus, tokenizer: ByteTokenizer, batch_size: int,
               seq_len: int, seed: int, epochs: int = 1):
    """Non-overlapping (batch, seq_len) next-token batches over `epochs`
    shuffles of the corpus, all drawn from one generator seeded by `seed`."""
    rng = np.random.default_rng(seed)
    step_tokens = batch_size * (seq_len + 1)
    for _ in range(epochs):
        stream = lm_token_stream(corpus, tokenizer, rng)
        for s in range(len(stream) // step_tokens):
            chunk = stream[s * step_tokens:(s + 1) * step_tokens]
            rows = chunk.reshape(batch_size, seq_len + 1)
            yield Batch(inputs=rows[:, :-1].copy(),
                        mask=np.ones((batch_size, seq_len), dtype=bool),
                        gold=rows[:, 1:].reshape(-1))


def alignment_batches(
    samples: list[AlignmentSample],
    tokenizer: ByteTokenizer,
    batch_size: int,
    seq_len: int,
    seed: int,
    epochs: int | None = None,
    teacher: list[np.ndarray] | None = None,
    mask_mode: str = "response",
):
    """Fine-tuning batches with the loss masked to response tokens.

    The mask covers exactly the positions whose target is a response token
    or the closing eos, never the instruction; mask_mode="full" instead
    supervises the whole sequence (used when training a target model that
    must also model instructions). Each row's supervised positions are one
    run, so a batch's `gold` tokens and, with `teacher`, its pairs are the
    slices of each sample's next tokens and (P, k) `SPARSE_DTYPE` pairs
    (see `distill`) over that run, concatenated row by row.
    """
    if mask_mode not in MASK_MODES:
        raise ConfigError(f"unknown mask_mode {mask_mode!r}")
    if not samples:
        raise DataError("no alignment samples")
    sequences = []
    for si, s in enumerate(samples):
        seq, resp_start = chat_sequence(tokenizer, s)
        seq = seq[:seq_len + 1]
        if len(seq) < resp_start + 1:
            continue  # response truncated away entirely
        # position j predicts seq[j+1]; responses start at resp_start
        lo = 0 if mask_mode == "full" else resp_start - 1
        sequences.append((si, np.asarray(seq, dtype=np.int64), lo))
    if not sequences:
        raise DataError("all alignment samples shorter than the loss boundary")
    rng = np.random.default_rng(seed)
    epoch = 0
    while epochs is None or epoch < epochs:
        order = rng.permutation(len(sequences))
        for b0 in range(0, len(order), batch_size):
            chosen = [sequences[int(i)] for i in order[b0:b0 + batch_size]]
            width = max(len(seq) for _, seq, _ in chosen) - 1
            inputs = np.full((len(chosen), width), tokenizer.pad_id, dtype=np.int64)
            mask = np.zeros_like(inputs, dtype=bool)
            for i, (_, seq, lo) in enumerate(chosen):
                inputs[i, :len(seq) - 1] = seq[:-1]
                mask[i, lo:len(seq) - 1] = True
            gold = np.concatenate([seq[lo + 1:] for _, seq, lo in chosen])
            pairs = None if teacher is None else np.concatenate(
                [teacher[si][lo:len(seq) - 1] for si, seq, lo in chosen])
            yield Batch(inputs=inputs, mask=mask, gold=gold, teacher=pairs)
        epoch += 1
