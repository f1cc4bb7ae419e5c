"""Desk-scale synthetic corpora.

A small closed world of topics with canonical fact sentences. The target's
own corpus phrases facts one way; a separate "original" instruction dataset
phrases them differently, which is what makes alignment on target-generated
responses measurably better than alignment on the original answers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AlignmentSample, Corpus, Document

WORDS = (
    "red", "blue", "green", "gold", "iron", "sand", "rain", "moss",
    "fern", "stone", "ash", "clay", "salt", "wind", "dusk", "frost",
)


@dataclass
class TopicWorld:
    """Closed set of topics with two phrasings of each fact.

    target_response is the style the target model is trained on;
    original_response is the style of the stand-in instruction dataset.
    """
    n_topics: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.topics = [f"topic{k:02d}" for k in range(self.n_topics)]
        self._target_words = [
            (WORDS[int(a)], WORDS[int(b)])
            for a, b in rng.integers(0, len(WORDS), size=(self.n_topics, 2))
        ]
        self._original_words = [
            WORDS[int(a)] for a in rng.integers(0, len(WORDS), size=self.n_topics)
        ]

    def instruction(self, k: int) -> bytes:
        return f"tell me about {self.topics[k]}".encode()

    def target_response(self, k: int) -> bytes:
        w1, w2 = self._target_words[k]
        return f"{self.topics[k]} is {w1} and {w2}.".encode()

    def original_response(self, k: int) -> bytes:
        return f"i think {self.topics[k]} means {self._original_words[k]}.".encode()

    def target_training_samples(self) -> list[AlignmentSample]:
        """Instruction/response pairs in the target's own phrasing."""
        return [AlignmentSample(
            instruction=list(self.instruction(k)),
            response=list(self.target_response(k)),
            source="original") for k in range(self.n_topics)]

    def original_samples(self, topic_ids: list[int]) -> list[AlignmentSample]:
        return [AlignmentSample(
            instruction=list(self.instruction(k)),
            response=list(self.original_response(k)),
            source="original") for k in topic_ids]

    def seed_instructions(self, topic_ids: list[int]) -> list[list[int]]:
        return [list(self.instruction(k)) for k in topic_ids]

    def pretrain_corpus(self, repeats: int = 4, seed: int = 0) -> Corpus:
        """Unstructured text built from the same sentences; no chat format."""
        rng = np.random.default_rng(seed)
        docs = []
        for _ in range(repeats):
            for k in rng.permutation(self.n_topics):
                docs.append(Document(text=self.target_response(int(k)), tag="text"))
                docs.append(Document(text=self.original_response(int(k)), tag="text"))
        return Corpus(documents=docs)
