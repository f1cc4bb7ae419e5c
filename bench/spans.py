"""Spans recorded from outside the program, around calls into each layer.

`Tracer.install` replaces module attributes where the calling module looks
them up (for example `specdec.forward`, which `speculate_block` calls) with
wrappers that record a span: name, start, end, parent span and a small
`info` value taken from the arguments. `uninstall` puts the originals back,
so untraced passes run the unmodified program. Spans stay in memory; the
per-layer metrics are computed from them when the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from speclab import checkpoint, experiment, sampling, specdec, training


@dataclass
class Span:
    name: str
    t0: float
    t1: float
    parent: int
    phase: str
    info: object = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.phase = "setup"
        self.target = None  # the target state, to tell draft and target forwards apart
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, t0: float, info) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = Span(name, t0, t1, parent, self.phase, info)

    def _call(self, name: str, fn, info=None):
        def wrapper(*args, **kwargs):
            tag = info(*args, **kwargs) if info else None
            sid, parent = self._open(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, t0, tag)
        return wrapper

    def _generator(self, name: str, fn, info=None):
        """Time each `next()` of the generator `fn` returns, not its creation."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def timed():
                while True:
                    sid, parent = self._open(name)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(sid, parent, name, t0, None)
                        return
                    except BaseException:
                        self._close(sid, parent, name, t0, None)
                        raise
                    self._close(sid, parent, name, t0, info(item) if info else None)
                    yield item
            return timed()
        return wrapper

    def _forward_info(self, state, tokens, cache=None, *_):
        """(role, new tokens, key/value length the call attends over)."""
        n = len(tokens)
        kv = (cache.filled_len if cache is not None else 0) + n
        return ("target" if state is self.target else "draft", n, kv)

    def install(self) -> None:
        patches = [
            (specdec, "forward", "specdec.forward", self._call, self._forward_info),
            (specdec, "distribution", "specdec.distribution", self._call, None),
            (specdec, "sample_from_dist", "specdec.sample_from_dist", self._call, None),
            (specdec, "accept_step", "specdec.accept_step", self._call, None),
            (specdec, "speculate_block", "specdec.block", self._call, None),
            (sampling, "forward", "sampling.forward", self._call, self._forward_info),
            (training, "forward_train", "training.forward_train", self._call, None),
            (training, "backward", "training.backward", self._call, None),
            (training, "combined_loss", "training.combined_loss", self._call, None),
            (training.AdamW, "step", "training.adamw", self._call, None),
            (experiment, "extract_sparse_logits", "distill.extract", self._generator, None),
            (experiment, "write_sparse_dataset", "distill.write", self._call, None),
            (experiment, "read_sparse_dataset", "distill.read", self._call, None),
            (experiment, "save_checkpoint", "checkpoint.save", self._call, None),
            (experiment, "load_checkpoint", "checkpoint.load", self._call, None),
            (checkpoint, "load_checkpoint", "checkpoint.load", self._call, None),
            (experiment, "lm_batches", "data.batch", self._generator,
             lambda b: int(b.inputs.size)),
            (experiment, "alignment_batches", "data.batch", self._generator,
             lambda b: int(b.inputs.size)),
        ]
        for owner, attr, name, kind, info in patches:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, kind(name, original, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- reading -----------------------------------------------------------

    def select(self, name: str, phase: str | None = "pass") -> list[Span]:
        return [s for s in self.spans
                if s is not None and s.name == name and (phase is None or s.phase == phase)]

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s is not None and s.parent >= 0:
                kids.setdefault(s.parent, []).append(i)
        return kids


def pct(values, q: float) -> float:
    """Percentile of a sample, 0.0 for an empty one (the layer did not run)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def block_phases(tr: Tracer) -> tuple[list[float], list[float], list[float]]:
    """Split each speculative block's wall time into propose, verify, accept.

    Propose runs from the block's start to the target's verify forward,
    verify from there to the end of the last target distribution computed
    after it, and accept is the rest of the block: the accept loop, the
    residual or bonus draw and the cache rollback.
    """
    kids = tr.children()
    propose, verify, accept = [], [], []
    for bi, blk in enumerate(tr.spans):
        if blk is None or blk.name != "specdec.block" or blk.phase != "pass":
            continue
        ch = [tr.spans[i] for i in kids.get(bi, [])]
        ver = next((s for s in ch if s.name == "specdec.forward" and s.info[0] == "target"),
                   None)
        if ver is None:
            continue
        # every distribution call after the verify forward is a target one
        ver_end = max([ver.t1] + [s.t1 for s in ch
                                  if s.name == "specdec.distribution" and s.t0 >= ver.t1])
        propose.append(ver.t0 - blk.t0)
        verify.append(ver_end - ver.t0)
        accept.append(blk.t1 - ver_end)
    return propose, verify, accept


def with_children(tr: Tracer, name: str) -> list[tuple[float, float]]:
    """(duration, time covered by child spans) of each `name` span in passes;
    the difference is the span's self time."""
    kids = tr.children()
    return [(s.dur, sum(tr.spans[c].dur for c in kids.get(i, [])))
            for i, s in enumerate(tr.spans)
            if s is not None and s.name == name and s.phase == "pass"]
