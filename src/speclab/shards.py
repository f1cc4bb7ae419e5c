"""Forked worker processes that share one process's training steps and
generation jobs, and the rule for how many shards a piece of work splits
into.

A piece of work splits into one shard per CPU this process may run on
(`cpus`), and into at most one per independent row of it. It splits only
where Linux `fork` is available, only the main thread runs, and BLAS is
pinned to one thread: every one of `THREAD_VARS` that is set is "1", and
at least one is set. With BLAS on more threads per process, the shards'
threads oversubscribe the CPUs and a step runs several times slower, so
the work then runs as one shard, in-process.

Shard 0 runs in the calling process and shard i > 0 on worker i - 1. The
workers are forked once and kept for later calls, not forked per call: a
fork write-protects every page of the parent, so a process that forked at
each training stage would take one page fault per page it writes in the
next one, which the allocator policy of `training` exists to avoid. They
share one anonymous `mmap` with the calling process (`start`). A call
that needs more workers or a larger region than the live pool has forks
a new pool. Any failure closes the pool, and so does the exit of the
process; a worker exits through `os._exit` when its pipe closes, as every
`multiprocessing` child does, so no worker writes the parent's buffered
output.
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import signal
import threading

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def count(rows: int) -> int:
    """How many shards `rows` independent rows of work split into (see the
    module docstring)."""
    pinned = [os.environ[v] for v in THREAD_VARS if v in os.environ]
    if (not pinned or any(v != "1" for v in pinned) or not hasattr(os, "sched_getaffinity")
            or threading.active_count() != 1):  # sched_getaffinity: Linux, which forks
        return 1
    return max(1, min(cpus(), rows))


def _serve(conn, inherited) -> None:
    """A worker's loop: run each (function, args) received and send back
    (True, result) or (False, the exception), until the pipe closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles an interrupt
    for other in inherited:  # the parent's ends of every pipe, so EOF reaches this one
        other.close()
    while True:
        try:
            message = conn.recv_bytes()
        except EOFError:
            return
        try:
            fn, args = pickle.loads(message)
            reply = (True, fn(*args))
        except Exception as exc:  # sent back, so the caller raises it
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:  # the caller closed the pool
            return
        except Exception as exc:  # a result or exception that does not pickle
            conn.send((False, RuntimeError(f"shard result not sent: {exc!r}")))


class _Pool:
    def __init__(self, workers: int, nbytes: int) -> None:
        import multiprocessing  # here, so that a process that never shards does not load it

        global _region
        # MAP_SHARED, made before the fork: writes reach every process
        self.region = _region = mmap.mmap(-1, nbytes)
        self.owner = os.getpid()
        ctx = multiprocessing.get_context("fork")
        self.conns: list = []
        self.procs: list = []
        for _ in range(workers):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(theirs, [*self.conns, mine]), daemon=True)
            proc.start()
            theirs.close()
            self.conns.append(mine)
            self.procs.append(proc)

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()


_pool: _Pool | None = None
_region: mmap.mmap | None = None  # the live pool's region, in the parent and its workers


def shared() -> mmap.mmap:
    """The region of this process's pool: in a worker, the one it was
    forked with."""
    return _region


def start(workers: int, nbytes: int = 0) -> mmap.mmap:
    """A pool of at least `workers` workers and a shared region of at
    least `nbytes` bytes, returning that region: the live pool, or a new
    one whose region is a power of two bytes large, so that growing
    needs few forks."""
    global _pool
    if _pool is not None and _pool.owner != os.getpid():  # inherited by a fork: not ours
        _pool = None
    if _pool is None or len(_pool.procs) < workers or len(_pool.region) < nbytes:
        if _pool is not None:
            workers, nbytes = max(workers, len(_pool.procs)), max(nbytes, len(_pool.region))
            close()
        _pool = _Pool(workers, 1 << max(nbytes - 1, mmap.PAGESIZE - 1).bit_length())
    return _pool.region


def run(calls: list[tuple]) -> list:
    """Run calls[0] = (function, args) here and call i on worker i - 1 at
    the same time; returns the results in call order, or raises the error
    of the first call that failed, with its type and message, after
    closing the pool. Worker calls name module-level functions, and their
    arguments and results are pickled."""
    pool = _pool
    try:
        for conn, call in zip(pool.conns, calls[1:]):
            conn.send(call)
        fn, args = calls[0]
        try:
            replies = [(True, fn(*args))]
        except Exception as exc:
            replies = [(False, exc)]
        replies += [conn.recv() for conn in pool.conns[:len(calls) - 1]]
    except EOFError as exc:
        close()
        raise RuntimeError("a shard worker exited") from exc
    except BaseException:
        close()
        raise
    for ok, value in replies:
        if not ok:
            close()
            raise value
    return [value for _, value in replies]


def close() -> None:
    """End the pool's workers, if there is a pool."""
    global _pool, _region
    pool, _pool, _region = _pool, None, None
    if pool is not None and pool.owner == os.getpid():
        pool.close()


atexit.register(close)
