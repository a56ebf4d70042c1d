"""The fork runner of `run_suite` and `evaluate_file`: a run's pieces, dealt from one queue.

`_run` counts jobs into a tally, using every CPU available to the process,
with no option to choose how many.  A job is a callable (lo, hi) -> its
results lo..hi-1 in index order: a theorem's trials, or a document's
instances.  The run is cut into `_pieces` whose bounds depend only on the
job count, the job size and the worker count, by one rule for every run:
guided self-scheduling, so whole jobs while many are left, and a tail cut
finer.  This process and its forked children claim the pieces from one pipe
as each becomes free, and this process merges the pieces' tallies in piece
order, so the report, and the first error raised, do not depend on the
worker count or on which worker counted what.  Runs of fewer than two
workers' worth of instances, one-CPU hosts, platforms without `os.fork` and
processes running more than one Python thread stay serial.

The runner knows nothing of theorems.  A tally is what `_run` is given:
`tally.counted(job, lo, hi)` returns a new, picklable tally of `job(lo, hi)`,
and `tally.merge(later)` folds in the tally of the results that follow.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import threading
from typing import Callable, Optional

#: Instances per worker below which one more forked worker costs `_run`
#: more than it saves: a fork, its copy-on-write faults and its reaping cost
#: about as much as this many instances (CHANGES.md has the measurements).
#: At 250 per worker, perfbench's `suite` call, the fork was still faster
#: than serial in most alternating runs, though not while the host's second
#: CPU was busy.
_FORK_BREAK_EVEN = 128

#: Fewest instances in a piece cut from the tail of a run (`_pieces`).
_PIECE_FLOOR = 16

#: Most pieces `_pieces` cuts a run into, give or take one a job: its floor
#: grows with the run so that the claims `_run` writes, 4 bytes a piece, fit
#: the 64 KiB a pipe buffers by default, whatever the run or worker count.
_PIECES_MAX = 8192

#: Bytes a child's result pipe holds where the platform lets a pipe be sized
#: (Linux, up to its pipe-max-size): room for the records of several pieces,
#: so that a child seldom waits while this process counts a piece of its own.
_PIPE_BYTES = 1 << 20


def _worker_count(instances: int) -> int:
    """Processes `_run` splits `instances` over: 1 means serial, no fork.

    One per CPU available to this process, but no more than leaves each
    worker `_FORK_BREAK_EVEN` instances.  Forking needs `os.fork` and a
    process with a single Python thread.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), instances // _FORK_BREAK_EVEN))


def _pieces(jobs: int, size: int, workers: int) -> list:
    """The (job, lo, hi) pieces of a run of `jobs` jobs of `size`, in (job, lo) order.

    A piece is the rest of its job or, if fewer, ceil(remaining / (2 workers))
    instances, but at least max(`_PIECE_FLOOR`, ceil(jobs size / _PIECES_MAX)):
    whole jobs while the run has many left, and a tail cut finer, guided-style
    (Polychronopoulos and Kuck, "Guided self-scheduling", IEEE Trans.
    Computers C-36(12), 1987).  A run of one job, as every `eval` is, is cut
    the same way: the first piece a quarter of it over two workers, the last
    ones of the floor.
    """
    floor = max(_PIECE_FLOOR, -(-jobs * size // _PIECES_MAX))
    pieces, remaining = [], jobs * size
    for j in range(jobs):
        lo = 0
        while lo < size:
            hi = min(size, lo + max(floor, -(-remaining // (2 * workers))))
            pieces.append((j, lo, hi))
            remaining -= hi - lo
            lo = hi
    return pieces


def _serve(claim: Callable, count: Callable, fd: int) -> None:
    """A forked child's whole life: for each piece it claims, a length-prefixed
    pickled (piece, tally) to `fd`.

    It never returns: an error ends it, and its claims, early, and it ends
    with `os._exit`, so the stdio buffers it inherited are never flushed twice.
    """
    code = 1
    try:
        out = os.fdopen(fd, "wb")
        for k in iter(claim, None):
            data = pickle.dumps((k, count(k)), pickle.HIGHEST_PROTOCOL)
            out.write(len(data).to_bytes(8, "little") + data)
            out.flush()
        code = 0
    finally:
        os._exit(code)


def _result_pipe() -> tuple[int, int]:
    """A child's result pipe, sized to `_PIPE_BYTES` where the platform allows."""
    import fcntl  # POSIX, as `os.fork` is

    r, w = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        with contextlib.suppress(OSError):  # past the host's limit: the default size
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    return r, w


def _read(fd: int, n: int) -> bytearray:
    """`n` bytes of `fd`, fewer only at its end of file."""
    data = bytearray()
    while len(data) < n and (more := os.read(fd, n - len(data))):
        data += more
    return data


def _run(tally, jobs: list, size: int) -> None:
    """Count `job(0, size)` of every job into `tally`, job after job.

    The run's `_pieces` for `_worker_count` workers are numbered into one
    pipe before any fork.  This process claims the first, and then every
    worker, forked children included, claims the next as it becomes free.
    This process reads what children sent between its own pieces, and
    merges the tallies in piece order.  A piece that no child sent, because
    its child raised or died, is counted here in its turn, once every child
    has ended.  An error in a piece of this process's ends its claims, and
    is raised in its turn, after every piece before it.  So `tally`, and the
    first exception raised, are a serial run's.  Every child is killed and
    reaped on the way out.
    """
    workers = _worker_count(len(jobs) * size)
    pieces = _pieces(len(jobs), size, workers)

    def count(k: int):
        j, lo, hi = pieces[k]
        return tally.counted(jobs[j], lo, hi)

    def claim() -> Optional[int]:
        data = os.read(claims, 4)
        return int.from_bytes(data, "little") if data else None

    def receive(block: bool) -> None:
        """Put each (piece, tally) that has arrived in `done`, having waited for one if `block`."""
        for fd, _ in ready.poll(None if block else 0):  # poll, unlike select, takes any fd
            try:
                k, part = pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))
                done[k] = part
            except (EOFError, pickle.UnpicklingError):  # the child has ended
                ready.unregister(fd)
                readers.remove(fd)
                os.close(fd)

    claims, w = os.pipe()
    # 4 bytes a piece: at most about _PIECES_MAX of them, which fit the 64 KiB a
    # pipe buffers, so this write never waits for a reader
    os.write(w, b"".join(k.to_bytes(4, "little") for k in range(len(pieces))))
    os.close(w)
    done, readers, pids = {}, [], []
    ready = select.poll() if workers > 1 else None  # POSIX, as `os.fork` is
    try:
        k = claim()
        for _ in range(workers - 1):
            r, w = _result_pipe()
            try:
                pid = os.fork()
            except OSError:
                pid = None  # its reader sees end of file at once: this process claims more
            if pid == 0:
                _serve(claim, count, w)
            os.close(w)
            readers.append(r)
            ready.register(r, select.POLLIN)
            pids.append(pid)
        while k is not None:
            try:
                done[k] = count(k)
            except Exception as exc:
                done[k] = exc  # raised in its turn, after every piece before it
                break
            if readers:
                receive(block=False)
            k = claim()
        for k in range(len(pieces)):
            while k not in done and readers:
                receive(block=True)
            part = done.pop(k) if k in done else count(k)
            if isinstance(part, Exception):
                raise part
            tally.merge(part)
    finally:
        for fd in [claims, *readers]:
            os.close(fd)
        for pid in filter(None, pids):
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
