"""The fork runner's own arithmetic: how many workers a run takes and how it is cut.

Tests of whole runs over forked workers, which reach the runner only through
`run_suite` and `evaluate_file`, are in test_harness.py.
"""

import itertools
import os
import threading

from ineq import THEOREM_IDS, runner


def test_worker_count_follows_cpus_and_break_even(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    even = runner._FORK_BREAK_EVEN
    assert runner._worker_count(len(THEOREM_IDS)) == 1  # one instance of every id
    assert runner._worker_count(2 * even - 1) == 1
    assert runner._worker_count(2 * even) == 2
    assert runner._worker_count(100 * even) == 4
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert runner._worker_count(100 * even) == 1  # no fork beside a thread
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_the_piece_cut_covers_every_index_once_and_cuts_only_the_tail():
    floor = runner._PIECE_FLOOR
    for jobs, size, workers in itertools.product(
        range(1, 30), (1, 2, 7, floor, floor + 1, 40, 1000), range(1, 5)
    ):
        pieces = runner._pieces(jobs, size, workers)
        assert [(j, i) for j, lo, hi in pieces for i in range(lo, hi)] == [
            (j, i) for j in range(jobs) for i in range(size)
        ]
        assert all(lo < hi for _, lo, hi in pieces)
        # a piece is the rest of its job or ceil(remaining / (2 x workers)),
        # whichever is less, but at least the floor: so every job that starts
        # with more than 2 x workers x size instances left is one piece, and a
        # piece that is cut holds at least the floor, or ends its job
        remaining = jobs * size
        for j, lo, hi in pieces:
            assert hi - lo == min(size - lo, max(floor, -(-remaining // (2 * workers))))
            remaining -= hi - lo
        whole = max(0, jobs - 2 * workers)
        assert pieces[:whole] == [(j, 0, size) for j in range(whole)]
        assert all(hi - lo >= floor or hi == size for _, lo, hi in pieces)
    # ceil(remaining / 6) falls below 40 instances at the fourth job
    assert runner._pieces(8, 40, 3) == [
        (0, 0, 40), (1, 0, 40), (2, 0, 40), (3, 0, 34), (3, 34, 40), (4, 0, 27), (4, 27, 40),
        (5, 0, 20), (5, 20, 37), (5, 37, 40), (6, 0, 16), (6, 16, 32), (6, 32, 40),
        (7, 0, 16), (7, 16, 32), (7, 32, 40),
    ]
    # one job, as an eval document is, is cut by the same rule: perfbench's
    # 480-instance quadrature document over two workers
    assert [hi - lo for _, lo, hi in runner._pieces(1, 480, 2)] == [
        120, 90, 68, 51, 38, 29, 21, 16, 16, 16, 15
    ]


def test_the_claims_of_any_run_fit_one_pipe_write():
    # `_run` writes 4 bytes a piece into a pipe before any reader exists; the
    # floor grows with the run, so no run has more than _PIECES_MAX pieces
    # cut short of their job's end, and a job ends one piece at most
    for jobs, size, workers in itertools.product(
        (1, 2, 25), (1, 480, 10**6, 2**20, 2**31), (1, 2, 3, 64, 1000, 4096)
    ):
        pieces = runner._pieces(jobs, size, workers)
        assert len(pieces) <= runner._PIECES_MAX + jobs, (jobs, size, workers)
        assert 4 * len(pieces) <= 65536  # what a Linux pipe buffers by default
        assert pieces[-1] == (jobs - 1, pieces[-1][1], size)
    # the guided rule alone would cut 24,693 pieces here, 98,772 bytes
    assert len(runner._pieces(1, 2**31, 1024)) <= runner._PIECES_MAX + 1
