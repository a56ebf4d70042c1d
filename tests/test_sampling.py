"""The samplers' own contracts: where instance i reads its randomness, and through what.

Each test drives the public `sample_admissible` and reads or changes only `sampling`'s
own draw layer, except the draw-source contract, which hands each sampler its source
where `harness` does: a sampled document is all that a test here compares.
"""

import json
import os
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_child_left
from ineq import THEOREM_IDS, FieldTag, harness, sample_admissible, sampling
from ineq.harness import REAL_ONLY_IDS


def test_instance_i_starts_at_counter_block_i_times_2_to_the_64():
    # a generator that instance i - 1 left dirty (many doubles, a half-used
    # 32-bit word) yields the same instance i as a fresh stream advanced to
    # block i * 2**64, which is what sample_admissible(index=i) replays
    tid, seed, i = "thm6.2", 9, 5
    entropy = np.random.SeedSequence([seed, zlib.crc32(tid.encode("ascii"))])
    key = sampling._key(seed, tid)
    assert key == tuple(int(k) for k in np.random.Philox(entropy).state["state"]["key"])
    dirty = sampling._rng_for(key, i - 1)
    dirty.uniform(size=10_001)
    dirty.integers(0, 2**31, size=3, dtype=np.uint32)
    reused = sampling._rng_for(key, i)
    fresh = np.random.Generator(np.random.Philox(entropy).advance(i << 64))
    assert reused.uniform(size=7).tolist() == fresh.uniform(size=7).tolist()

    # sample_admissible keys its stream so, and its document does not change
    # when this thread's generator is left dirty by instance i - 1 first
    doc = sample_admissible(tid, "complex", 4, seed, index=i)
    assert sampling._KEY_CACHE[tid] == (seed, key)
    left = sampling._rng_for(key, i - 1)
    left.uniform(size=10_001)
    left.integers(0, 2**31, size=3, dtype=np.uint32)
    assert sample_admissible(tid, "complex", 4, seed, index=i) == doc


class _UniformOnly:
    """A draw source with `uniform(low, high, size)` and nothing else."""

    __slots__ = ("_rng",)

    def __init__(self, rng):
        self._rng = rng

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._rng.uniform(low, high, size)


def test_samplers_draw_only_through_uniform(monkeypatch):
    # the draw-source contract: a stand-in exposing only `uniform` reproduces
    # every sampled document bit for bit
    seed, cases = 11, []
    for tid in THEOREM_IDS:
        tags = [FieldTag.REAL] if tid in REAL_ONLY_IDS else [FieldTag.REAL, FieldTag.COMPLEX]
        for dim in (1, 2, 3, 8, 16):
            for tag in tags:
                for adversarial in (False, True):
                    for i in range(3):
                        cases.append((tid, tag, dim, seed, adversarial, i))
    wanted = [sample_admissible(*case[:5], index=case[5]) for case in cases]
    rng_for = harness._rng_for
    monkeypatch.setattr(harness, "_rng_for", lambda *place: _UniformOnly(rng_for(*place)))
    for case, want in zip(cases, wanted):
        got = sample_admissible(*case[:5], index=case[5])
        assert json.dumps(got) == json.dumps(want), case
    assert len(cases) == 1440


#: (theorem, field, dim, seed, adversarial, index), drawn in this order: thm2.2's key
#: is missed, hit, missed on a seed change and on the change back, between draws of
#: other theorems.  At seed 3, instance 294 of thm2.2 on (real, 1) rejects a draw
#: and draws 7 uniforms where instance 0 draws 5, so a rejection loop runs on a
#: reused key and generator.
REUSE_CASES = (
    ("thm2.2", "real", 1, 3, False, 0),
    ("thm2.2", "real", 1, 3, False, 294),
    ("prop7.3", "complex", 1, 3, False, 0),
    ("thm2.2", "complex", 3, 3, True, 1),
    ("thm2.2", "real", 1, 4, False, 294),
    ("thm6.2", "real", 8, 3, False, 128),
    ("thm2.2", "real", 1, 3, False, 294),
    ("thm2.2", "complex", 3, 3, False, 2),
    ("prop7.3", "complex", 1, 3, True, 1),
    ("thm2.2", "real", 1, 3, False, 7),
    ("thm6.2", "real", 8, 3, True, 129),
    ("legacy1.13", "real", 3, 3, False, 42),
    ("legacy1.13", "real", 3, 3, True, 43),
)


@pytest.fixture(scope="module")
def fresh_documents() -> list:
    """Each of REUSE_CASES as the first draw of a new process: drawn in a new process,
    with every key and generator dropped before each draw."""
    script = (
        "import json, sys\n"
        "from ineq import sample_admissible, sampling\n"
        "docs = []\n"
        "for *args, index in json.loads(sys.argv[1]):\n"
        "    sampling._KEY_CACHE.clear()\n"
        "    sampling._GENERATOR_CACHE.clear()\n"
        "    docs.append(sample_admissible(*args, index=index))\n"
        "print(json.dumps(docs))\n"
    )
    pkg = str(Path(sampling.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([pkg, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(REUSE_CASES)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return [json.dumps(doc) for doc in json.loads(proc.stdout)]


def _draw(cases) -> list:
    return [json.dumps(sample_admissible(*case[:5], index=case[5])) for case in cases]


class _Counting(_UniformOnly):
    """A `_UniformOnly` that counts the uniforms it returns."""

    __slots__ = ("drawn",)

    def __init__(self, rng):
        super().__init__(rng)
        self.drawn = 0

    def uniform(self, low=0.0, high=1.0, size=None):
        self.drawn += 1 if size is None else size
        return super().uniform(low, high, size)


def test_the_rejecting_case_draws_more_than_its_first_instance(monkeypatch):
    sources, rng_for = [], harness._rng_for

    def counting(*place):
        sources.append(_Counting(rng_for(*place)))
        return sources[-1]

    monkeypatch.setattr(harness, "_rng_for", counting)
    _draw(REUSE_CASES[:2])
    assert [source.drawn for source in sources] == [5, 7]


def test_reused_keys_and_generators_draw_what_a_new_process_draws(fresh_documents):
    sampling._KEY_CACHE.clear()
    sampling._GENERATOR_CACHE.clear()
    assert _draw(REUSE_CASES) == fresh_documents
    assert list(sampling._GENERATOR_CACHE) == [threading.get_ident()]
    assert sampling._KEY_CACHE["thm2.2"] == (3, sampling._key(3, "thm2.2"))


def test_four_threads_at_once_draw_what_a_new_process_draws(fresh_documents):
    # each thread draws every case in its own rotation, switching often, and
    # places only its own generator
    n, rounds = 4, 5
    start = threading.Barrier(n)
    got, generators = [None] * n, [None] * n

    def work(k):
        start.wait(timeout=60)
        cases = REUSE_CASES[k:] + REUSE_CASES[:k]
        got[k] = [_draw(cases) for _ in range(rounds)]
        generators[k] = sampling._GENERATOR_CACHE[threading.get_ident()]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(n):
        want = fresh_documents[k:] + fresh_documents[:k]
        assert got[k] == [want] * rounds
    own = sampling._GENERATOR_CACHE.get(threading.get_ident())
    assert len({id(rng) for rng in (*generators, own) if rng is not None}) == n + (own is not None)


def test_a_forked_child_draws_what_a_new_process_draws(fresh_documents):
    # the child inherits this process's keys and generator
    _draw(REUSE_CASES)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "w", encoding="utf-8") as out:
                json.dump(_draw(REUSE_CASES[::-1]), out)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as pipe:
        got = json.load(pipe)
    assert os.waitpid(pid, 0)[1] == 0
    assert_no_child_left()
    assert got == fresh_documents[::-1]
