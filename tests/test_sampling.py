"""The samplers' own contracts: where instance i reads its randomness, and through what.

Each test drives the public `sample_admissible` and changes only `sampling`'s own
stream: a sampled document is all that a test here compares.
"""

import json
import zlib

import numpy as np

from ineq import THEOREM_IDS, FieldTag, sample_admissible, sampling
from ineq.harness import REAL_ONLY_IDS


def test_instance_i_starts_at_counter_block_i_times_2_to_the_64(monkeypatch):
    # a generator that instance i - 1 left dirty (many doubles, a half-used
    # 32-bit word) yields the same instance i as a fresh stream advanced to
    # block i * 2**64, which is what sample_admissible(index=i) replays
    tid, seed, i = "thm6.2", 9, 5
    stream = sampling._Stream(seed, tid)
    dirty = sampling._rng_for(stream, i - 1)
    dirty.uniform(size=10_001)
    dirty.integers(0, 2**31, size=3, dtype=np.uint32)
    reused = sampling._rng_for(stream, i)
    key = np.random.SeedSequence([seed, zlib.crc32(tid.encode("ascii"))])
    fresh = np.random.Generator(np.random.Philox(key).advance(i << 64))
    assert reused.uniform(size=7).tolist() == fresh.uniform(size=7).tolist()

    # sample_admissible keys its stream so, and its document does not change
    # when that stream is left dirty by instance i - 1 first
    doc = sample_admissible(tid, "complex", 4, seed, index=i)
    init, keys = sampling._Stream.__init__, []

    def dirtied(self, *args):
        init(self, *args)
        keys.append(self.key)
        left = sampling._rng_for(self, i - 1)
        left.uniform(size=10_001)
        left.integers(0, 2**31, size=3, dtype=np.uint32)

    monkeypatch.setattr(sampling._Stream, "__init__", dirtied)
    assert sample_admissible(tid, "complex", 4, seed, index=i) == doc
    assert keys == [tuple(int(k) for k in np.random.Philox(key).state["state"]["key"])]


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
    init = sampling._Stream.__init__

    def uniform_only(self, *args):
        init(self, *args)
        self.generator = _UniformOnly(self.generator)

    monkeypatch.setattr(sampling._Stream, "__init__", uniform_only)
    for case, want in zip(cases, wanted):
        got = sample_admissible(*case[:5], index=case[5])
        assert json.dumps(got) == json.dumps(want), case
    assert len(cases) == 1440
