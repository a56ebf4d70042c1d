"""Decoding instance documents: the one-call coordinate route against the per-element one."""

import numpy as np
import pytest

from ineq import THEOREM_IDS, FieldTag, coefficients, documents, sample_admissible, vector


@pytest.mark.parametrize("field", ["real", "complex"])
def test_coordinate_lists_decode_bit_identically_to_the_per_element_route(field):
    # a document's coordinate lists, its vectors and coefficient sequences, are the
    # keys whose values are lists; each is built both ways
    checked = 0
    for tid in THEOREM_IDS:
        for dim in (1, 2, 3, 8, 16):
            inst = sample_admissible(tid, field, dim, seed=4, index=dim)
            tag = FieldTag.parse(inst["field"])
            for key, value in inst.items():
                if not isinstance(value, list):
                    continue
                fast = documents._dec_coords(value, tag)
                assert isinstance(fast, np.ndarray), (tid, key)  # the one-call route ran
                slow = [documents._dec_scalar(v) for v in value]
                a, b = vector(fast, tag), vector(slow, tag)
                c, d = coefficients(fast, tag), coefficients(slow, tag)
                for got, want in ((a.coords, b.coords), (c.entries, d.entries)):
                    assert got.dtype == want.dtype == tag.dtype
                    assert got.tobytes() == want.tobytes(), (tid, dim, key)
                checked += 1
    assert checked > 200
