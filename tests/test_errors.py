"""How an error message quotes an offending value."""

import pytest

from ineq import InputFormatError, evaluate_instance, sample_admissible


def test_brief_quotes_short_values_whole_and_cuts_long_ones():
    from ineq.errors import _BRIEF_CHARS, _brief

    short = [0.5] * 10
    assert _brief(short) == repr(short)
    long = [0.5] * 1000
    assert len(_brief(long)) == _BRIEF_CHARS
    assert _brief(long) == repr(long)[: _BRIEF_CHARS - 3] + "..."
    with pytest.raises(InputFormatError) as exc:
        evaluate_instance(dict(sample_admissible("thm2.1"), r="x" * 10**6))
    assert str(exc.value) == f"thm2.1 'r': expected a number, got {_brief('x' * 10**6)}"
