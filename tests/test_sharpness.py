"""Sharpness sweeps and the random probe."""

import pytest

from ineq import (
    CONSTRUCTIONS,
    THEOREM_IDS,
    FieldTag,
    PreconditionError,
    evaluate_instance,
    random_probe,
    sample_admissible,
    sweep,
    sweep_legacy11,
    sweep_thm21,
    sweep_thm22,
)
from ineq.sharpness import _geometric_grid


def closed_ball_ratio(e):
    return 2 * ((1 + e) ** 0.5 - 1) / e


def closed_pair_ratio(e):
    return 2 * ((1 + e * e) ** 0.5 - 1) / (e * e)


def closed_squared_ratio(e):
    return 1 / (1 + e)


def test_constructions_tuple():
    assert CONSTRUCTIONS == ("thm21", "thm22", "legacy11")


def test_ball_sweep_matches_closed_form_everywhere():
    res = sweep_thm21()
    assert res.epsilons[0] == 1.0 and res.epsilons[-1] == pytest.approx(1e-6)
    for e, r in zip(res.epsilons, res.ratios):
        assert r == pytest.approx(closed_ball_ratio(e), abs=1e-12)
    assert res.ratios[0] == pytest.approx(2 * (2**0.5 - 1), abs=1e-12)


def test_ball_sweep_approaches_one():
    res = sweep_thm21()
    assert all(a < b for a, b in zip(res.ratios, res.ratios[1:]))
    assert res.ratios[-1] > 0.9999995
    assert 0.999 <= res.extrapolated_limit <= 1.001


def test_pair_sweep_matches_closed_form_at_moderate_eps():
    # Below eps ~ 1e-4 the gap is a difference of nearly equal norms and the
    # computed ratio carries the cancellation noise, so the closed-form check
    # stays where the gap still has ~10 significant digits.
    res = sweep_thm22(epsilons=[0.5, 0.1, 0.05, 0.01, 1e-3])
    for e, r in zip(res.epsilons, res.ratios):
        assert r == pytest.approx(closed_pair_ratio(e), abs=1e-9)
    assert res.ratios[0] == pytest.approx(0.944272, abs=1e-6)


def test_pair_sweep_default_grid():
    res = sweep_thm22()
    assert all(a < b for a, b in zip(res.ratios, res.ratios[1:]))
    # the tail may overshoot 1 by rounding noise, but never materially
    assert all(r <= 1 + 2e-4 for r in res.ratios)
    assert res.ratios[1] >= 0.999975
    assert 0.999 <= res.extrapolated_limit <= 1.001


def test_squared_sweep_matches_closed_form_everywhere():
    res = sweep_legacy11()
    for e, r in zip(res.epsilons, res.ratios):
        assert r == pytest.approx(closed_squared_ratio(e), abs=1e-9)
    assert all(r < 1 for r in res.ratios)
    assert all(a < b for a, b in zip(res.ratios, res.ratios[1:]))
    assert 0.999 <= res.extrapolated_limit <= 1.001


def test_dispatcher_and_result_shape():
    res = sweep("THM21 ", epsilons=[0.5, 0.25])
    assert res.construction == "thm21"
    assert res.epsilons == (0.5, 0.25)
    d = res.as_dict()
    assert set(d) == {"construction", "epsilons", "ratios", "extrapolated_limit"}
    assert isinstance(d["epsilons"], list) and isinstance(d["ratios"], list)


def test_single_point_grid_extrapolates_to_itself():
    res = sweep("thm21", epsilons=[0.25])
    assert res.extrapolated_limit == res.ratios[0]


def test_grid_validation():
    with pytest.raises(PreconditionError):
        sweep("thm21", epsilons=[])
    with pytest.raises(PreconditionError):
        sweep("thm21", epsilons=[0.1, -0.2])
    with pytest.raises(PreconditionError):
        sweep("thm22", epsilons=[1.5, 0.1])
    with pytest.raises(PreconditionError):
        sweep("legacy11", epsilons=[1.0])
    with pytest.raises(PreconditionError):
        sweep("thm21", epsilons=[0.1, 0.1])
    with pytest.raises(PreconditionError):
        sweep("thm23")


def test_a_geometric_grid_takes_at_most_2_to_the_16_points():
    assert len(_geometric_grid(1e-3, 1e-6, 2**16)) == 2**16
    with pytest.raises(PreconditionError, match="at most 65536 points, got 65537"):
        _geometric_grid(1e-3, 1e-6, 2**16 + 1)


def test_random_probe_is_deterministic_and_bounded():
    a = random_probe("thm2.1", trials=300, dim=3, seed=7)
    b = random_probe("thm2.1", trials=300, dim=3, seed=7)
    assert a.max_ratio == b.max_ratio
    assert 0 < a.max_ratio <= 1 + 1e-9
    c = random_probe("thm4.1", trials=300, dim=2, seed=7)
    assert 0 < c.max_ratio <= 1 + 1e-9
    assert set(a.as_dict()) == {"theorem", "trials", "dim", "seed", "max_ratio"}


def test_random_probe_validates_arguments():
    with pytest.raises(PreconditionError):
        random_probe("thm2.1", trials=0)


@pytest.mark.parametrize(
    "field", ["real", "complex", pytest.param(FieldTag.COMPLEX, id="FieldTag.COMPLEX")]
)
@pytest.mark.parametrize("dim", [1, 3])
def test_random_probe_matches_sampled_documents(field, dim):
    for tid in THEOREM_IDS:
        best = 0.0
        for i in range(12):
            result = evaluate_instance(sample_admissible(tid, field, dim, seed=5, index=i))
            if result.admissible and result.bound > 1e-300:
                best = max(best, result.gap / result.bound)
        assert random_probe(tid, trials=12, dim=dim, seed=5, field=field).max_ratio == best, tid
