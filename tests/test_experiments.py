import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazyqec.code_model import CodeKind
from lazyqec.decoders import DecoderKind
from lazyqec.experiments import (
    Estimate,
    bandwidth_curve,
    benchmark_runtime,
    estimate_from_counts,
    estimate_logical_error,
    estimate_p_fail,
    reproduce_table,
    wilson_interval,
)
from lazyqec.noise import NoiseMode


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert hi - lo < 0.25
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=200))
@settings(max_examples=80, deadline=None)
def test_wilson_interval_properties(k, n):
    if k > n:
        return
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= hi <= 1.0
    if 0 < k < n:
        assert lo < k / n < hi


def test_wilson_interval_narrows_with_n():
    widths = [
        hi - lo
        for lo, hi in (wilson_interval(n // 10, n) for n in (100, 1000, 10000))
    ]
    assert widths[0] > widths[1] > widths[2]


def test_estimate_from_counts_censored():
    est = estimate_from_counts(0, 500, seed=3)
    assert est.censored
    assert est.point == 0.0 and est.ci_low == 0.0
    assert est.ci_high == pytest.approx(3.0 / 500)
    est2 = estimate_from_counts(5, 500, seed=3)
    assert not est2.censored
    assert est2.point == pytest.approx(0.01)
    doc = est2.to_json_dict()
    assert set(doc) == {"point", "ci_low", "ci_high", "trials", "seed", "censored"}


def test_estimate_p_fail_p_zero():
    est = estimate_p_fail(0.0, 5, trials=200, seed=0)
    assert est.censored and est.point == 0.0


def test_estimate_p_fail_deterministic_and_worker_independent():
    a = estimate_p_fail(3e-3, 3, trials=400, seed=12)
    b = estimate_p_fail(3e-3, 3, trials=400, seed=12)
    c = estimate_p_fail(3e-3, 3, trials=400, seed=12, workers=4)
    assert a == b == c
    d = estimate_p_fail(3e-3, 3, trials=400, seed=13)
    assert a != d


def test_estimate_p_fail_grows_with_p():
    lo = estimate_p_fail(1e-3, 3, trials=2000, seed=7)
    hi = estimate_p_fail(1e-2, 3, trials=2000, seed=7)
    assert hi.point > lo.point


def test_logical_error_perfect_measurement_sane():
    est = estimate_logical_error(
        DecoderKind.MWPM, 0.05, 4, trials=2000, seed=21,
        layout_kind=CodeKind.TORIC_2D,
    )
    assert 0.0 < est.point < 0.2
    zero = estimate_logical_error(DecoderKind.MWPM, 0.0, 4, trials=100, seed=21)
    assert zero.censored and zero.point == 0.0


def test_logical_error_circuit_level_sane():
    est = estimate_logical_error(
        DecoderKind.LAZY_MWPM, 3e-3, 3, trials=1500, seed=33,
        mode=NoiseMode.CIRCUIT_LEVEL,
    )
    assert 0.0 < est.point < 0.5


@pytest.mark.parametrize("kind", [DecoderKind.MWPM, DecoderKind.LAZY_MWPM])
@pytest.mark.parametrize(
    "mode, p, d",
    [(NoiseMode.PERFECT_MEASUREMENT, 3e-2, 6), (NoiseMode.CIRCUIT_LEVEL, 3e-3, 5)],
)
def test_logical_error_matching_worker_independent(kind, mode, p, d):
    # each worker resumes its own copy of the campaign's searches
    one = estimate_logical_error(kind, p, d, trials=1500, seed=19, mode=mode)
    two = estimate_logical_error(kind, p, d, trials=1500, seed=19, mode=mode, workers=2)
    assert one == two
    assert one.point > 0.0


def test_logical_error_lazy_counts_giveups():
    # at a fixed stream the lazy-only rate dominates the hierarchical rate,
    # because every lazy give-up is booked as a failure
    kw = dict(p=0.08, d=4, trials=1500, seed=44, layout_kind=CodeKind.TORIC_2D)
    lazy = estimate_logical_error(DecoderKind.LAZY, **kw)
    both = estimate_logical_error(DecoderKind.LAZY_MWPM, **kw)
    assert lazy.point >= both.point


def test_benchmark_runtime_shape_and_fast_path():
    stats = benchmark_runtime(
        [DecoderKind.LAZY_MWPM, DecoderKind.MWPM], 0.0, 6, trials=50, seed=5,
    )
    for kind in (DecoderKind.LAZY_MWPM, DecoderKind.MWPM):
        row = stats[kind]
        assert set(row) == {"mean", "p99", "max", "total", "fallback_fraction"}
        assert row["fallback_fraction"] == 0.0
        assert row["total"] >= row["max"] >= row["p99"] >= 0.0


def test_bandwidth_curve_zero_rate():
    rows = bandwidth_curve([0.0], [5], trials=100, seed=9)
    (row,) = rows
    assert row["bw_with"] == 0.0
    assert row["censored"]
    assert row["bw_without"] == pytest.approx(24e6)
    assert row["bw_with_upper"] == pytest.approx(row["p_fail_ci_high"] * 24e6)


def test_bandwidth_curve_reduction():
    rows = bandwidth_curve([1e-3], [5], trials=3000, seed=9)
    (row,) = rows
    assert row["bw_with"] < row["bw_without"]
    assert row["bw_with"] == pytest.approx(row["p_fail"] * row["bw_without"])


def test_reproduce_table_shape():
    rows = reproduce_table(1e-15, [1e-3], [100, 1000], trials=300, seed=2)
    assert len(rows) == 2
    for params, rep, est in rows:
        assert rep.d == 29
        assert params.p_fail == (est.ci_high if est.censored else est.point)
        assert rep.dec_units_naive == 2 * params.K
        assert isinstance(est, Estimate)
