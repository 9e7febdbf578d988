import pickle

import numpy as np
import pytest

from lazyqec.code_model import build_rotated_surface_code, build_schedule
from lazyqec.noise import (
    FaultEvent,
    FaultSampler,
    LocationKind,
    NoiseParams,
    TWO_QUBIT_PAULIS,
    make_rng,
    round_census,
    sample_faults,
    trial_rng,
)


def test_noise_params_range():
    NoiseParams(0.0)
    NoiseParams(1.0)
    with pytest.raises(ValueError):
        NoiseParams(-0.1)
    with pytest.raises(ValueError):
        NoiseParams(1.5)


def test_two_qubit_pauli_count():
    assert len(TWO_QUBIT_PAULIS) == 15
    assert "II" not in TWO_QUBIT_PAULIS


def test_fault_event_fields():
    cnot = next(loc for loc in round_census(build_schedule(build_rotated_surface_code(3)))
                if loc.kind is LocationKind.CNOT)
    ev = FaultEvent(2, cnot, 5)
    assert (ev.round, ev.location, ev.choice) == (2, cnot, 5)
    assert ev.pauli == TWO_QUBIT_PAULIS[5]
    t, loc, choice = ev
    assert (t, loc, choice) == (2, cnot, 5)


def test_census_covers_every_location():
    lay = build_rotated_surface_code(3)
    census = round_census(build_schedule(lay))
    kinds = [loc.kind for loc in census]
    assert kinds.count(LocationKind.PREP) == 8
    assert kinds.count(LocationKind.MEAS) == 8
    assert kinds.count(LocationKind.CNOT) == 24
    # every (qubit, timestep) slot is either gated or waiting
    n_total = lay.n_data + len(lay.plaquettes)
    slots = sum(2 if loc.kind is LocationKind.CNOT else 1 for loc in census)
    assert slots == 6 * n_total


def test_measurement_flip_probability():
    lay = build_rotated_surface_code(3)
    census = round_census(build_schedule(lay))
    for loc in census:
        expect = 2 * 0.03 / 3 if loc.kind is LocationKind.MEAS else 0.03
        assert loc.fault_probability(0.03) == pytest.approx(expect)


def test_sampling_reproducible():
    lay = build_rotated_surface_code(3)
    sch = build_schedule(lay)
    a = sample_faults(sch, 4, NoiseParams(0.01), seed=7)
    b = sample_faults(sch, 4, NoiseParams(0.01), seed=7)
    assert a == b
    c = sample_faults(sch, 4, NoiseParams(0.01), seed=8)
    assert a != c


def test_p_zero_no_faults():
    lay = build_rotated_surface_code(3)
    sch = build_schedule(lay)
    assert sample_faults(sch, 5, NoiseParams(0.0), seed=1) == []


def test_fault_rate_matches_p():
    lay = build_rotated_surface_code(3)
    sch = build_schedule(lay)
    census = round_census(sch)
    p = 0.05
    rounds = 400
    faults = sample_faults(sch, rounds, NoiseParams(p), seed=11)
    expected = rounds * sum(loc.fault_probability(p) for loc in census)
    assert abs(len(faults) - expected) < 5 * np.sqrt(expected)


def test_trial_streams_disjoint():
    x = trial_rng(5, 0).random(4)
    y = trial_rng(5, 1).random(4)
    assert not np.allclose(x, y)
    again = trial_rng(5, 0).random(4)
    assert np.allclose(x, again)


def test_make_rng_streams():
    assert make_rng(1, 0).random() != make_rng(1, 1).random()
    assert make_rng(1, 2).random() == make_rng(1, 2).random()


def _keyed_philox(seed, trial):
    key = np.array([seed % 2**64, (trial + 1) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, -1])
def test_trial_rng_is_the_keyed_philox_stream(seed):
    for trial in range(100):
        got, want = trial_rng(seed, trial), _keyed_philox(seed, trial)
        assert got.random(3).tolist() == want.random(3).tolist()
        assert got.geometric(1e-3, 3).tolist() == want.geometric(1e-3, 3).tolist()
        assert got.integers(15, size=3).tolist() == want.integers(15, size=3).tolist()


def test_trial_rngs_held_at_once_stay_independent():
    a, b = trial_rng(9, 0), trial_rng(9, 1)
    assert a is not b and a.bit_generator is not b.bit_generator
    head_a = a.random(4).tolist()
    head_b = b.random(4).tolist()
    tail_a = a.random(4).tolist()
    want_a, want_b = _keyed_philox(9, 0), _keyed_philox(9, 1)
    assert head_a + tail_a == want_a.random(8).tolist()
    assert head_b == want_b.random(4).tolist()


def test_trial_rng_pickles():
    rng = trial_rng(3, 4)
    rng.random(5)
    copy = pickle.loads(pickle.dumps(rng))
    assert copy.random(6).tolist() == rng.random(6).tolist()


def test_sampler_draw_order():
    """Geometric gaps place the hits of each probability class, in the same
    draws whatever the choices; then one uniform per hit, in (round, census
    index) order, picks its Pauli choice."""
    census = round_census(build_schedule(build_rotated_surface_code(3)))
    rounds, p = 6, 0.02
    sampler = FaultSampler(census, rounds, p)
    total = 0
    for trial in range(300):
        rng = trial_rng(17, trial)
        hits = []
        for q, meas in ((p, False), (2 * p / 3, True)):
            idx = [loc.index for loc in census if (loc.kind is LocationKind.MEAS) == meas]
            n = len(idx) * rounds
            batch = int(q * n + 4.0 * (q * n) ** 0.5) + 1
            pos = -1
            while pos < n:
                for gap in rng.geometric(q, batch).tolist():
                    pos += gap
                    if pos >= n:
                        break
                    t, j = divmod(pos, len(idx))
                    hits.append((t, idx[j]))
        hits.sort()
        u = rng.random(len(hits)).tolist() if hits else []
        want = [(t, j, int(x * census[j].n_choices)) for (t, j), x in zip(hits, u)]
        got = sampler.sample(trial_rng(17, trial))
        assert [(ev.round, ev.location.index, ev.choice) for ev in got] == want
        total += len(got)
    assert total > 500


@pytest.fixture(scope="module")
def d3_hits():
    """Faults of the d=3 census over 2,000 rounds at p=0.05."""
    census = round_census(build_schedule(build_rotated_surface_code(3)))
    faults = FaultSampler(census, 2000, 0.05).sample(make_rng(23))
    return census, faults


def test_sampler_class_counts(d3_hits):
    census, faults = d3_hits
    p, rounds = 0.05, 2000
    for meas in (False, True):
        n = rounds * sum((loc.kind is LocationKind.MEAS) == meas for loc in census)
        q = 2 * p / 3 if meas else p
        k = sum((ev.location.kind is LocationKind.MEAS) == meas for ev in faults)
        assert abs(k - n * q) < 5 * np.sqrt(n * q * (1 - q))


def test_sampler_per_location_counts(d3_hits):
    census, faults = d3_hits
    counts = np.bincount([ev.location.index for ev in faults], minlength=len(census))
    for loc, k in zip(census, counts):
        q = loc.fault_probability(0.05)
        assert abs(k - 2000 * q) < 5 * np.sqrt(2000 * q * (1 - q)), loc


def test_sampler_pauli_choices_uniform(d3_hits):
    _, faults = d3_hits
    for kind, n_choices in ((LocationKind.CNOT, 15), (LocationKind.PREP, 3), (LocationKind.WAIT, 3)):
        choices = [ev.choice for ev in faults if ev.location.kind is kind]
        counts = np.bincount(choices, minlength=n_choices)
        assert counts.size == n_choices
        expected = len(choices) / n_choices
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square with n-1 degrees of freedom: mean n-1, sd sqrt(2(n-1))
        assert chi2 < (n_choices - 1) + 6 * np.sqrt(2 * (n_choices - 1)), (kind, counts)


def test_sampler_hits_sorted_by_round_then_census_index(d3_hits):
    _, faults = d3_hits
    keys = [(ev.round, ev.location.index) for ev in faults]
    assert keys == sorted(set(keys))


def test_sampler_p_one_hits_every_location():
    census = round_census(build_schedule(build_rotated_surface_code(3)))
    faults = FaultSampler(census, 7, 1.0).sample(make_rng(5))
    non_meas = [(ev.round, ev.location.index) for ev in faults
                if ev.location.kind is not LocationKind.MEAS]
    assert non_meas == [
        (t, loc.index) for t in range(7) for loc in census if loc.kind is not LocationKind.MEAS
    ]
