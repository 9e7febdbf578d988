"""The block fault sampler and syndrome kernel against the scalar reference,
and the block structure of the campaigns' trial runner."""

import pytest

from fault_reference import reference_obs, reference_sample, reference_syndrome
from lazyqec import experiments
from lazyqec.code_model import CheckBasis, build_rotated_surface_code, build_schedule
from lazyqec.decoders import DecoderKind
from lazyqec.experiments import BLOCK, _p_fail_block, _run_trials, estimate_logical_error
from lazyqec.graph import build_decoding_graph
from lazyqec.noise import FaultSampler, NoiseMode, NoiseParams, make_rng

SEED = 29
TRIALS_PER_CASE = 48


@pytest.fixture(scope="module")
def graphs():
    cache = {}

    def get(d, basis, closed):
        if (d, basis, closed) not in cache:
            lay = build_rotated_surface_code(d)
            window = dict(drop_initial=False, noisy_rounds=d) if closed else {}
            cache[d, basis, closed] = build_decoding_graph(
                lay, build_schedule(lay), d + 1 if closed else d, NoiseParams(1e-3), basis, **window
            )
        return cache[d, basis, closed]

    return get


def _records(block, trial):
    sel = block.trial == trial
    return list(zip(*(a[sel].tolist() for a in (block.round, block.location, block.choice))))


@pytest.mark.parametrize("block", [1, 7, 256])
@pytest.mark.parametrize("p", [1e-3, 3e-2])
@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("basis", list(CheckBasis))
@pytest.mark.parametrize("d", [3, 5, 9])
def test_block_kernel_matches_scalar_reference(graphs, d, basis, closed, p, block):
    graph = graphs(d, basis, closed)
    sampler = FaultSampler(graph.census, graph.noisy_rounds, p)
    faults_seen = 0
    for b in range(-(-TRIALS_PER_CASE // block)):
        faults = sampler.sample_block(make_rng(SEED, b), block)
        want = reference_sample(graph.census, graph.noisy_rounds, p, make_rng(SEED, b), block)
        assert faults.trials == block
        for i, events in enumerate(want):
            assert _records(faults, i) == [(t, loc.index, c) for t, loc, c in events]
        syndromes, obs = graph.block_syndromes(faults)
        assert syndromes == [reference_syndrome(graph, events) for events in want]
        assert obs == [reference_obs(graph, events) for events in want]
        if block == 1:
            assert sampler.sample(make_rng(SEED, b)) == want[0]
            assert graph.syndrome_of_faults(want[0]) == syndromes[0]
            assert graph.obs_of_faults(want[0]) == obs[0]
        faults_seen += faults.trial.size
    assert faults_seen > 0


def test_one_trial_views_reject_a_fault_off_the_census(graphs):
    graph = graphs(3, CheckBasis.X, False)
    loc = graph.census[0]
    bad = [(0, loc, loc.n_choices)]
    with pytest.raises(ValueError, match="unknown fault location"):
        graph.syndrome_of_faults(bad)
    with pytest.raises(ValueError, match="unknown fault location"):
        graph.obs_of_faults(bad)


def test_run_trials_does_not_depend_on_the_trial_count(graphs):
    graph = graphs(5, CheckBasis.X, False)
    payload = (graph, FaultSampler(graph.census, graph.noisy_rounds, 6e-3))
    short = _run_trials(_p_fail_block, payload, 31, 300, 1)
    long = _run_trials(_p_fail_block, payload, 31, 700, 1)
    assert BLOCK < 300 < 700 and len(short) == 300 and len(long) == 700
    assert short == long[:300]
    assert 0 < sum(short) < 300


def test_circuit_logical_error_is_worker_independent(monkeypatch):
    seen = []
    run_trials = experiments._run_trials

    def record(*args):
        seen.append(run_trials(*args))
        return seen[-1]

    monkeypatch.setattr(experiments, "_run_trials", record)
    kw = dict(decoder_kind=DecoderKind.LAZY_UNION_FIND, p=4e-3, d=3, trials=700, seed=8,
              mode=NoiseMode.CIRCUIT_LEVEL)
    one = estimate_logical_error(**kw, workers=1)
    three = estimate_logical_error(**kw, workers=3)
    assert one == three
    assert seen[0] == seen[1] and 0 < sum(seen[0]) < 700
