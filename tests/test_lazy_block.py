"""The block lazy kernel against the scalar rule, trial by trial, and the
campaigns that run it against reference loops over one-trial syndromes."""

import random

import numpy as np
import pytest

from fault_reference import edge_errors, perfect_trials, reference_sample, reference_syndrome
from lazyqec import experiments
from lazyqec.code_model import (
    CheckBasis,
    CodeKind,
    build_rotated_surface_code,
    build_schedule,
    build_toric_code,
)
from lazyqec.decoders import DecoderKind, decode
from lazyqec.experiments import BLOCK, estimate_logical_error, estimate_p_fail
from lazyqec.graph import build_decoding_graph, build_perfect_graph, make_graph
from lazyqec.lazy import BLOCK_FAILURES, lazy_block, lazy_decode
from lazyqec.noise import FaultSampler, NoiseMode, NoiseParams, make_rng

SEED = 41


def keys_of(graph, defect_sets) -> np.ndarray:
    """A block's sorted defect keys, built from per-trial defect sets."""
    n_v = graph.rounds * graph.n_checks
    return np.array(
        sorted(i * n_v + t * graph.n_checks + q for i, defects in enumerate(defect_sets)
               for q, t in defects),
        dtype=np.int64,
    )


def assert_matches_scalar(graph, keys, trials) -> int:
    """Every trial's block outcome equals ``lazy_decode``'s; returns the
    number of failed trials."""
    out = lazy_block(graph, keys, trials)
    assert out.failure.shape == out.ambiguous_count.shape == (trials,)
    corrections = [set() for _ in range(trials)]
    for i, eid in zip(out.trial.tolist(), out.edge.tolist()):
        assert eid not in corrections[i]
        corrections[i].add(eid)
    for i, syndrome in enumerate(graph.key_syndromes(keys, range(trials))):
        want = lazy_decode(graph, syndrome)
        got = (BLOCK_FAILURES[out.failure[i]], int(out.ambiguous_count[i]),
               frozenset(corrections[i]) if out.failure[i] == 0 else None)
        assert got == (want.failure, want.ambiguous_count, want.correction), (i, syndrome)
        assert out.failure[i] == 0 or not corrections[i]
    return int((out.failure != 0).sum())


@pytest.fixture(scope="module")
def circuit_graphs():
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


@pytest.mark.parametrize("p", [1e-3, 3e-3])
@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("basis", list(CheckBasis))
@pytest.mark.parametrize("d", [3, 5, 9])
def test_circuit_windows(circuit_graphs, d, basis, closed, p):
    graph = circuit_graphs(d, basis, closed)
    sampler = FaultSampler(graph.census, graph.noisy_rounds, p)
    failed = 0
    for b, block in enumerate([0, 1, 7, 256, 256]):
        keys, _ = graph.block_syndromes(sampler.sample_block(make_rng(SEED, b), block))
        failed += assert_matches_scalar(graph, keys, block)
    if d == 9 and p == 3e-3:
        assert failed > 50


@pytest.mark.parametrize(
    "layout, p, trials",
    [(build_toric_code(4), 1e-2, 4000), (build_toric_code(20), 1e-2, 1000),
     (build_rotated_surface_code(9), 3e-2, 2000)],
    ids=["toric4", "toric20", "rotated9"],
)
def test_perfect_measurement_graphs(layout, p, trials):
    graph = build_perfect_graph(layout, NoiseParams(p, NoiseMode.PERFECT_MEASUREMENT))
    defects = [edge_errors(graph, hits)[0].defects for hits in perfect_trials(graph, SEED, trials)]
    assert_matches_scalar(graph, keys_of(graph, []), 0)
    assert_matches_scalar(graph, keys_of(graph, defects[:1]), 1)
    assert_matches_scalar(graph, keys_of(graph, defects[1:8]), 7)
    assert assert_matches_scalar(graph, keys_of(graph, defects), trials) > 10


def random_graph(rng: random.Random):
    """Random edges, parallel ones included, over a few rounds of checks,
    and half-edges at about a third of the vertices."""
    n_checks, rounds = rng.randint(2, 9), rng.randint(1, 3)
    verts = [(q, t) for t in range(rounds) for q in range(n_checks)]
    pairs = [tuple(rng.sample(verts, 2)) for _ in range(rng.randint(1, 3 * len(verts)))]
    pairs += rng.choices(pairs, k=1 + len(pairs) // 4)   # parallel copies
    rng.shuffle(pairs)
    halves = [v for v in verts if rng.random() < 0.35]
    return make_graph(pairs, halves, n_checks=n_checks, rounds=rounds)


def test_random_graphs_with_parallel_edges():
    rng = random.Random(SEED)
    failed = ambiguous = 0
    for _ in range(20):
        graph = random_graph(rng)
        assert len({(e.u, e.v) for e in graph.edges}) < len(graph.edges)
        verts = list(graph.vertices())
        for trials in (0, 1, 7, 256):
            defects = [{v for v in verts if rng.random() < 0.3} for _ in range(trials)]
            keys = keys_of(graph, defects)
            failed += assert_matches_scalar(graph, keys, trials)
            ambiguous += int(lazy_block(graph, keys, trials).ambiguous_count.sum())
    assert failed > 100 and ambiguous > 100


# --- campaigns against reference loops over one-trial syndromes ----------------


def trial_results(monkeypatch, estimate, **kw) -> list[bool]:
    """Per-trial results of a campaign, as its trial runner returns them."""
    seen: list[bool] = []
    run_trials = experiments._run_trials

    def record(*args):
        out = run_trials(*args)
        seen.extend(out)
        return out

    with monkeypatch.context() as patch:   # undone on exit: later calls record only their own
        patch.setattr(experiments, "_run_trials", record)
        est = estimate(**kw)
    assert est.point == sum(seen) / len(seen)
    return seen


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_p_fail_campaign_matches_scalar_loop(monkeypatch, seed):
    p, d, trials = 3e-3, 5, 2 * BLOCK + 90
    lay = build_rotated_surface_code(d)
    graph = build_decoding_graph(lay, build_schedule(lay), d, NoiseParams(p), CheckBasis.X)
    want = []
    for b in range(-(-trials // BLOCK)):
        events = reference_sample(graph.census, graph.noisy_rounds, p, make_rng(seed, b), BLOCK)
        want += [not lazy_decode(graph, reference_syndrome(graph, e)).success for e in events]
    want = want[:trials]
    kw = dict(p=p, d=d, trials=trials, seed=seed)
    assert trial_results(monkeypatch, estimate_p_fail, **kw, workers=1) == want
    assert trial_results(monkeypatch, estimate_p_fail, **kw, workers=2) == want
    assert 0 < sum(want) < trials


def test_perfect_logical_campaign_does_not_depend_on_trial_or_worker_count(monkeypatch):
    kw = dict(decoder_kind=DecoderKind.LAZY_MWPM, p=4e-2, d=6, seed=9,
              layout_kind=CodeKind.TORIC_2D)
    long = trial_results(monkeypatch, estimate_logical_error, **kw, trials=2 * BLOCK, workers=1)
    for workers in (1, 2):
        short = trial_results(monkeypatch, estimate_logical_error, **kw, trials=BLOCK + 90,
                              workers=workers)
        assert short == long[:BLOCK + 90]
    assert trial_results(monkeypatch, estimate_logical_error, **kw, trials=2 * BLOCK,
                         workers=2) == long
    assert 0 < sum(long[:BLOCK + 90]) < BLOCK + 90


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_perfect_logical_campaign_matches_scalar_loop(monkeypatch, seed):
    p, d, trials = 4e-2, 6, BLOCK + 90
    graph = build_perfect_graph(build_toric_code(d), NoiseParams(p, NoiseMode.PERFECT_MEASUREMENT))
    want, fallbacks = [], 0
    for hits in perfect_trials(graph, seed, trials):
        syndrome, error_obs = edge_errors(graph, hits)
        record = decode(graph, syndrome, DecoderKind.LAZY_UNION_FIND)
        assert record.lazy_outcome == lazy_decode(graph, syndrome)
        fallbacks += record.used_fallback
        want.append((error_obs ^ graph.obs_of_edges(record.correction)) != 0)
    kw = dict(decoder_kind=DecoderKind.LAZY_UNION_FIND, p=p, d=d, trials=trials, seed=seed,
              layout_kind=CodeKind.TORIC_2D)
    assert trial_results(monkeypatch, estimate_logical_error, **kw, workers=1) == want
    assert trial_results(monkeypatch, estimate_logical_error, **kw, workers=2) == want
    assert fallbacks > 10 and 0 < sum(want) < trials
