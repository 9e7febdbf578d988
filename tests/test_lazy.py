import random
from collections import deque

import numpy as np
import pytest

from fault_reference import edge_errors, perfect_trials
from lazyqec.code_model import CheckBasis, build_rotated_surface_code, build_schedule
from lazyqec.decoders import mwpm_decode, uf_decode
from lazyqec.graph import (
    Syndrome,
    build_decoding_graph,
    build_perfect_graph,
    classify_defects,
    make_graph,
)
from lazyqec.lazy import (
    LazyFailure,
    LazyStreamDecoder,
    count_message_bits,
    lazy_block,
    lazy_decode,
    lazy_decode_stream,
)
from lazyqec.noise import FaultSampler, NoiseMode, NoiseParams, trial_rng

A, B, C, D = (0, 0), (1, 0), (2, 0), (3, 0)


@pytest.fixture(scope="module")
def path_abc():
    """Path a-b-c with half-edges at a and c."""
    return make_graph([(A, B), (B, C)], [A, C])


def test_empty_syndrome(path_abc):
    out = lazy_decode(path_abc, Syndrome.of([]))
    assert out.success
    assert out.correction == frozenset()
    assert out.ambiguous_count == 0


def test_adjacent_pair(path_abc):
    out = lazy_decode(path_abc, Syndrome.of([A, B]))
    assert out.success
    assert out.correction == {0}   # the single edge {a, b}


def test_isolated_bulk_defect_fails(path_abc):
    out = lazy_decode(path_abc, Syndrome.of([B]))
    assert not out.success
    assert out.failure is LazyFailure.RESIDUAL_SYNDROME


def test_two_boundary_defects(path_abc):
    out = lazy_decode(path_abc, Syndrome.of([A, C]))
    assert out.success
    assert out.correction == {2, 3}   # both half-edges
    assert out.ambiguous_count == 0


def test_four_path_scan_order():
    g = make_graph([(A, B), (B, C), (C, D)], [A, D])
    out = lazy_decode(g, Syndrome.of([A, B, C, D]))
    assert out.success
    assert out.correction == {0, 2}   # {a,b} and {c,d}; size 2 is minimal


def test_two_ambiguous_half_edges_fail():
    v = [(i, 0) for i in range(10)]
    g = make_graph(
        [(v[1], v[2]), (v[2], v[3]), (v[3], v[4]),
         (v[6], v[7]), (v[7], v[8]), (v[8], v[9])],
        [v[4], v[9]],
    )
    s = Syndrome.of([v[2], v[3], v[4], v[7], v[8], v[9]])
    out = lazy_decode(g, s)
    assert out.failure is LazyFailure.TOO_MANY_AMBIGUOUS
    assert out.ambiguous_count == 2


def test_success_invariants_on_real_graph():
    lay = build_rotated_surface_code(3)
    sch = build_schedule(lay)
    g = build_decoding_graph(lay, sch, 3, NoiseParams(1e-3), CheckBasis.X)
    rng = random.Random(4)
    checked = 0
    for _ in range(4000):
        defects = frozenset(
            (q, t) for q in range(g.n_checks) for t in range(1, g.rounds)
            if rng.random() < 0.25
        )
        out = lazy_decode(g, Syndrome(defects))
        if not out.success:
            continue
        checked += 1
        assert out.ambiguous_count <= 1
        assert g.correction_syndrome(out.correction) == defects
    assert checked > 500


def _min_correction_sizes(graph):
    """Exact minimum correction size for every reachable syndrome, by BFS
    over the syndrome space (one XOR step per edge)."""
    verts = sorted({v for e in (*graph.edges, *graph.half_edges) for v in (e.u, e.v) if v})
    bit = {v: 1 << i for i, v in enumerate(verts)}
    masks = []
    for eid in range(graph.n_edges):
        e = graph.edge(eid)
        masks.append(bit[e.u] ^ (bit[e.v] if e.v is not None else 0))
    dist = {0: 0}
    queue = deque([0])
    while queue:
        s = queue.popleft()
        for m in masks:
            t = s ^ m
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    return dist, bit


def test_minimality_on_small_graph():
    lay = build_rotated_surface_code(3)
    sch = build_schedule(lay)
    g = build_decoding_graph(lay, sch, 3, NoiseParams(1e-3), CheckBasis.X)
    assert g.n_edges <= 24
    dist, bit = _min_correction_sizes(g)
    rng = random.Random(11)
    successes = 0
    for _ in range(10000):
        defects = frozenset(
            (q, t) for q in range(g.n_checks) for t in range(1, g.rounds)
            if rng.random() < 0.3
        )
        out = lazy_decode(g, Syndrome(defects))
        if not out.success:
            continue
        successes += 1
        key = 0
        for v in defects:
            key ^= bit[v]
        assert len(out.correction) == dist[key]
        # size bounds from the optimality proof
        cls = classify_defects(g, Syndrome(defects))
        iso = len(cls.boundary_isolated)
        lower = (len(defects) - iso) / 2 + iso
        assert lower <= len(out.correction) <= lower + 0.5
    assert successes > 1000


def test_stream_all_zero_rounds():
    g = make_graph([((0, 0), (0, 1)), ((0, 1), (0, 2))], [], rounds=3)
    emissions = list(lazy_decode_stream(g, [[], [], []]))
    assert all(not e.failed and not e.matched_edges for e in emissions)
    assert emissions[-1].outcome.success
    assert emissions[-1].outcome.correction == frozenset()


def test_stream_vertical_pair_matched_promptly():
    g = make_graph(
        [((0, t), (0, t + 1)) for t in range(3)], [], rounds=4
    )
    dec = LazyStreamDecoder(g)
    ems = [dec.feed([]), dec.feed([0]), dec.feed([0]), dec.feed([])]
    out = dec.finish().outcome
    assert out.success and out.correction == {1}
    # the pair in rounds (1, 2) is committed once round 2 is in the buffer
    assert ems[2].matched_edges == (1,)


def test_stream_failure_passes_raw_syndrome_through():
    g = make_graph([((0, 0), (1, 0))], [], rounds=3)
    dec = LazyStreamDecoder(g)
    em0 = dec.feed([0])          # lone defect, no half-edge: fails at finalize
    em1 = dec.feed([1])
    assert em1.failed
    em2 = dec.feed([0, 1])
    assert em2.failed
    assert em2.raw_passthrough == ((0, 2), (1, 2))
    assert not dec.finish().outcome.success


def test_stream_rejects_edge_across_two_rounds():
    """One round behind is final only for edges spanning at most one round:
    here the batch matches edge 0, while a stream would settle round 0 before
    its partner arrives."""
    g = make_graph([((0, 0), (0, 2))], [], rounds=3)
    assert lazy_decode(g, Syndrome.of([(0, 0), (0, 2)])).correction == {0}
    with pytest.raises(ValueError):
        LazyStreamDecoder(g)


def test_make_graph_rounds_cover_every_vertex():
    """Without ``rounds``, an edge into round 1 gives the graph two rounds,
    and every decoder decodes it alike; a ``rounds`` or ``n_checks`` too
    small for an edge is rejected when the graph is built."""
    g = make_graph([((0, 0), (0, 1))])
    assert (g.n_checks, g.rounds) == (1, 2)
    s = Syndrome.of([(0, 0), (0, 1)])
    assert lazy_decode(g, s).correction == uf_decode(g, s) == mwpm_decode(g, s) == {0}
    block = lazy_block(g, np.array([0, 1]), 1)
    assert block.failure.tolist() == [0] and block.edge.tolist() == [0]
    with pytest.raises(ValueError, match="outside 1 checks x 1 rounds"):
        make_graph([((0, 0), (0, 1))], rounds=1)
    with pytest.raises(ValueError, match="outside 1 checks x 1 rounds"):
        make_graph([((0, 0), (1, 0))], n_checks=1)


# Two checks over two rounds, with a half-edge at (0, 0) and at (1, 1).  With
# ids ``round * n_checks + check``, check 2 of round 0 would alias (0, 1).
_GRID = make_graph([((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 1))],
                   [(0, 0), (1, 1)])


def _feed(graph, vertex):
    q, t = vertex
    dec = LazyStreamDecoder(graph)
    for _ in range(t):
        dec.feed([])
    dec.feed([q])


_ONE_DEFECT = {
    "lazy": lambda g, v: lazy_decode(g, Syndrome.of([v])),
    "stream": _feed,
    "uf": lambda g, v: uf_decode(g, Syndrome.of([v])),
    "mwpm": lambda g, v: mwpm_decode(g, Syndrome.of([v])),
    "classify": lambda g, v: classify_defects(g, Syndrome.of([v])),
}


@pytest.mark.parametrize("vertex", [(2, 0), (0, 2), (-1, 0)],
                         ids=["check_past_end", "round_past_end", "negative_check"])
@pytest.mark.parametrize("decoder", sorted(_ONE_DEFECT))
def test_syndrome_vertex_outside_graph_raises(decoder, vertex):
    assert (_GRID.n_checks, _GRID.rounds) == (2, 2)
    with pytest.raises(ValueError, match=r"syndrome vertex .* outside the graph"):
        _ONE_DEFECT[decoder](_GRID, vertex)


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("basis", [CheckBasis.X, CheckBasis.Z])
@pytest.mark.parametrize("d", [3, 5, 9])
def test_circuit_edges_span_at_most_one_round(d, basis, closed):
    lay = build_rotated_surface_code(d)
    sch = build_schedule(lay)
    if closed:
        g = build_decoding_graph(
            lay, sch, d + 1, NoiseParams(1e-3), basis, drop_initial=False, noisy_rounds=d
        )
    else:
        g = build_decoding_graph(lay, sch, d, NoiseParams(1e-3), basis)
    assert max(abs(e.u[1] - e.v[1]) for e in g.edges) == 1
    LazyStreamDecoder(g)


def _stream_outcome(graph, defects):
    by_round = [[] for _ in range(graph.rounds)]
    for q, t in defects:
        by_round[t].append(q)
    return list(lazy_decode_stream(graph, by_round))[-1].outcome


def _circuit_syndromes(d, p, basis, n, seed):
    lay = build_rotated_surface_code(d)
    g = build_decoding_graph(lay, build_schedule(lay), d, NoiseParams(p), basis)
    sampler = FaultSampler(g.census, g.noisy_rounds, p)
    return g, [g.syndrome_of_faults(sampler.sample(trial_rng(seed, i))).defects for i in range(n)]


def _random_syndromes(n, seed):
    lay = build_rotated_surface_code(3)
    g = build_decoding_graph(lay, build_schedule(lay), 4, NoiseParams(1e-3), CheckBasis.X)
    rng = random.Random(seed)
    return g, [
        frozenset(
            (q, t) for q in range(g.n_checks) for t in range(g.rounds) if rng.random() < 0.12
        )
        for _ in range(n)
    ]


def _perfect_syndromes(d, p, n, seed):
    g = build_perfect_graph(
        build_rotated_surface_code(d), NoiseParams(p, NoiseMode.PERFECT_MEASUREMENT)
    )
    return g, [edge_errors(g, hits)[0].defects for hits in perfect_trials(g, seed, n)]


def test_stream_equals_batch_on_real_graph():
    """The whole outcome agrees, failures included: correction, failure kind
    and ambiguous count."""
    cases = [
        _random_syndromes(2000, 17),
        _circuit_syndromes(5, 3e-3, CheckBasis.X, 2000, 5),
        _circuit_syndromes(5, 3e-3, CheckBasis.Z, 2000, 5),
        _circuit_syndromes(9, 1e-3, CheckBasis.X, 1000, 5),
        _circuit_syndromes(9, 1e-3, CheckBasis.Z, 1000, 5),
        _perfect_syndromes(9, 3e-2, 2000, 5),
    ]
    for g, syndromes in cases:
        failures = 0
        for defects in syndromes:
            batch = lazy_decode(g, Syndrome(defects))
            assert _stream_outcome(g, defects) == batch
            failures += not batch.success
        assert failures >= 20


def test_determinism(path_abc):
    s = Syndrome.of([A, B, C])
    assert lazy_decode(path_abc, s) == lazy_decode(path_abc, s)


def test_count_message_bits(path_abc):
    ok = lazy_decode(path_abc, Syndrome.of([]))
    assert count_message_bits(ok, 15) == 0
    bad = lazy_decode(path_abc, Syndrome.of([B]))
    assert count_message_bits(bad, 15) == 112 * 15 == 1680
    assert count_message_bits(bad, 3) == 4 * 3
