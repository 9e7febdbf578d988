"""The sparse MWPM decoder against a dense reference.

The reference is the textbook construction, kept here only as a slow oracle:
a full Dijkstra from every defect, the complete defect graph, one boundary
node per defect with a boundary clique, and networkx blossom on all of it.
"""

import heapq
import itertools
import math
import random
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from lazyqec import decoders
from lazyqec.code_model import (
    CheckBasis,
    build_rotated_surface_code,
    build_schedule,
    build_toric_code,
)
from lazyqec.decoders import DecoderKind, decode, mwpm_decode, mwpm_matching_weight
from lazyqec.graph import (
    DecodingGraph,
    Syndrome,
    build_decoding_graph,
    build_perfect_graph,
    make_graph,
)
from lazyqec.noise import EdgeSampler, FaultSampler, NoiseMode, NoiseParams, make_rng


def _neighbors(graph):
    """Adjacency of the graph's edges by ``(check, round)`` vertex, parallel
    edges kept."""
    out = {}
    for eid, e in enumerate(graph.edges):
        out.setdefault(e.u, []).append((e.v, eid))
        out.setdefault(e.v, []).append((e.u, eid))
    return out


def _dijkstra(graph, neighbors, source):
    dist = {source: 0.0}
    pred = {}
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, math.inf):
            continue
        for u, eid in neighbors.get(v, ()):
            nd = d + graph.edges[eid].weight
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                pred[u] = (v, eid)
                heapq.heappush(heap, (nd, u))
    return dist, pred


def _walk(pred, source, target):
    path = []
    v = target
    while v != source:
        v, eid = pred[v]
        path.append(eid)
    return path


def dense_mwpm(graph, syndrome):
    """(correction, matching weight) by the dense construction."""
    defects = sorted(syndrome.defects)
    n = len(defects)
    if n == 0:
        return frozenset(), 0.0
    has_boundary = bool(graph.half_edge_id)
    if n % 2 == 1 and not has_boundary:
        raise ValueError("odd defect count in a graph without boundary")

    dists, preds, bpartner = [], [], []
    neighbors = _neighbors(graph)
    for v in defects:
        dist, pred = _dijkstra(graph, neighbors, v)
        dists.append(dist)
        preds.append(pred)
        best = None
        for hv, heid in graph.half_edge_id.items():
            dv = dist.get(hv)
            if dv is None:
                continue
            total = dv + graph.half_edges[heid - len(graph.edges)].weight
            if best is None or total < best[0]:
                best = (total, hv, heid)
        bpartner.append(best)

    g = nx.Graph()
    big = sum(e.weight for e in graph.edges) + sum(e.weight for e in graph.half_edges) + 1.0
    for i, j in itertools.combinations(range(n), 2):
        dij = dists[i].get(defects[j])
        if dij is not None:
            g.add_edge(("d", i), ("d", j), weight=big - dij)
    if has_boundary:
        for i in range(n):
            if bpartner[i] is not None:
                g.add_edge(("d", i), ("b", i), weight=big - bpartner[i][0])
        for i, j in itertools.combinations(range(n), 2):
            g.add_edge(("b", i), ("b", j), weight=big)

    matching = nx.max_weight_matching(g, maxcardinality=True)
    paired = dict(matching) | {b: a for a, b in matching}
    if any(("d", i) not in paired for i in range(n)):
        raise ValueError("defects could not be perfectly matched")

    correction = set()
    total = 0.0
    for i in range(n):
        mate = paired[("d", i)]
        if mate[0] == "d":
            j = mate[1]
            if j < i:
                continue
            total += dists[i][defects[j]]
            correction.symmetric_difference_update(_walk(preds[i], defects[i], defects[j]))
        else:
            total += bpartner[i][0]
            _, hv, heid = bpartner[i]
            correction.symmetric_difference_update(_walk(preds[i], defects[i], hv))
            correction.symmetric_difference_update({heid})
    return frozenset(correction), total


def _assert_matches_reference(graph, syndrome):
    try:
        _, want = dense_mwpm(graph, syndrome)
    except ValueError:
        with pytest.raises(ValueError):
            mwpm_decode(graph, syndrome)
        return
    assert mwpm_matching_weight(graph, syndrome) == pytest.approx(want, rel=1e-9, abs=1e-12)
    correction = mwpm_decode(graph, syndrome)
    assert graph.correction_syndrome(correction) == syndrome.defects


def _syndromes(graph, rng, count, even=False):
    """Mostly sparse random defect sets, every fifth one dense."""
    t0 = 1 if graph.drop_initial and graph.rounds > 1 else 0
    verts = [(q, t) for t in range(t0, graph.rounds) for q in range(graph.n_checks)]
    for k in range(count):
        if k % 5 == 4:
            n = min(rng.randint(20, 36), len(verts) // 2)
        else:
            n = min(rng.randint(1, 12), len(verts))
        chosen = rng.sample(verts, n)
        if even and n % 2:
            chosen.pop()
        yield Syndrome(frozenset(chosen))


def _toric_d20():
    return build_perfect_graph(
        build_toric_code(20), NoiseParams(1e-3, NoiseMode.PERFECT_MEASUREMENT)
    )


def _closed_d9():
    lay = build_rotated_surface_code(9)
    return build_decoding_graph(
        lay, build_schedule(lay), 10, NoiseParams(1e-3), CheckBasis.X,
        drop_initial=False, noisy_rounds=9,
    )


def _open_d5():
    lay = build_rotated_surface_code(5)
    return build_decoding_graph(lay, build_schedule(lay), 5, NoiseParams(1e-3), CheckBasis.X)


def _planar_d5():
    return build_perfect_graph(
        build_rotated_surface_code(5), NoiseParams(0.05, NoiseMode.PERFECT_MEASUREMENT)
    )


@pytest.mark.parametrize(
    "build, seed",
    [(_toric_d20, 1), (_closed_d9, 2), (_open_d5, 3), (_planar_d5, 4)],
    ids=["toric_d20", "closed_d9", "open_d5", "planar_d5"],
)
def test_sparse_mwpm_equals_dense_reference(build, seed):
    graph = build()
    rng = random.Random(seed)
    for syndrome in _syndromes(graph, rng, 200, even=not graph.half_edge_id):
        _assert_matches_reference(graph, syndrome)


def _weighted_graph(edge_ps, half_ps):
    """A one-round graph whose edges each get their own probability, given
    to the constructor as the edge store's arrays: space edges, then
    boundary half-edges, every vertex id its check."""
    ends = np.array([sorted((u[0], v[0])) for (u, v), _ in edge_ps]
                    + [(v[0], -1) for v, _ in half_ps]).reshape(-1, 2)
    kind = np.array([0] * len(edge_ps) + [3] * len(half_ps))
    return DecodingGraph(
        None, CheckBasis.X, 1, ends, np.array([p for _, p in edge_ps + half_ps]), kind,
        np.zeros(len(ends), dtype=np.int64),
        drop_initial=False,
        centers=[(q, 0) for q in range(ends.max() + 1)],
    )


def _random_weighted_graphs(rng, count):
    """Random graphs with parallel and zero-weight (p=0.5) edges, each with
    30 random defect sets."""
    probabilities = (0.5, 0.5, 0.3, 0.1, 0.01, 0.001)
    for _ in range(count):
        n_v = rng.randint(4, 14)
        edge_ps = []
        for _ in range(rng.randint(n_v, 3 * n_v)):
            u, v = rng.sample(range(n_v), 2)
            edge_ps.append((((u, 0), (v, 0)), rng.choice(probabilities)))
        # parallel copies with a different weight, in either orientation
        for (u, v), _ in rng.sample(edge_ps, len(edge_ps) // 3):
            edge_ps.append(((v, u), rng.choice(probabilities)))
        half_ps = [((q, 0), rng.choice(probabilities))
                   for q in range(n_v) if rng.random() < 0.3]
        graph = _weighted_graph(edge_ps, half_ps)
        verts = sorted({v for uv, _ in edge_ps for v in uv})
        yield graph, [Syndrome(frozenset(rng.sample(verts, rng.randint(1, len(verts)))))
                      for _ in range(30)]


def test_parallel_and_zero_weight_edges_match_reference():
    for graph, syndromes in _random_weighted_graphs(random.Random(5), 30):
        for syndrome in syndromes:
            _assert_matches_reference(graph, syndrome)


def test_all_zero_weight_graph():
    graph = make_graph(
        [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (3, 0)), ((0, 0), (1, 0))],
        [(3, 0)], p=0.5,
    )
    for chosen in ([(0, 0)], [(0, 0), (2, 0)], [(0, 0), (1, 0), (2, 0)]):
        s = Syndrome(frozenset(chosen))
        assert mwpm_matching_weight(graph, s) == 0.0
        assert graph.correction_syndrome(mwpm_decode(graph, s)) == s.defects


def test_defect_without_incident_edge_raises():
    graph = _open_d5()
    lonely = (0, 0)    # round 0 of a drop_initial window has no detectors
    assert lonely not in _neighbors(graph) and lonely not in graph.half_edge_id
    for defects in ({lonely}, {lonely, (0, 1)}, {lonely, (0, 1), (1, 2)}):
        with pytest.raises(ValueError, match="defects could not be perfectly matched"):
            mwpm_decode(graph, Syndrome(frozenset(defects)))


def test_odd_component_without_boundary_raises():
    # a triangle with no half-edge, next to a path that reaches the boundary
    graph = make_graph(
        [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((0, 0), (2, 0)), ((3, 0), (4, 0))],
        [(4, 0)],
    )
    for defects in ({(0, 0)}, {(0, 0), (3, 0)}, {(0, 0), (1, 0), (2, 0)},
                    {(0, 0), (1, 0), (2, 0), (3, 0)}):
        with pytest.raises(ValueError, match="defects could not be perfectly matched"):
            mwpm_decode(graph, Syndrome(frozenset(defects)))
    # an even count split into two odd components, on a graph without boundary
    split = make_graph([((0, 0), (1, 0)), ((2, 0), (3, 0))])
    with pytest.raises(ValueError, match="defects could not be perfectly matched"):
        mwpm_decode(split, Syndrome(frozenset({(0, 0), (2, 0)})))
    # the even part of the first graph still decodes
    s = Syndrome(frozenset({(0, 0), (2, 0), (3, 0)}))
    assert graph.correction_syndrome(mwpm_decode(graph, s)) == s.defects


# --- the subset DP against networkx blossom, component by component ---------

# Large enough for the DP to run on components far above the production gate
# (a complete component of up to 19 defects) and small enough to stay fast.
_FORCED_DP_STATES = 1 << 18


def _weight(mate, pairs, b):
    d = {(i, j): w for i, j, w in pairs}
    return sum(b[i] if j < 0 else d[j, i] for i, j in mate.items() if j < i)


def _assert_components_agree(graph, syndrome, sides, monkeypatch):
    """Every component of three or more defects gets a matching of equal total
    weight from the subset DP and from blossom, or neither matches it.  Counts
    the compared components by the side of the gate they fall on."""
    adj, bdist, _ = graph.matching_index
    ids = sorted(graph.vertex_ids(syndrome.defects))
    b = [bdist[v] for v in ids]
    pairs, _ = decoders._near_pairs(adj, ids, b, {})
    kept = {(i, j) for i, j, _ in pairs}
    for comp, comp_pairs in decoders._components(len(ids), pairs):
        if len(comp) < 3:
            continue
        mate = decoders._blossom(len(ids), comp, comp_pairs, b, bool(graph.half_edge_id))
        try:
            with monkeypatch.context() as m:
                m.setattr(decoders, "_DP_STATES", _FORCED_DP_STATES)
                dp = decoders._subset_dp(comp, comp_pairs, b)
        except ValueError as err:
            assert "could not be perfectly matched" in str(err) and len(mate) < len(comp)
            sides["unmatchable"] += 1
            continue
        if dp is None:
            continue
        assert sorted(mate) == sorted(dp) == sorted(comp)
        for i, j in dp.items():
            assert (b[i] < math.inf) if j < 0 else (dp[j] == i and (min(i, j), max(i, j)) in kept)
        assert _weight(dp, comp_pairs, b) == pytest.approx(_weight(mate, comp_pairs, b),
                                                           rel=1e-9, abs=1e-12)
        sides["dp" if decoders._subset_dp(comp, comp_pairs, b) else "blossom"] += 1


def _circuit_syndromes(d, p, trials, seed):
    """A closed window and its sampled syndromes with three or more defects."""
    lay = build_rotated_surface_code(d)
    graph = build_decoding_graph(
        lay, build_schedule(lay), d + 1, NoiseParams(p), CheckBasis.X,
        drop_initial=False, noisy_rounds=d,
    )
    sampler = FaultSampler(graph.census, graph.noisy_rounds, p)
    keys, _ = graph.block_syndromes(sampler.sample_block(make_rng(seed, 0), trials))
    return graph, [s for s in graph.key_syndromes(keys, range(trials)) if len(s) > 2]


def _toric_syndromes(d, seed):
    """Complete components: even defect sets, and odd ones that cannot match."""
    graph = build_perfect_graph(
        build_toric_code(d), NoiseParams(1e-3, NoiseMode.PERFECT_MEASUREMENT)
    )
    rng = random.Random(seed)
    verts = list(graph.vertices())
    syndromes = []
    for k in range(120):
        n = 2 * rng.randint(2, 9) - (k % 4 == 3)
        syndromes.append(Syndrome(frozenset(rng.sample(verts, n))))
    return graph, syndromes


@pytest.mark.parametrize(
    "case, sides_seen",
    [(lambda: _circuit_syndromes(5, 3e-3, 600, 11), {"dp"}),
     (lambda: _circuit_syndromes(9, 3e-3, 40, 12), {"dp", "blossom"}),
     (lambda: _toric_syndromes(6, 13), {"dp", "blossom", "unmatchable"}),
     (lambda: _toric_syndromes(20, 14), {"dp", "blossom", "unmatchable"})],
    ids=["closed_d5", "closed_d9", "toric_d6", "toric_d20"],
)
def test_subset_dp_equals_blossom_per_component(case, sides_seen, monkeypatch):
    graph, syndromes = case()
    sides = Counter()
    for syndrome in syndromes:
        _assert_components_agree(graph, syndrome, sides, monkeypatch)
        _assert_matches_reference(graph, syndrome)
    assert set(sides) == sides_seen


def test_subset_dp_equals_blossom_on_ties(monkeypatch):
    sides = Counter()
    for graph, syndromes in _random_weighted_graphs(random.Random(6), 30):
        for syndrome in syndromes:
            _assert_components_agree(graph, syndrome, sides, monkeypatch)
            _assert_matches_reference(graph, syndrome)
    assert set(sides) == {"dp", "blossom", "unmatchable"}


# --- searches resumed across windows ------------------------------------------


def _perfect_syndromes(layout, p, trials, seed):
    """A perfect-measurement graph and its sampled syndromes with defects."""
    graph = build_perfect_graph(layout, NoiseParams(p, NoiseMode.PERFECT_MEASUREMENT))
    trial, edge = EdgeSampler(graph.probability).sample_block(make_rng(seed, 0), trials)
    keys, _ = graph.edge_syndromes(trial, edge, trials)
    return graph, [s for s in graph.key_syndromes(keys, range(trials)) if s.defects]


def _matchings(graph, syndromes, order, searches):
    """Correction and matching weight per syndrome, decoded in ``order`` on
    one store of searches."""
    out = [None] * len(syndromes)
    for k in order:
        out[k] = (mwpm_decode(graph, syndromes[k], searches=searches),
                  mwpm_matching_weight(graph, syndromes[k], searches=searches))
    return out


@pytest.mark.parametrize(
    "case",
    [lambda: _circuit_syndromes(5, 3e-3, 600, 21),
     lambda: _circuit_syndromes(7, 2e-3, 400, 22),
     lambda: _circuit_syndromes(9, 1e-3, 300, 23),
     lambda: _perfect_syndromes(build_toric_code(8), 3e-2, 300, 24),
     lambda: _perfect_syndromes(build_toric_code(20), 1e-3, 1500, 25),
     lambda: _perfect_syndromes(build_rotated_surface_code(9), 5e-2, 300, 26)],
    ids=["closed_d5", "closed_d7", "closed_d9", "toric_d8", "toric_d20", "rotated_d9"],
)
def test_resumed_searches_match_fresh_ones(case):
    graph, syndromes = case()
    fresh = [(mwpm_decode(graph, s), mwpm_matching_weight(graph, s)) for s in syndromes]
    store: dict = {}
    shared = _matchings(graph, syndromes, range(len(syndromes)), store)
    order = list(range(len(syndromes)))
    random.Random(27).shuffle(order)
    shuffled = _matchings(graph, syndromes, order, {})
    assert shared == fresh
    assert shuffled == fresh
    # far more searches ran than the store holds: most of them were resumed
    searches_run = 2 * sum(len(s.defects) - 1 for s in syndromes)
    assert 0 < len(store) < searches_run / 2


def test_resumed_search_with_ties_at_its_pause_point():
    # One round, every weight W but the zero-weight (p=0.5) edge 5-1; half-
    # edges at 6, 8 and 11.  From vertex 0, vertices 2, 3, 4, 5, 9 lie at W,
    # and 1 too, through the zero-weight edge once 5 is popped.
    w = 0.1
    ends = [(0, 2), (0, 3), (0, 4), (0, 5), (2, 6), (3, 6), (4, 6), (1, 6), (0, 9),
            (9, 10), (10, 11), (11, 13), (6, 7), (7, 8)]
    graph = _weighted_graph(
        [(((a, 0), (b, 0)), w) for a, b in ends] + [(((5, 0), (1, 0)), 0.5)],
        [((6, 0), w), ((8, 0), w), ((11, 0), w)],
    )
    adj, bdist, _ = graph.matching_index
    big_w = bdist[6]
    store: dict = {}

    def check(window):
        ids = sorted(window)
        b = [bdist[v] for v in ids]
        pairs, preds = decoders._near_pairs(adj, ids, b, store)
        want, want_preds = decoders._near_pairs(adj, ids, b, {})
        assert pairs == want
        for i, j, _ in pairs:   # the same shortest path behind every kept pair
            v, path, want_path = ids[j], [], []
            for pred, out in ((preds[i], path), (want_preds[i], want_path)):
                u = v
                while u != ids[i]:
                    out.append(pred[u])
                    u = sum(graph.ends[pred[u]].tolist()) - u
            assert path == want_path
        syndrome = Syndrome(frozenset((v, 0) for v in window))
        assert mwpm_decode(graph, syndrome, searches=store) == mwpm_decode(graph, syndrome)
        assert (mwpm_matching_weight(graph, syndrome, searches=store)
                == mwpm_matching_weight(graph, syndrome))
        return pairs

    # pauses on popping 2, with 3, 4, 5 and 9 tied with it on the heap
    check([0, 2])
    heap = store[0][2]
    assert heap[0] == (big_w, 2) and sum(d == big_w for d, _ in heap) == 5
    # 3 is final at the pause; 1 is popped later at the same distance
    assert [(i, j) for i, j, _ in check([0, 1, 3])] == [(0, 1), (0, 2), (1, 2)]
    # 8 lies at b_0 + b_8: the stop at that bound keeps the entry it popped
    assert check([0, 8]) == []
    assert store[0][2] == [(4 * big_w, 13)]
    # both final at the pause, the nearer one with the larger index
    assert [(i, j) for i, j, _ in check([0, 7, 9])] == [(0, 2), (0, 1), (1, 2)]
    assert check([0, 13]) == [(0, 1, 4 * big_w)]
    check([1, 2, 3, 5])


def test_decode_keeps_no_search_state_on_the_graph():
    graph, syndromes = _circuit_syndromes(5, 3e-3, 400, 28)
    for kind in (DecoderKind.MWPM, DecoderKind.LAZY_MWPM):
        decode(graph, syndromes[0], kind)     # builds the views used on first decode
    before = dict(vars(graph))
    index = [list(part) for part in graph.matching_index]
    for syndrome in syndromes:
        for kind in (DecoderKind.MWPM, DecoderKind.LAZY_MWPM):
            decode(graph, syndrome, kind)
    assert vars(graph).keys() == before.keys()
    assert all(vars(graph)[k] is v for k, v in before.items())
    assert [list(part) for part in graph.matching_index] == index
