import gc
import math
from functools import partial

import numpy as np
import pytest

from lazyqec.code_model import (
    CheckBasis,
    CircuitSchedule,
    Cnot,
    MeasureAncilla,
    PrepAncilla,
    Wait,
    build_rotated_surface_code,
    build_schedule,
    build_toric_code,
)
from lazyqec.graph import (
    _ABSENT,
    _KINDS,
    _NO_OBS,
    ScheduleError,
    Syndrome,
    build_decoding_graph,
    build_perfect_graph,
    classify_defects,
    difference_syndrome,
    is_logical_failure,
    make_graph,
    simulate_window,
)
from lazyqec.lazy import lazy_block
from lazyqec.noise import (
    FaultEvent,
    FaultSampler,
    LocationKind,
    NoiseMode,
    NoiseParams,
    make_rng,
    round_census,
    sample_faults,
    trial_rng,
)


@pytest.fixture(scope="module")
def d3():
    lay = build_rotated_surface_code(3)
    sch = build_schedule(lay)
    graph = build_decoding_graph(lay, sch, 4, NoiseParams(1e-3), CheckBasis.X)
    return lay, sch, graph


def test_build_restores_the_collector_state():
    """The ``Edge`` view and the scalar lists pause the cyclic garbage
    collector while they are built; they and the builder must leave it as
    they found it, also when the build raises."""
    lay = build_rotated_surface_code(3)
    sch = build_schedule(lay)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            graph = build_decoding_graph(lay, sch, 3, NoiseParams(1e-3))
            assert graph.edges and graph.scalar_view.adj
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError):
                build_decoding_graph(lay, sch, 0, NoiseParams(1e-3))
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_no_self_loops_and_probability_range(d3):
    _, _, g = d3
    for e in (*g.edges, *g.half_edges):
        assert e.u != e.v
        assert 0.0 < e.probability <= 0.5
        assert e.weight == pytest.approx(math.log((1 - e.probability) / e.probability))


def test_measurement_flip_is_vertical_edge(d3):
    lay, sch, g = d3
    census = round_census(sch)
    meas = [loc for loc in census if loc.kind is LocationKind.MEAS]
    for loc in meas:
        plq = lay.plaquettes[loc.plaquette]
        if plq.basis is not CheckBasis.X:
            continue
        ev = FaultEvent(2, loc, 0)
        verts = g.syndrome_of_faults([ev]).defects
        assert verts == {(plq.basis_index, 2), (plq.basis_index, 3)}


def test_data_fault_patterns_have_at_most_two_detectors(d3):
    """Every census fault has a row of at most two detectors in the fault
    table, each within the two rounds after the fault's own."""
    _, sch, g = d3
    table = g._fault_table
    rows = [loc.index * table.width + c for loc in round_census(sch) for c in range(loc.n_choices)]
    assert table.offset.shape == (table.obs.size, 2)
    assert (table.obs[rows] != _NO_OBS).all()
    present = table.offset[rows] != _ABSENT
    assert (table.offset[rows][present] < 3 * g.n_checks).all()
    assert present.all(axis=1).any()


def _z_ancillas(layout, n):
    """(ancilla, plaquette index) of the first ``n`` Z checks."""
    return [(layout.ancilla_id(p.index), p.index) for p in layout.checks(CheckBasis.Z)[:n]]


def test_schedule_error_on_three_detectors():
    """A data qubit copied onto three Z ancillas: its X fault flips three
    Z detectors at once, and the builder names that location."""
    lay = build_rotated_surface_code(3)
    anc = _z_ancillas(lay, 3)
    steps = (
        tuple(PrepAncilla(a, CheckBasis.Z) for a, _ in anc) + (Wait(0),),
        *((Cnot(0, a),) for a, _ in anc),
        (),
        tuple(MeasureAncilla(a, CheckBasis.Z, plq) for a, plq in anc),
    )
    sch = CircuitSchedule(lay, steps)
    build_decoding_graph(lay, sch, 3, NoiseParams(1e-3), CheckBasis.X)   # no X check is read
    with pytest.raises(ScheduleError, match=r"^fault wait@step0 qubits \(0,\) triggers 3 detectors"):
        build_decoding_graph(lay, sch, 3, NoiseParams(1e-3), CheckBasis.Z)


def test_schedule_error_on_late_detector():
    """A shift register: an X fault on data qubit 0 moves to 1, 2 and then
    the ancilla one hop per round, so the detectors it flips, two rounds
    after the fault and the round after that, do not settle within two."""
    lay = build_rotated_surface_code(3)
    [(anc, plq)] = _z_ancillas(lay, 1)
    prep = [PrepAncilla(q, CheckBasis.Z) for q in (0, 1, 2, anc)]
    steps = (
        (prep[0], prep[3]),
        (Cnot(2, anc),),
        (prep[2],),
        (Cnot(1, 2),),
        (prep[1],),
        (Cnot(0, 1), MeasureAncilla(anc, CheckBasis.Z, plq)),
    )
    sch = CircuitSchedule(lay, steps)
    with pytest.raises(ScheduleError, match=r"^fault prep@step0 qubits \(0,\) did not settle"):
        build_decoding_graph(lay, sch, 3, NoiseParams(1e-3), CheckBasis.Z)


def test_single_edge_fault_incidence(d3):
    _, _, g = d3
    e = g.edges[0]
    assert g.correction_syndrome([0]) == {e.u, e.v}


def test_xor_cancellation(d3):
    _, _, g = d3
    # two edges sharing a vertex: only the outer endpoints remain
    view = g.scalar_view
    for eid, e in enumerate(g.edges):
        for _, other in view.adj[view.edge_ends[eid][0]]:
            if other != eid:
                ends = g.correction_syndrome([eid, other])
                assert e.u not in ends
                break
        else:
            continue
        break


def test_difference_syndrome_basics():
    raw = np.array([[1, 0], [1, 0], [1, 0]], dtype=np.uint8)
    assert difference_syndrome(raw).defects == frozenset()
    raw = np.array([[0], [1], [1], [0]], dtype=np.uint8)
    assert difference_syndrome(raw).defects == {(0, 1), (0, 3)}


def test_difference_syndrome_telescoping():
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 2, size=(7, 9)).astype(np.uint8)
    sbar = difference_syndrome(raw, initial_round_zero=False)
    for q in range(9):
        count = sum(1 for (qq, t) in sbar.defects if qq == q)
        assert count % 2 == int(raw[-1, q])   # telescoping XOR with s(-1)=0


def test_round_trip_consistency_small():
    lay = build_rotated_surface_code(5)
    sch = build_schedule(lay)
    noise = NoiseParams(2e-3)
    g = build_decoding_graph(lay, sch, 5, noise, CheckBasis.X)
    for trial in range(500):
        faults = sample_faults(sch, 5, noise, seed=0, rng=trial_rng(99, trial))
        raw, _, _ = simulate_window(lay, sch, 5, faults)
        direct = difference_syndrome(raw[CheckBasis.X])
        assert g.syndrome_of_faults(faults) == direct


def test_bulk_slice_translation_invariance(d3):
    _, _, g = d3

    def slice_edges(t):
        return sorted(
            (e.u[0], e.v[0], e.kind)
            for e in g.edges
            if min(e.u[1], e.v[1]) == t and max(e.u[1], e.v[1]) <= t + 1
        )

    assert slice_edges(1) == slice_edges(2)


def test_union_bound_sanity():
    # p_e cannot exceed the sum of its contributing fault probabilities; with
    # a single aggregated probability per edge, p_e <= 1/2 suffices as the
    # model-level check plus monotonicity in p.
    lay = build_rotated_surface_code(3)
    sch = build_schedule(lay)
    g1 = build_decoding_graph(lay, sch, 3, NoiseParams(1e-3), CheckBasis.X)
    g2 = build_decoding_graph(lay, sch, 3, NoiseParams(2e-3), CheckBasis.X)
    for e1, e2 in zip(g1.edges, g2.edges):
        assert (e1.u, e1.v) == (e2.u, e2.v)
        assert e1.probability < e2.probability <= 2.2 * e1.probability


def test_classify_defects(d3):
    _, _, g = d3
    empty = classify_defects(g, Syndrome(frozenset()))
    assert empty.bulk == empty.boundary_adjacent == empty.boundary_isolated == frozenset()
    v = next(iter(g.half_edge_id))
    alone = classify_defects(g, Syndrome(frozenset({v})))
    assert alone.boundary_isolated == {v}


def test_classify_defects_toric_no_boundary():
    lay = build_toric_code(4)
    g = build_perfect_graph(lay, NoiseParams(0.01, NoiseMode.PERFECT_MEASUREMENT))
    assert not g.half_edges
    got = classify_defects(g, Syndrome(frozenset({(0, 0), (1, 0)})))
    assert got.boundary_adjacent == frozenset()


def test_is_logical_failure():
    lay = build_rotated_surface_code(3)
    assert not is_logical_failure(lay, [])
    # a full Z row from boundary to boundary flips the logical
    row = set(lay.logical_z_supports[0])
    assert is_logical_failure(lay, row)
    # a stabilizer acts trivially
    plq = lay.checks(CheckBasis.Z)[0]
    assert not is_logical_failure(lay, plq.support)
    with pytest.raises(ValueError):
        is_logical_failure(lay, [0])  # corner qubit alone triggers a check


@pytest.mark.parametrize("basis", list(CheckBasis))
@pytest.mark.parametrize("d", [3, 5, 9])
def test_perfect_graph_shape(d, basis):
    """One edge per data qubit, except that the d - 1 pairs of boundary
    qubits seen by one check alone merge into one half-edge each, by the XOR
    rule; no edge key is dropped."""
    lay = build_rotated_surface_code(d)
    p = 0.05
    g = build_perfect_graph(lay, NoiseParams(p, NoiseMode.PERFECT_MEASUREMENT), basis)
    assert g.rounds == 1
    assert g.n_edges == len(g.edge_id_by_key) == lay.n_data - (d - 1)
    merged = [e for e in (*g.edges, *g.half_edges) if e.probability != p]
    assert len(merged) == d - 1 and all(e.is_half for e in merged)
    assert all(e.probability == pytest.approx(2 * p * (1 - p)) for e in merged)
    assert g.obs_conflicts == 0


def test_graph_rejects_two_half_edges_at_one_vertex():
    with pytest.raises(ValueError, match="two half-edges at vertex"):
        make_graph([((0, 0), (1, 0))], [(0, 0), (1, 0), (0, 0)])


def _circuit(d, basis, closed):
    lay = build_rotated_surface_code(d)
    window = dict(drop_initial=False, noisy_rounds=d) if closed else {}
    return build_decoding_graph(lay, build_schedule(lay), d + closed, NoiseParams(1e-2), basis,
                                **window)


_STORE_CASES = {
    **{f"circuit-d5-{basis.value}-{'closed' if closed else 'open'}":
       partial(_circuit, 5, basis, closed) for basis in CheckBasis for closed in (False, True)},
    "perfect-rotated-d5": lambda: build_perfect_graph(
        build_rotated_surface_code(5), NoiseParams(0.05, NoiseMode.PERFECT_MEASUREMENT)),
    "perfect-toric-d6": lambda: build_perfect_graph(
        build_toric_code(6), NoiseParams(0.05, NoiseMode.PERFECT_MEASUREMENT)),
    "make_graph": lambda: make_graph(
        [((0, 0), (1, 0)), ((1, 1), (0, 0)), ((0, 1), (0, 0)), ((2, 1), (1, 1))],
        [(1, 1), (0, 0)], n_checks=3, p=0.05),
}


@pytest.mark.parametrize("build", list(_STORE_CASES.values()), ids=list(_STORE_CASES))
def test_edge_view_matches_store(build):
    """The ``Edge`` view agrees with the stored arrays on every edge id; the
    block kernels build neither it nor the scalar decoders' lists."""
    graph = build()
    if graph.census is not None:
        faults = FaultSampler(graph.census, graph.noisy_rounds, 1e-2).sample_block(make_rng(3), 64)
        keys, _ = graph.block_syndromes(faults)
        assert lazy_block(graph, keys, 64).failure.size == 64 and keys.size
        assert graph._edge_view is None and graph._scalar_view is None

    n_c, n_full = graph.n_checks, graph.n_full_edges
    assert (len(graph.edges), len(graph.half_edges)) == (n_full, graph.n_half_edges)
    for eid in range(graph.n_edges):
        e = graph.edge(eid)
        u, v = graph.ends[eid].tolist()
        assert (e.u, e.v) == ((u % n_c, u // n_c), None if v < 0 else (v % n_c, v // n_c))
        assert e.is_half == (eid >= n_full) and (e.is_half or e.u < e.v)
        assert e.probability == graph.probability[eid]
        assert e.weight == math.log((1 - e.probability) / e.probability)
        assert e.kind == _KINDS[graph.kind[eid]]
        assert e.obs == graph.obs[eid] and type(e.obs) is int
    assert graph.half_edge_id == {e.u: n_full + i for i, e in enumerate(graph.half_edges)}


def test_graph_json_round_trip(d3):
    import json

    _, _, g = d3
    doc = json.loads(g.to_json())
    assert doc["rounds"] == g.rounds
    assert len(doc["edges"]) == g.n_edges
    assert len(doc["vertices"]) == g.n_checks * g.rounds
