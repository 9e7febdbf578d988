"""The GF(2) frame kernel against the sparse reference propagator."""

import random

import numpy as np
import pytest

from fault_reference import templates
from frame_reference import reference_edges, reference_window
from lazyqec.code_model import CheckBasis, build_rotated_surface_code, build_schedule
from lazyqec.graph import _ABSENT, _NO_OBS, build_decoding_graph, simulate_window
from lazyqec.noise import LocationKind, NoiseParams, sample_faults, trial_rng


def _assert_fault_table(graph, layout, basis):
    """The graph's fault table holds the reference template of every census
    (location, choice), as detector offsets ``dt * n_checks + check`` and a
    mask, and ``_ABSENT`` with the ``_NO_OBS`` mask everywhere else."""
    template, template_obs = templates(layout, basis)
    table = graph._fault_table
    assert table.width == max(loc.n_choices for loc in graph.census)
    offset = np.full((len(graph.census) * table.width, 2), _ABSENT, dtype=np.int64)
    obs = np.full(len(graph.census) * table.width, _NO_OBS, dtype=np.int64)
    for (j, choice), pattern in template.items():
        row = j * table.width + choice
        offset[row, : len(pattern)] = [dt * graph.n_checks + q for q, dt in pattern]
        obs[row] = template_obs[j, choice]
    np.testing.assert_array_equal(table.offset, offset)
    np.testing.assert_array_equal(table.obs, obs)


@pytest.mark.parametrize("basis", list(CheckBasis))
@pytest.mark.parametrize("d", [3, 5, 7])
def test_templates_match_reference(d, basis):
    lay = build_rotated_surface_code(d)
    sch = build_schedule(lay)
    graph = build_decoding_graph(lay, sch, d, NoiseParams(1e-3), basis)
    _assert_fault_table(graph, lay, basis)
    assert any(templates(lay, basis)[1].values())


# d = 15 open (X) and d = 9 closed are the benchmark's campaign graphs.
_EDGE_CASES = [(d, basis, closed) for d in (3, 5, 7) for basis in CheckBasis for closed in (False, True)]
_EDGE_CASES += [(15, CheckBasis.X, False), (9, CheckBasis.X, True), (9, CheckBasis.Z, True)]


@pytest.mark.parametrize(
    "d, basis, closed", _EDGE_CASES,
    ids=[f"{d}-{basis}-{'closed' if closed else 'open'}" for d, basis, closed in _EDGE_CASES],
)
def test_edges_match_reference(d, basis, closed):
    """Edges, merged probabilities and weights are bit-identical to a build
    that merges every fault choice on its own, and so is the fault table."""
    lay = build_rotated_surface_code(d)
    sch = build_schedule(lay)
    window = dict(drop_initial=False, noisy_rounds=d) if closed else {}
    rounds = d + 1 if closed else d
    graph = build_decoding_graph(lay, sch, rounds, NoiseParams(1e-3), basis, **window)
    edges, half_edges, conflicts, invisible = reference_edges(
        lay, sch, basis, 1e-3, rounds, **window, templates=templates(lay, basis)
    )

    def fields(e):
        return (e.u, e.v, e.probability, e.weight, e.kind, e.obs)

    assert [fields(e) for e in graph.edges] == edges
    assert [fields(e) for e in graph.half_edges] == half_edges
    assert (graph.obs_conflicts, graph.invisible_obs_faults) == (conflicts, invisible)
    assert {e[4] for e in edges} == {"space", "time", "diagonal"}
    _assert_fault_table(graph, lay, basis)


def test_window_replay_matches_reference():
    lay = build_rotated_surface_code(5)
    sch = build_schedule(lay)
    noise = NoiseParams(1e-2)
    shuffle = random.Random(17)
    meas_flips = 0
    for trial in range(600):
        faults = sample_faults(sch, 5, noise, seed=0, rng=trial_rng(41, trial))
        meas_flips += sum(ev.location.kind is LocationKind.MEAS for ev in faults)
        want = reference_window(lay, sch, 5, faults)
        shuffle.shuffle(faults)   # the kernel must not depend on list order
        raw, x_frame, z_frame = simulate_window(lay, sch, 5, faults)
        for b in CheckBasis:
            np.testing.assert_array_equal(raw[b], want[0][b])
        assert (x_frame, z_frame) == want[1:]
    assert meas_flips > 300   # about 0.8 per window


def test_window_replay_empty_and_late_faults():
    lay = build_rotated_surface_code(3)
    sch = build_schedule(lay)
    raw, x_frame, z_frame = simulate_window(lay, sch, 4, [])
    assert not any(raw[b].any() for b in CheckBasis) and not x_frame and not z_frame
    faults = sample_faults(sch, 6, NoiseParams(0.05), seed=3)
    late = [ev for ev in faults if ev.round >= 3]
    assert late
    got = simulate_window(lay, sch, 6, late)
    want = reference_window(lay, sch, 6, late)
    for b in CheckBasis:
        np.testing.assert_array_equal(got[0][b], want[0][b])
    assert got[1:] == want[1:]
