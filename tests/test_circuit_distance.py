"""Circuit-level distance of the rotated code's closed decoding windows.

The distance is the fewest edges of a path that leaves the boundary and comes
back with the logical flipped: a set of faults with no detection event that
flips the logical.  A breadth-first search over (vertex, logical parity) with
unit weights finds it.  It starts from one virtual boundary vertex that every
half-edge joins, and it uses every edge id, so parallel edges count too.

The windows are the ones logical-error campaigns decode: ``d + 1`` detector
rounds, faults in the first ``d``, and the first round's detectors kept.
"""

from collections import deque

import pytest

from lazyqec.code_model import CheckBasis, build_rotated_surface_code, build_schedule
from lazyqec.graph import build_decoding_graph
from lazyqec.noise import NoiseParams

_BOUNDARY = None


def circuit_distance(graph) -> int:
    """Edges on the shortest boundary-to-boundary path that flips the logical."""
    nbrs: dict = {}
    for e in graph.edges + graph.half_edges:
        for a, b in ((e.u, e.v), (e.v, e.u)):
            nbrs.setdefault(a, []).append((b, e.obs & 1))   # the code's one logical
    start, goal = (_BOUNDARY, 0), (_BOUNDARY, 1)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        v, parity = state
        for u, flip in nbrs.get(v, ()):
            nxt = (u, parity ^ flip)
            if nxt not in dist:
                dist[nxt] = dist[state] + 1
                if nxt == goal:
                    return dist[nxt]
                queue.append(nxt)
    raise ValueError("no logical path through the window")


def _closed_window(d: int, basis: CheckBasis):
    lay = build_rotated_surface_code(d)
    return build_decoding_graph(
        lay, build_schedule(lay), d + 1, NoiseParams(1e-3), basis,
        drop_initial=False, noisy_rounds=d,
    )


_HOOK = pytest.mark.xfail(
    strict=True,
    reason="the CNOT order of code_model._ROTATED_OFFSETS spreads ancilla (hook) "
    "errors along the logical, so the circuit distance is (d + 1) / 2 "
    "instead of d",
)


@pytest.mark.parametrize("basis", [CheckBasis.X, CheckBasis.Z], ids=["X", "Z"])
@pytest.mark.parametrize(
    "d", [3, pytest.param(5, marks=_HOOK), pytest.param(7, marks=_HOOK),
          pytest.param(9, marks=_HOOK)],
)
def test_closed_window_circuit_distance_is_d(d, basis):
    assert circuit_distance(_closed_window(d, basis)) == d
