"""The lazy pre-decoder: greedy local matching with an explicit failure mode.

Batch form: a first pass scans edges in the fixed canonical order and matches
any edge whose two endpoints are both unmatched defects; a second pass scans
half-edges and sends remaining boundary-adjacent defects to the boundary,
counting a choice as *ambiguous* when the defect has a neighbor in the
original defect set.  More than one ambiguous choice, or any defect left over,
is a failure.  On success the returned correction is cardinality-minimal.

The streaming form consumes syndrome rounds one at a time with a three-round
buffer, finalizing decisions as soon as later rounds can no longer affect
them, and degrades to passing raw syndrome data through once a failure is
detected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .graph import DecodingGraph, Syndrome, Vertex


class LazyFailure(enum.Enum):
    TOO_MANY_AMBIGUOUS = "too_many_ambiguous"
    RESIDUAL_SYNDROME = "residual_syndrome"


class LazyOutcome(NamedTuple):
    """A tuple, not a dataclass: this sits on the per-round hot path."""

    correction: frozenset[int] | None      # edge ids; None on failure
    failure: LazyFailure | None
    ambiguous_count: int

    @property
    def success(self) -> bool:
        return self.failure is None


_EMPTY_SUCCESS = LazyOutcome(frozenset(), None, 0)


def lazy_decode(graph: DecodingGraph, syndrome: Syndrome) -> LazyOutcome:
    """Single pass over edges then half-edges, in canonical scan order.

    The ambiguity test checks the defect's neighbors against the original
    defect set, following the pseudocode literally.
    """
    defects = syndrome.defects
    if not defects:
        return _EMPTY_SUCCESS
    for q, t in defects:
        if not (0 <= q < graph.n_checks and 0 <= t < graph.rounds):
            raise ValueError(f"syndrome vertex {(q, t)} outside the graph")
    working = set(defects)
    correction: set[int] = set()

    # Pass 1: edges with both endpoints defective.  Only edges incident to the
    # original defect set can ever trigger, so the scan is restricted to those
    # without changing the outcome.
    candidate_ids = sorted(
        {
            eid
            for v in defects
            for u, eid in graph.neighbors.get(v, ())
            if u in defects
        }
    )
    for eid in candidate_ids:
        e = graph.edges[eid]
        if e.u in working and e.v in working:
            correction.add(eid)
            working.discard(e.u)
            working.discard(e.v)

    # Pass 2: half-edges for the leftovers.  Skipped on a graph without
    # boundary, where it finds nothing yet costs about 0.5 us a call.
    n_amb = 0
    half = graph.half_edge_id
    for v in sorted(defects & half.keys(), key=half.__getitem__) if half else ():
        if v not in working:
            continue
        correction.add(half[v])
        working.discard(v)
        if graph.neighbor_set(v) & defects:
            n_amb += 1
            if n_amb > 1:
                return LazyOutcome(None, LazyFailure.TOO_MANY_AMBIGUOUS, n_amb)

    if working:
        return LazyOutcome(None, LazyFailure.RESIDUAL_SYNDROME, n_amb)
    return LazyOutcome(frozenset(correction), None, n_amb)


@dataclass
class StreamEmission:
    """Decisions finalized after one more syndrome round has arrived."""

    round: int                       # the round whose defects were finalized
    matched_edges: tuple[int, ...]   # edge ids committed at this point
    failed: bool
    raw_passthrough: tuple[Vertex, ...] = ()   # defects forwarded after failure
    outcome: LazyOutcome | None = None         # set on the final emission


class LazyStreamDecoder:
    """On-the-fly lazy decoding over a three-round buffer.

    Feed rounds in time order with :meth:`feed`; call :meth:`finish` after the
    last round.  While no failure has occurred the emissions carry matched
    edges; after the first failure the decoder stops deciding and forwards the
    raw defects of each round (the window's syndrome data now goes to the
    full decoding unit).
    """

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        self._edges_by_round: dict[int, list[int]] = {}
        for eid, e in enumerate(graph.edges):
            self._edges_by_round.setdefault(min(e.u[1], e.v[1]), []).append(eid)
        for r in self._edges_by_round:
            self._edges_by_round[r].sort()
        self._defects: set[Vertex] = set()
        self._working: set[Vertex] = set()
        self._correction: set[int] = set()
        self._n_amb = 0
        self._failure: LazyFailure | None = None
        self._next_round = 0
        self._buffer: list[tuple[int, frozenset[Vertex]]] = []

    def feed(self, round_defects: Iterable[Vertex]) -> StreamEmission:
        t = self._next_round
        self._next_round += 1
        defects = frozenset((int(q), t) for q in round_defects)
        self._defects |= defects
        self._working |= defects
        self._buffer.append((t, defects))
        if len(self._buffer) > 3:
            self._buffer.pop(0)
        if self._failure is not None:
            return StreamEmission(t, (), True, tuple(sorted(defects)))
        # Round t-1 is now final: no later edge can touch it.
        if t == 0:
            return StreamEmission(t, (), False)
        return self._finalize(t - 1)

    def finish(self) -> StreamEmission:
        """Flush the last buffered round and return the window outcome."""
        t_last = self._next_round - 1
        if self._failure is None and t_last >= 0:
            em = self._finalize(t_last)
        else:
            em = StreamEmission(t_last, (), self._failure is not None)
        if self._failure is None and self._working:
            self._failure = LazyFailure.RESIDUAL_SYNDROME
            em.failed = True
            em.raw_passthrough = tuple(sorted(self._working))
        if self._failure is None:
            em.outcome = LazyOutcome(frozenset(self._correction), None, self._n_amb)
        else:
            em.outcome = LazyOutcome(None, self._failure, self._n_amb)
        return em

    def _finalize(self, t: int) -> StreamEmission:
        matched: list[int] = []
        for eid in self._edges_by_round.get(t, ()):
            e = self.graph.edges[eid]
            if e.u in self._working and e.v in self._working:
                self._correction.add(eid)
                matched.append(eid)
                self._working.discard(e.u)
                self._working.discard(e.v)
        # Defects of round t are fully decided now; resolve them via
        # half-edges or flag a failure.
        for v in sorted(q for q in self._working if q[1] == t):
            heid = self.graph.half_edge_id.get(v)
            if heid is None:
                self._failure = LazyFailure.RESIDUAL_SYNDROME
                return StreamEmission(t, tuple(matched), True, tuple(sorted(self._working)))
            self._correction.add(heid)
            matched.append(heid)
            self._working.discard(v)
            if self.graph.neighbor_set(v) & self._defects:
                self._n_amb += 1
                if self._n_amb > 1:
                    self._failure = LazyFailure.TOO_MANY_AMBIGUOUS
                    return StreamEmission(t, tuple(matched), True, tuple(sorted(self._working)))
        return StreamEmission(t, tuple(matched), False)


def lazy_decode_stream(
    graph: DecodingGraph, rounds: Iterable[Iterable[Vertex]]
) -> Iterator[StreamEmission]:
    """Generator form of the streaming decoder: one emission per round, then a
    final emission whose ``outcome`` field holds the window's LazyOutcome."""
    dec = LazyStreamDecoder(graph)
    for round_defects in rounds:
        yield dec.feed(round_defects)
    yield dec.finish()


def count_message_bits(outcome: LazyOutcome, d: int) -> int:
    """Bits sent to the decoding unit for one basis window of ``d`` rounds:
    zero while the lazy decoder succeeds, the full per-basis syndrome stream
    otherwise."""
    if outcome.success:
        return 0
    return ((d * d - 1) // 2) * d
