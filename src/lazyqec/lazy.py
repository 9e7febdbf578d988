"""The lazy pre-decoder: greedy local matching with an explicit failure mode.

The rule settles a set of defects (a *front*): a first pass scans the edges
incident to the front in the fixed canonical order and matches any edge whose
two endpoints are both unmatched defects; a second pass takes the leftovers
in (round, check) order and sends each to the boundary by its half-edge,
counting a choice as *ambiguous* when the defect has a neighbor in the
original defect set.  A leftover without a half-edge, or a second ambiguous
choice, is a failure.  On success the correction is cardinality-minimal.

Batch and streaming forms share it, one rule; the stream settles each round
once the next one arrives, and degrades to passing raw syndrome data through
once a failure is detected.  ``lazy_block`` runs the same rule on a whole
block of trials as int arrays, for the Monte Carlo campaigns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, NamedTuple

import numpy as np

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


def _settle(
    graph: DecodingGraph,
    front: AbstractSet[int],
    working: set[int],
    defects: AbstractSet[int],
    n_amb: int,
) -> tuple[list[int], LazyFailure | None, int]:
    """The lazy rule on the defects of ``front``, as vertex ids (see
    ``DecodingGraph``); matched defects leave ``working``.  Returns the edge ids
    taken, in order, the failure (None on success) and the running ambiguous
    count."""
    matched: list[int] = []
    view = graph.scalar_view
    adj, ends = view.adj, view.edge_ends
    for eid in sorted({eid for v in front for u, eid in adj[v] if u in working}):
        a, b = ends[eid]
        if a in working and b in working:
            matched.append(eid)
            working.discard(a)
            working.discard(b)
    # Nothing left: spares pass 2's set-up, which costs a graph without
    # half-edges time on every success.
    if not working:
        return matched, None, n_amb

    half = view.half_ids
    for v in sorted(front & working):   # ids sort as (round, check)
        heid = half[v]
        if heid < 0:
            return matched, LazyFailure.RESIDUAL_SYNDROME, n_amb
        matched.append(heid)
        working.discard(v)
        if any(u in defects for u, _ in adj[v]):
            n_amb += 1
            if n_amb > 1:
                return matched, LazyFailure.TOO_MANY_AMBIGUOUS, n_amb
    return matched, None, n_amb


def lazy_decode(graph: DecodingGraph, syndrome: Syndrome) -> LazyOutcome:
    """The lazy rule with every defect as the front.

    The ambiguity test checks the vertices adjacent to the defect against
    the original defect set, following the pseudocode literally.  A failure
    is the first one met in (round, check) order, as the streaming form
    reports it.
    """
    if not syndrome.defects:
        return _EMPTY_SUCCESS
    # ``graph.vertex_ids`` inline: the call cost 1-3% of a lazy decode of toric d=20 syndromes
    n_c, rounds = graph.n_checks, graph.rounds
    defects = set()
    for q, t in syndrome.defects:
        if not (0 <= q < n_c and 0 <= t < rounds):
            raise ValueError(f"syndrome vertex {(q, t)} outside the graph")
        defects.add(t * n_c + q)
    matched, failure, n_amb = _settle(graph, defects, set(defects), defects, 0)
    if failure is not None:
        return LazyOutcome(None, failure, n_amb)
    return LazyOutcome(frozenset(matched), None, n_amb)


# ``LazyBlock.failure`` codes
BLOCK_FAILURES = (None, LazyFailure.RESIDUAL_SYNDROME, LazyFailure.TOO_MANY_AMBIGUOUS)


class LazyBlock(NamedTuple):
    """Per-trial outcomes of ``lazy_block``, and the corrections of its
    successful trials as parallel (trial, edge id) arrays."""

    failure: np.ndarray        # index into BLOCK_FAILURES; 0 is success
    ambiguous_count: np.ndarray
    trial: np.ndarray
    edge: np.ndarray


def lazy_block(graph: DecodingGraph, keys: np.ndarray, trials: int) -> LazyBlock:
    """The lazy rule on ``trials`` trials at once, each with the outcome
    ``lazy_decode`` gives it.

    ``keys`` are the block's defects as sorted int64 keys ``trial * n_v +
    round * n_checks + check`` (see ``DecodingGraph.block_syndromes``), so a
    trial's defects are one run, in (round, check) order.  Pass 1, greedy
    matching in edge-id order, is the lexicographically first maximal
    matching of the defect-defect edges; it is built in rounds, each taking
    every live edge whose id is the smallest at both its endpoints.  Pass 2
    takes the leftovers in key order, and a running count per trial finds
    its first defect without a half-edge or its second ambiguous choice.
    """
    view = graph.int_view
    n_v = view.n_v
    failure = np.zeros(trials, dtype=np.int8)
    ambiguous = np.zeros(trials, dtype=np.int64)
    trial_of = keys // n_v
    vid = keys - trial_of * n_v

    # The edges whose smaller end is a defect, and whether the larger end is
    # a defect of the same trial: then the edge joins defects a <= b.
    lo = view.start[vid]
    deg = view.start[vid + 1] - lo
    at = np.repeat(np.arange(keys.size), deg)
    slot = np.arange(at.size) + np.repeat(lo - (np.cumsum(deg) - deg), deg)
    other = keys[at] + (view.nbr[slot] - vid[at])
    present = np.zeros(trials * n_v, dtype=bool)
    present[keys] = True
    hit = np.flatnonzero(present[other])
    a, b, eid = at[hit], np.searchsorted(keys, other[hit]), view.nbr_edge[slot[hit]]
    touches_defect = np.zeros(keys.size, dtype=bool)
    touches_defect[a] = touches_defect[b] = True

    matched = np.zeros(keys.size, dtype=bool)
    taken_at, taken = [keys[:0]], [keys[:0]]   # per round, the ends a and ids of its edges
    low = np.empty(keys.size, dtype=np.int64)
    while eid.size:
        low[a] = low[b] = view.nbr_edge.size
        np.minimum.at(low, a, eid)
        np.minimum.at(low, b, eid)
        win = (low[a] == eid) & (low[b] == eid)
        taken_at.append(a[win])
        taken.append(eid[win])
        matched[a[win]] = matched[b[win]] = True
        live = ~(matched[a] | matched[b])
        a, b, eid = a[live], b[live], eid[live]

    left = np.flatnonzero(~matched)
    left_trial = trial_of[left]
    half = view.half[vid[left]]
    no_half = half < 0
    # A choice is ambiguous when the defect has a defect neighbour; it is
    # counted only once the half-edge exists, as in the scalar rule.
    amb = touches_defect[left] & ~no_half
    run = np.cumsum(amb)
    run -= (run - amb)[np.searchsorted(left_trial, left_trial)]   # per trial, this one included
    stop = np.flatnonzero(no_half | (run > 1))
    first = np.ones(stop.size, dtype=bool)
    np.not_equal(left_trial[stop[1:]], left_trial[stop[:-1]], out=first[1:])
    stop = stop[first]
    np.add.at(ambiguous, left_trial, amb)
    ambiguous[left_trial[stop]] = run[stop]
    failure[left_trial[stop]] = np.where(no_half[stop], 1, 2)

    trial = np.concatenate([trial_of[np.concatenate(taken_at)], left_trial])
    edge = np.concatenate(taken + [half])
    keep = failure[trial] == 0
    return LazyBlock(failure, ambiguous, trial[keep], edge[keep])


@dataclass
class StreamEmission:
    """Decisions finalized after one more syndrome round has arrived."""

    round: int                       # the round whose defects were finalized
    matched_edges: tuple[int, ...]   # edge ids committed at this point
    failed: bool
    raw_passthrough: tuple[Vertex, ...] = ()   # defects forwarded after failure
    outcome: LazyOutcome | None = None         # set on the final emission


class LazyStreamDecoder:
    """On-the-fly lazy decoding, one round behind the input.

    Feed rounds in time order with :meth:`feed`; call :meth:`finish` after the
    last round.  Round t is settled by the lazy rule once round t+1 has
    arrived, which is final only when no edge joins rounds more than one
    apart; other graphs are rejected.  While no failure has occurred the
    emissions carry matched edges; after the first failure the decoder stops
    deciding and forwards the raw defects of each round (the window's
    syndrome data now goes to the full decoding unit).
    """

    def __init__(self, graph: DecodingGraph):
        if (abs(np.diff(graph.ends[: graph.n_full_edges] // graph.n_checks)) > 1).any():
            raise ValueError("streaming needs every edge to join rounds at most one apart")
        self.graph = graph
        self._defects: set[int] = set()      # vertex ids (see ``DecodingGraph``)
        self._working: set[int] = set()
        self._correction: set[int] = set()
        self._n_amb = 0
        self._failure: LazyFailure | None = None
        self._next_round = 0

    def feed(self, round_defects: Iterable[int]) -> StreamEmission:
        """Take the next round's defects as check indices."""
        t = self._next_round
        defects = self.graph.vertex_ids((int(q), t) for q in round_defects)
        self._next_round += 1
        self._defects |= defects
        self._working |= defects
        if self._failure is not None:
            return StreamEmission(t, (), True, self._vertices(defects))
        # Round t-1 is now final: no later edge can touch it.
        if t == 0:
            return StreamEmission(t, (), False)
        return self._finalize(t - 1)

    def finish(self) -> StreamEmission:
        """Settle the last round and return the window outcome."""
        t_last = self._next_round - 1
        if self._failure is None and t_last >= 0:
            em = self._finalize(t_last)
        else:
            em = StreamEmission(t_last, (), self._failure is not None)
        if self._failure is None:
            em.outcome = LazyOutcome(frozenset(self._correction), None, self._n_amb)
        else:
            em.outcome = LazyOutcome(None, self._failure, self._n_amb)
        return em

    def _finalize(self, t: int) -> StreamEmission:
        n_c = self.graph.n_checks
        front = frozenset(v for v in self._working if v // n_c == t)
        matched, self._failure, self._n_amb = _settle(
            self.graph, front, self._working, self._defects, self._n_amb
        )
        self._correction.update(matched)
        if self._failure is not None:
            return StreamEmission(t, tuple(matched), True, self._vertices(self._working))
        return StreamEmission(t, tuple(matched), False)

    def _vertices(self, ids: Iterable[int]) -> tuple[Vertex, ...]:
        """Vertex ids as sorted ``(check, round)`` tuples."""
        n_c = self.graph.n_checks
        return tuple(sorted((v % n_c, v // n_c) for v in ids))


def lazy_decode_stream(
    graph: DecodingGraph, rounds: Iterable[Iterable[int]]
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
