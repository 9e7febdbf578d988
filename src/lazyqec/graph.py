"""Space-time decoding graphs built by symbolic fault propagation.

Vertices are syndrome locations ``(check_index, round)`` for one check basis,
with ids ``round * n_checks + check``; a graph stores its edges once, as
integer arrays over those ids (see ``DecodingGraph``).
One bit-packed GF(2) frame kernel propagates the X and Z generator of every
fault site; a fault's detection pattern in this basis (at most two flipped
difference-syndrome locations), the XOR of its generators', becomes an edge
or a half-edge.  Faults sharing a detection pattern are merged with the
XOR-aware rule ``p_e = (1 - prod_i (1 - 2 p_i)) / 2`` and carry weight
``w_e = ln((1 - p_e) / p_e)``.

The builder works in one array pass over (location, choice) rows, the
detector error model of the round: it takes each row's detectors and
logical mask, emits them as the flat fault table the block syndrome kernel
reads, merges rows by pattern, places the patterns in every noisy round and
merges the placements by vertex set.  Each product multiplies its factors in
the order of a fault-by-fault merge, so probabilities are bit-identical to it.

The same machinery yields the 2D graph of the perfect-measurement mode, where
edges are simply data qubits joining the one or two checks that see them.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .code_model import CheckBasis, CircuitSchedule, CodeLayout, Cnot, MeasureAncilla, PrepAncilla
from .noise import (
    FaultBlock,
    FaultEvent,
    FaultLocation,
    LocationKind,
    NoiseMode,
    NoiseParams,
    fault_pauli_bits,
    round_census,
)

Vertex = tuple[int, int]   # (check index within basis, round)


class ScheduleError(RuntimeError):
    """A single fault triggered three or more detectors of one basis."""


@dataclass(frozen=True)
class Syndrome:
    """Defect set: locations where the difference syndrome is 1."""

    defects: frozenset[Vertex]

    @classmethod
    def of(cls, defects: Iterable[Vertex]) -> "Syndrome":
        return cls(frozenset(defects))

    def __len__(self) -> int:
        return len(self.defects)


class Edge(NamedTuple):
    u: Vertex
    v: Vertex | None           # None: half-edge to the boundary
    probability: float
    weight: float
    kind: str                  # space | time | diagonal | boundary | time_boundary
    obs: int                   # logical-flip bitmask of the representative fault

    @property
    def is_half(self) -> bool:
        return self.v is None


class MatchingIndex(NamedTuple):
    """Shortest-path data per vertex id (see ``DecodingGraph``)."""

    # (neighbour, weight, eid, slack): slack is the neighbour's boundary
    # distance minus the weight, the room a search's bound leaves through it
    adj: tuple[tuple[tuple[int, float, int, float], ...], ...]
    bdist: list[float]                              # distance to the boundary
    bstep: list[tuple[int, int]]                    # (next id or -1, eid) toward it


class IntView(NamedTuple):
    """The edge store as a CSR adjacency, for the block kernels."""

    n_v: int                    # rounds * n_checks
    start: np.ndarray           # (n_v + 1,) CSR offsets into ``nbr`` and ``nbr_edge``
    nbr: np.ndarray             # the larger end of each edge at its smaller end;
                                # parallel edges kept
    nbr_edge: np.ndarray        # the edge id of that entry
    half: np.ndarray            # (n_v,) half-edge id, or -1


class ScalarView(NamedTuple):
    """The edge store as Python lists, for the one-syndrome decoders."""

    adj: list[list[tuple[int, int]]]    # per vertex, (neighbour, eid) in edge-id order
    half_ids: list[int]                 # ``IntView.half`` as a list
    edge_ends: list[list[int]]          # ``DecodingGraph.ends`` as a list


_NO_OBS = -1


class _FaultTable(NamedTuple):
    """Flat fault map: row ``location * width + choice`` lists at most two
    detectors, each as the vertex id ``dt * n_checks + check`` relative to the
    fault's round; an absent one holds ``_ABSENT``, past every window.  A row
    off the census (a choice past its location's) has ``_NO_OBS`` as mask."""

    width: int
    offset: np.ndarray          # (rows, 2)
    obs: np.ndarray             # (rows,) logical-flip mask


_NO_FAULTS = _FaultTable(0, np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64))


_ABSENT = 1 << 40


def _odd_keys(key: np.ndarray) -> np.ndarray:
    """The sorted keys that occur an odd number of times in ``key``."""
    key = np.sort(key)
    bound = np.ones(key.size + 1, dtype=bool)   # where a run of equal keys starts or ends
    np.not_equal(key[1:], key[:-1], out=bound[1:-1])
    start = np.flatnonzero(bound)
    return key[start[:-1][(start[1:] - start[:-1]) & 1 == 1]]


class DefectClasses(NamedTuple):
    bulk: frozenset[Vertex]
    boundary_adjacent: frozenset[Vertex]     # incident to a half-edge
    boundary_isolated: frozenset[Vertex]     # boundary-adjacent with no defect neighbor


@contextmanager
def _collector_paused():
    """For the views that allocate some 10^4 objects (``Edge`` tuples,
    adjacency lists): the cyclic collections they set off find nothing.  The
    array builder allocates few, and a d=15 build sets off four young-
    generation collections, so it runs with the collector as it finds it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class DecodingGraph:
    """Immutable after construction; shared read-only by decoder workers.

    Vertex ``(check, round)`` has id ``round * n_checks + check``, so ids sort
    as (round, check).  The edges are stored once, as arrays in edge-id order,
    full edges first: ``ends`` (-1 as a half-edge's second end),
    ``probability``, ``kind`` (an index into ``_KINDS``) and ``obs``.  Every
    other form is a view built on first use: ``int_view``, ``scalar_view``,
    ``matching_index``, and the ``Edge`` tuples of ``edges``, ``half_edges``
    and ``half_edge_id``."""

    def __init__(
        self,
        layout: CodeLayout | None,
        basis: CheckBasis,
        rounds: int,
        ends: np.ndarray,
        probability: np.ndarray,
        kind: np.ndarray,
        obs: np.ndarray,
        fault_table: _FaultTable = _NO_FAULTS,
        census: tuple[FaultLocation, ...] | None = None,
        drop_initial: bool = True,
        noisy_rounds: int | None = None,
        obs_conflicts: int = 0,
        invisible_obs_faults: int = 0,
        centers: list[tuple[int, int]] | None = None,
    ):
        self.layout = layout
        self.basis = basis
        self.rounds = rounds
        if centers is None:
            centers = [p.center for p in layout.checks(basis)]
        self.n_checks = n_c = len(centers)
        self.ends = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
        self.probability = np.asarray(probability, dtype=np.float64)
        self.kind = np.asarray(kind, dtype=np.int64)
        self.obs = np.asarray(obs, dtype=np.int64)
        for store in (self.ends, self.probability, self.kind, self.obs):
            store.flags.writeable = False   # the views must not go stale
        half = self.ends[:, 1] < 0
        self.n_half_edges = int(np.count_nonzero(half))
        self.n_full_edges = half.size - self.n_half_edges
        if half[: self.n_full_edges].any():
            raise ValueError("half-edges must follow the full edges")
        at = np.sort(self.ends[half, 0])
        twice = at[1:][at[1:] == at[:-1]].tolist()
        if twice:   # the decoders reach the boundary through one half-edge per vertex
            raise ValueError(f"two half-edges at vertex {(twice[0] % n_c, twice[0] // n_c)}")
        self._fault_table = fault_table
        self.census = census
        self.drop_initial = drop_initial
        self.noisy_rounds = rounds if noisy_rounds is None else noisy_rounds
        self.obs_conflicts = obs_conflicts
        self.invisible_obs_faults = invisible_obs_faults

        self._centers = centers
        # Declared here, filled on first use: on CPython 3.11 an attribute
        # added after __init__ slows every attribute read on the graph, and
        # lazy decoding ran about 7% slower with it.
        self._matching_index: MatchingIndex | None = None
        self._int_view: IntView | None = None
        self._scalar_view: ScalarView | None = None
        self._edge_view: tuple[tuple[Edge, ...], tuple[Edge, ...], dict[Vertex, int]] | None = None

    # --- basic accessors ---------------------------------------------------

    @property
    def n_edges(self) -> int:
        return self.probability.size

    @property
    def edges(self) -> tuple[Edge, ...]:
        return (self._edge_view or self._build_edge_view())[0]

    @property
    def half_edges(self) -> tuple[Edge, ...]:
        return (self._edge_view or self._build_edge_view())[1]

    @property
    def half_edge_id(self) -> dict[Vertex, int]:
        return (self._edge_view or self._build_edge_view())[2]

    @_collector_paused()
    def _build_edge_view(self):
        vertex = [*self.vertices(), None]   # None at id -1, a half-edge's missing end
        prob = self.probability.tolist()
        every = list(map(
            Edge,
            map(vertex.__getitem__, self.ends[:, 0].tolist()),
            map(vertex.__getitem__, self.ends[:, 1].tolist()),
            prob,
            map(_weight, prob),
            map(_KINDS.__getitem__, self.kind.tolist()),
            self.obs.tolist(),
        ))
        n_full = self.n_full_edges
        half_id = {e.u: n_full + i for i, e in enumerate(every[n_full:])}
        self._edge_view = (tuple(every[:n_full]), tuple(every[n_full:]), half_id)
        return self._edge_view

    def edge(self, eid: int) -> Edge:
        n_full = self.n_full_edges
        return self.edges[eid] if eid < n_full else self.half_edges[eid - n_full]

    def vertices(self) -> Iterable[Vertex]:
        for t in range(self.rounds):
            for q in range(self.n_checks):
                yield (q, t)

    def coord(self, v: Vertex) -> tuple[int, int, int]:
        x, y = self._centers[v[0]]
        return (x, y, v[1])

    @property
    def edge_id_by_key(self) -> dict[tuple, int]:
        """Edge id by its sorted ends ``(u, v)``, or ``(u,)`` for a half-edge;
        of parallel edges the last one is kept.  Built on each call."""
        keys = {(e.u, e.v) if e.u <= e.v else (e.v, e.u): eid for eid, e in enumerate(self.edges)}
        keys.update({(u,): eid for u, eid in self.half_edge_id.items()})
        return keys

    def vertex_ids(self, vertices: Iterable[Vertex]) -> set[int]:
        """The ids of ``(check, round)`` vertices; raises for a vertex outside
        the graph's checks and rounds."""
        n_c, rounds = self.n_checks, self.rounds
        ids = set()
        for q, t in vertices:
            if not (0 <= q < n_c and 0 <= t < rounds):
                raise ValueError(f"syndrome vertex {(q, t)} outside the graph")
            ids.add(t * n_c + q)
        return ids

    @property
    def matching_index(self) -> MatchingIndex:
        """Built on first use: parallel edges collapse to their lightest one,
        and one Dijkstra from a virtual boundary node, seeded through the
        half-edges, gives every vertex its boundary distance and the next
        edge of a shortest path to the boundary (``inf`` and ``(-1, -1)``
        where no half-edge is reachable).  Each adjacency entry also carries
        ``bdist[neighbour] - weight``."""
        if self._matching_index is not None:
            return self._matching_index
        n_v, n_e = self.rounds * self.n_checks, self.n_full_edges
        ends = self.ends.tolist()
        weight = list(map(_weight, self.probability.tolist()))
        lightest: dict[tuple[int, int], tuple[float, int]] = {}
        for eid, (a, b) in enumerate(ends[:n_e]):
            w = weight[eid]
            if a > b:
                a, b = b, a
            if (a, b) not in lightest or w < lightest[a, b][0]:
                lightest[a, b] = (w, eid)
        adj: list[list[tuple[int, float, int]]] = [[] for _ in range(n_v)]
        for (a, b), (w, eid) in lightest.items():
            adj[a].append((b, w, eid))
            adj[b].append((a, w, eid))

        bdist = [math.inf] * n_v
        bstep = [(-1, -1)] * n_v
        heap = []
        for eid in range(n_e, self.n_edges):
            a = ends[eid][0]
            bdist[a] = weight[eid]
            bstep[a] = (-1, eid)
            heap.append((bdist[a], a))
        heapq.heapify(heap)
        while heap:
            d, a = heapq.heappop(heap)
            if d > bdist[a]:
                continue
            for b, w, eid in adj[a]:
                if d + w < bdist[b]:
                    bdist[b] = d + w
                    bstep[b] = (a, eid)
                    heapq.heappush(heap, (d + w, b))
        adj = tuple(tuple((b, w, eid, bdist[b] - w) for b, w, eid in nbrs) for nbrs in adj)
        self._matching_index = MatchingIndex(adj, bdist, bstep)
        return self._matching_index

    @property
    def int_view(self) -> IntView:
        """Built on first use, so graph construction does not pay for it."""
        if self._int_view is None:
            n_v, n_e = self.rounds * self.n_checks, self.n_full_edges
            lo, hi = np.sort(self.ends[:n_e], axis=1).T
            order = np.argsort(lo, kind="stable")
            start = np.searchsorted(lo[order], np.arange(n_v + 1))
            half = np.full(n_v, -1, dtype=np.int64)
            half[self.ends[n_e:, 0]] = np.arange(n_e, self.n_edges)
            self._int_view = IntView(n_v, start, hi[order], order, half)
        return self._int_view

    @property
    def scalar_view(self) -> ScalarView:
        """Built on the first one-syndrome decode: the block kernels never
        read it."""
        if self._scalar_view is None:
            view = self.int_view
            edge_ends = self.ends.tolist()
            adj: list[list[tuple[int, int]]] = [[] for _ in range(view.n_v)]
            with _collector_paused():
                for eid, (a, b) in enumerate(edge_ends[: self.n_full_edges]):
                    adj[a].append((b, eid))
                    adj[b].append((a, eid))
            self._scalar_view = ScalarView(adj, view.half.tolist(), edge_ends)
        return self._scalar_view

    # --- fault mapping -----------------------------------------------------

    def syndrome_of_faults(self, events: Iterable[FaultEvent]) -> Syndrome:
        """Defect set of one trial's fault list: a one-trial view of
        ``block_syndromes``."""
        return self.key_syndromes(self.block_syndromes(self._event_block(events))[0], [0])[0]

    def block_syndromes(self, faults: FaultBlock) -> tuple[np.ndarray, np.ndarray]:
        """The defects of a fault block as sorted int64 keys ``trial * n_v +
        vertex id`` (see ``DecodingGraph``), and per trial its logical-flip mask.

        Every fault places its template's detectors at its round; those
        outside the window are clipped, and a vertex is a defect when an odd
        number of its trial's faults place it.  The block's entries must
        come from this graph's census, as ``FaultSampler`` draws them.
        """
        table = self._fault_table
        n_v = self.rounds * self.n_checks
        row = faults.location * table.width + faults.choice
        # vertex id round * n_checks + check: with 0 <= check < n_checks, the
        # window's rounds are one range of ids
        vid = (faults.round * self.n_checks)[:, None] + table.offset[row]
        keep = (vid >= int(self.drop_initial) * self.n_checks) & (vid < n_v)
        obs = np.zeros(faults.trials, dtype=np.int64)
        np.bitwise_xor.at(obs, faults.trial, table.obs[row])
        return _odd_keys((faults.trial[:, None] * n_v + vid)[keep]), obs

    def edge_syndromes(
        self, trial: np.ndarray, edge: np.ndarray, trials: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``block_syndromes`` for per-trial edge sets, given as parallel
        (trial, edge id) arrays: the keys of the vertices an odd number of a
        trial's edges touch, and the XOR of their logical-flip masks."""
        ends = self.ends[edge]
        key = (trial[:, None] * (self.rounds * self.n_checks) + ends)[ends >= 0]
        obs = np.zeros(trials, dtype=np.int64)
        np.bitwise_xor.at(obs, trial, self.obs[edge])
        return _odd_keys(key), obs

    def key_syndromes(self, keys: np.ndarray, trials: Iterable[int]) -> list[Syndrome]:
        """The defect sets of the given trials of a block's sorted keys."""
        n_c, n_v = self.n_checks, self.rounds * self.n_checks
        first = np.asarray(trials, dtype=np.int64) * n_v
        cut = np.searchsorted(keys, np.stack([first, first + n_v], axis=1))
        out = []
        for a, b in cut.tolist():
            vid = keys[a:b] % n_v
            out.append(Syndrome(frozenset(zip((vid % n_c).tolist(), (vid // n_c).tolist()))))
        return out

    def _event_block(self, events: Iterable[FaultEvent]) -> FaultBlock:
        """A fault list as a one-trial block; rejects faults off the census."""
        table, rows = self._fault_table, []
        for t, loc, choice in events:
            row = loc.index * table.width + choice
            if not (0 <= choice < table.width and 0 <= row < table.obs.size) \
                    or table.obs[row] == _NO_OBS:
                raise ValueError(f"unknown fault location {loc}")
            rows.append((t, loc.index, choice))
        t, loc, choice = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        return FaultBlock(1, np.zeros(t.size, dtype=np.int64), t, loc, choice)

    def correction_syndrome(self, edge_ids: Iterable[int]) -> frozenset[Vertex]:
        ends, acc = self.scalar_view.edge_ends, set()
        for eid in edge_ids:
            a, b = ends[eid]
            acc.symmetric_difference_update((a,) if b < 0 else (a, b))
        n_c = self.n_checks
        return frozenset((v % n_c, v // n_c) for v in acc)

    def obs_of_faults(self, events: Iterable[FaultEvent]) -> int:
        """Logical-flip bitmask of a fault list (XOR of per-fault flips): a
        one-trial view of ``block_syndromes``."""
        return int(self.block_syndromes(self._event_block(events))[1][0])

    def obs_of_edges(self, edge_ids: Iterable[int]) -> int:
        return int(np.bitwise_xor.reduce(self.obs[np.fromiter(edge_ids, np.int64)]))

    # --- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        def v_entry(v):
            x, y, t = self.coord(v)
            return {"check": v[0], "x": x, "y": y, "t": t}

        return {
            "basis": self.basis.value,
            "rounds": self.rounds,
            "n_checks": self.n_checks,
            "vertices": [v_entry(v) for v in self.vertices()],
            "edges": [
                {
                    "u": list(e.u),
                    "v": list(e.v) if e.v is not None else None,
                    "probability": e.probability,
                    "weight": e.weight,
                    "kind": e.kind,
                }
                for e in (*self.edges, *self.half_edges)
            ],
            "obs_conflicts": self.obs_conflicts,
            "invisible_obs_faults": self.invisible_obs_faults,
            "edge_counts": dict(zip(_KINDS, np.bincount(self.kind, minlength=len(_KINDS)).tolist())),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _edge_kind(u: Vertex, v: Vertex) -> int:
    """The ``_KINDS`` index of the edge joining ``u`` and ``v``."""
    if u[0] == v[0]:
        return 1   # time
    if u[1] == v[1]:
        return 0   # space
    return 2       # diagonal


_KINDS = ("space", "time", "diagonal", "boundary", "time_boundary")
_SCAN_RANK = np.array([0, 1, 2, 0, 1])   # per kind: space, then time, then diagonal


def _scan_order(ends: np.ndarray, kind: np.ndarray, centers: list[tuple[int, int]]) -> np.ndarray:
    """The canonical scan order of edges given as vertex ids: (round, y, x)
    of the smaller endpoint, then direction class (space before time before
    diagonal), then the other endpoint; edges before half-edges."""
    n_c = len(centers)
    yx = np.empty(n_c, dtype=np.int64)
    yx[np.lexsort(np.array(centers).T)] = np.arange(n_c)
    s = ends // n_c * n_c + yx[ends % n_c]   # ids ranked as (round, y, x)
    half = ends[:, 1] < 0
    lo, hi = s.min(axis=1), s.max(axis=1)
    return np.lexsort((np.where(half, -1, hi), _SCAN_RANK[kind], np.where(half, s[:, 0], lo), half))


def _weight(p: float) -> float:
    return math.log((1.0 - p) / p) if 0.0 < p < 1.0 else math.inf


# --- GF(2) Pauli-frame propagation -----------------------------------------


class _Step(NamedTuple):
    """One timestep of the extraction round as index arrays."""

    prep: np.ndarray
    ctl: np.ndarray      # CNOT controls, paired with ``tgt``
    tgt: np.ndarray
    meas: np.ndarray     # rows (frame read, ancilla, plaquette); a Z-basis
                         # outcome reads the X frame (0), an X-basis one Z (1)


@lru_cache(maxsize=16)
def _circuit_steps(schedule: CircuitSchedule) -> tuple[_Step, ...]:
    def arr(rows, width):
        return np.array(rows, dtype=np.intp).reshape(-1, width).T

    return tuple(
        _Step(
            np.array([ev.qubit for ev in events if isinstance(ev, PrepAncilla)], dtype=np.intp),
            *arr([(ev.control, ev.target) for ev in events if isinstance(ev, Cnot)], 2),
            arr([(int(ev.basis is CheckBasis.X), ev.qubit, ev.plaquette)
                 for ev in events if isinstance(ev, MeasureAncilla)], 3),
        )
        for events in schedule.steps
    )


def _replay(schedule: CircuitSchedule, rounds: int, width: int, inject: dict):
    """Propagate ``width`` Pauli-frame columns, bit-packed (column ``c`` is
    bit ``c % 64`` of word ``c // 64``), through ``rounds`` clean rounds.

    ``inject[(round, step)]`` lists the ``(target, row, column)`` bits that
    faults flip right after that step, in the X frame (0), the Z frame (1) or
    the round's measurement record (2).  Returns the final X and Z frames,
    ``(2, n_qubits, words)``, and the record, ``(rounds, n_plaquettes, words)``.
    """
    layout = schedule.layout
    words = (width + 63) // 64
    frame = np.zeros((2, layout.n_qubits, words), dtype=np.uint64)
    record = np.zeros((rounds, layout.n_plaquettes, words), dtype=np.uint64)
    # Before the first fault every frame is zero, and so is every record.
    for t in range(min((t for t, _ in inject), default=rounds), rounds):
        for step, ops in enumerate(_circuit_steps(schedule)):
            if ops.prep.size:
                frame[:, ops.prep] = 0
            if ops.ctl.size:
                frame[0, ops.tgt] ^= frame[0, ops.ctl]
                frame[1, ops.ctl] ^= frame[1, ops.tgt]
            if ops.meas.size:
                record[t, ops.meas[2]] = frame[ops.meas[0], ops.meas[1]]
            for target, row, col in inject.get((t, step), ()):
                bits = record[t] if target == 2 else frame[target]
                bits[row, col >> 6] ^= np.uint64(1 << (col & 63))
    return frame, record


def _set_bits(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of every set bit of a 2D bit-packed uint64 array."""
    rows, words = np.nonzero(packed)
    bits = np.unpackbits(
        packed[rows, words].astype("<u8").view(np.uint8), bitorder="little"
    ).reshape(-1, 64)
    hit, bit = np.nonzero(bits)
    return rows[hit], words[hit] * 64 + bit


def simulate_window(
    layout: CodeLayout,
    schedule: CircuitSchedule,
    rounds: int,
    faults: list[FaultEvent],
):
    """Direct circuit replay with the given faults, as one frame column.

    Returns per-basis raw syndrome bit arrays of shape ``(rounds, n_checks)``
    and the final (x, z) data frames.  Used to cross-validate the fault map.
    """
    inject: dict[tuple[int, int], list] = {}
    for ev in faults:
        bits = inject.setdefault((ev.round, ev.location.step), [])
        if ev.location.kind is LocationKind.MEAS:
            bits.append((2, ev.location.plaquette, 0))
        for q, *xz in fault_pauli_bits(ev.location, ev.choice):
            bits += [(k, q, 0) for k in (0, 1) if xz[k]]
    frame, record = _replay(schedule, rounds, 1, inject)
    raw = (record[:, :, 0] != 0).astype(np.uint8)
    s = {b: raw[:, [p.index for p in layout.checks(b)]] for b in CheckBasis}
    x_frame, z_frame = (frozenset(np.flatnonzero(f[: layout.n_data, 0]).tolist()) for f in frame)
    return s, x_frame, z_frame


def difference_syndrome(raw: np.ndarray, initial_round_zero: bool = True) -> Syndrome:
    """Defects of per-round raw syndrome bits: ``sbar(t) = s(t) xor s(t-1)``.

    With ``initial_round_zero`` (the default), the first round is forced to
    zero, i.e. round-0 information is discarded; otherwise ``sbar(0) = s(0)``.
    """
    raw = np.asarray(raw, dtype=np.uint8)
    if raw.ndim != 2 or raw.shape[0] < 1:
        raise ValueError("raw must be a (rounds, checks) bit array with >= 1 round")
    sbar = raw.copy()
    sbar[1:] ^= raw[:-1]
    if initial_round_zero:
        sbar[0] = 0
    ts, qs = np.nonzero(sbar)
    return Syndrome(frozenset((int(q), int(t)) for t, q in zip(ts, qs)))


def classify_defects(graph: DecodingGraph, syndrome: Syndrome) -> DefectClasses:
    """Split defects into bulk, boundary-adjacent and boundary-isolated sets."""
    ids, n_c, view = graph.vertex_ids(syndrome.defects), graph.n_checks, graph.scalar_view
    adjacent = [v for v in ids if view.half_ids[v] >= 0]
    isolated = [v for v in adjacent if all(u not in ids for u, _ in view.adj[v])]

    def vertices(vs):
        return frozenset((v % n_c, v // n_c) for v in vs)

    boundary_adjacent = vertices(adjacent)
    return DefectClasses(
        bulk=syndrome.defects - boundary_adjacent,
        boundary_adjacent=boundary_adjacent,
        boundary_isolated=vertices(isolated),
    )


def is_logical_failure(
    layout: CodeLayout,
    residual: Iterable[int],
    error_basis: CheckBasis = CheckBasis.Z,
) -> bool:
    """Whether a syndrome-free residual error acts as a logical operator.

    ``residual`` is the set of data qubits carrying an error of the given
    Pauli type.  Raises if the residual still triggers any check.
    """
    res = set(residual)
    detecting = CheckBasis.X if error_basis is CheckBasis.Z else CheckBasis.Z
    for plq in layout.checks(detecting):
        if len(res & set(plq.support)) % 2 != 0:
            raise ValueError("residual error has a non-trivial syndrome")
    return any(len(res & rep) % 2 == 1 for rep in layout.logical_supports(error_basis))


# --- graph builders ---------------------------------------------------------


def _kind_table(sector: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Per location kind, in ``LocationKind`` order: for each choice the
    bitmask of the positions in ``loc.qubits`` whose Pauli has a generator in
    ``sector`` (-1 past the kind's choices; a measurement flip has one
    generator, its own), and ``1 - 2 p_choice``, the factor a choice adds to
    the XOR rule's product."""
    probes = [FaultLocation(0, kind, 0, (0, 1) if kind is LocationKind.CNOT else (0,))
              for kind in LocationKind]
    masks = np.full((len(probes), max(loc.n_choices for loc in probes)), -1, dtype=np.int64)
    for k, loc in enumerate(probes):
        for choice in range(loc.n_choices):
            masks[k, choice] = sum(1 << i for i, *xz in fault_pauli_bits(loc, choice) if xz[sector])
        if loc.kind is LocationKind.MEAS:
            masks[k, 0] = 1
    factor = np.array([1.0 - 2.0 * (loc.fault_probability(p) / loc.n_choices) for loc in probes])
    return masks, factor


def _ordered_products(group: np.ndarray, factor: np.ndarray, n_groups: int) -> np.ndarray:
    """Per group, the product of its ``factor`` entries, multiplied one at a
    time in array order as the scalar XOR rule does (``np.multiply.reduceat``
    promises no order).  Groups hold at most a few dozen entries."""
    order = np.argsort(group, kind="stable")
    size = np.bincount(group, minlength=n_groups)
    start = np.cumsum(size) - size
    pi = np.ones(n_groups)
    for k in range(int(size.max(initial=0))):
        g = np.flatnonzero(size > k)
        pi[g] *= factor[order[start[g] + k]]
    return pi


def build_decoding_graph(
    layout: CodeLayout,
    schedule: CircuitSchedule,
    rounds: int,
    noise: NoiseParams,
    basis: CheckBasis = CheckBasis.X,
    *,
    drop_initial: bool = True,
    noisy_rounds: int | None = None,
) -> DecodingGraph:
    """Build the space-time decoding graph for one check basis.

    ``rounds`` is the number of detector rounds; faults are placed in rounds
    ``[0, noisy_rounds)`` (default: all of them).  With ``drop_initial`` the
    first round's difference syndrome is forced to zero, so round-0 detectors
    never fire; logical-error experiments instead build a closed window with
    ``drop_initial=False`` and one trailing noiseless round.
    """
    if noise.mode is not NoiseMode.CIRCUIT_LEVEL:
        raise ValueError("circuit-level noise required to build a space-time graph")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    noisy = rounds if noisy_rounds is None else noisy_rounds
    if not 0 <= noisy <= rounds:
        raise ValueError("noisy_rounds must lie in [0, rounds]")

    census = round_census(schedule)
    logicals = layout.logical_supports(
        CheckBasis.Z if basis is CheckBasis.X else CheckBasis.X
    )
    mini = 4

    # Propagate the X and Z unit generator of every (step, qubit) fault site,
    # column ``step * n_qubits + qubit``, through ``mini`` rounds in one pass.
    # A measurement site's column flips its record bit instead.
    n_q = layout.n_qubits
    inject: dict[tuple[int, int], list] = {}
    for loc in census:
        bits = inject.setdefault((0, loc.step), [])
        for q in loc.qubits:
            col = loc.step * n_q + q
            meas = loc.kind is LocationKind.MEAS
            bits += [(2, loc.plaquette, col)] if meas else [(0, q, col), (1, q, col)]
    frame, record = _replay(schedule, mini, len(schedule.steps) * n_q, inject)

    # Difference-syndrome flips of each generator in this basis, with
    # s(-1) = 0, and its logical-flip mask from the final frame.  X checks
    # see only the Z frame (sector 1), Z checks only the X frame (sector 0).
    # A detector is keyed ``check * mini + dt``, so keys sort as (check, dt).
    sector = 1 if basis is CheckBasis.X else 0
    checks = layout.checks(basis)
    n_c, n_key = len(checks), len(checks) * mini
    raw = record[:, [p.index for p in checks]].transpose(1, 0, 2)
    diff = raw.copy()
    diff[:, 1:] ^= raw[:, :-1]
    det, col = _set_bits(diff.reshape(n_key, -1))
    by_col = np.argsort(col, kind="stable")
    det, col = det[by_col], col[by_col]
    parity = np.array([np.bitwise_xor.reduce(frame[sector, sorted(rep)]) for rep in logicals])
    parity = np.unpackbits(parity.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    gen_obs = (parity.T.astype(np.int64) << np.arange(len(logicals))).sum(axis=1)
    del inject, frame, record, raw, diff   # before the templates grow: peak memory

    # Fault templates.  A choice's detectors and logical flip depend only on
    # which of its site's qubits carry a generator of this sector (its
    # carrier set), so they are taken once per used (location, carrier set)
    # combination: the detectors its carriers' columns flip an odd number of
    # times, and the XOR of their masks.  Rows (location, choice) run in
    # census then choice order, as ``location * width + choice``.
    kind_id = {kind: k for k, kind in enumerate(LocationKind)}
    # per location: its kind, and the generator columns of its first and last qubit
    site = np.array([(kind_id[loc.kind], loc.step * n_q + loc.qubits[0],
                      loc.step * n_q + loc.qubits[-1]) for loc in census],
                    dtype=np.int64).reshape(-1, 3)
    masks, factor = _kind_table(sector, noise.p)
    width = masks.shape[1]
    row_mask = masks[site[:, 0]].ravel()
    row = np.flatnonzero(row_mask >= 0)
    loc_of = row // width
    combos, combo = np.unique(loc_of * 4 + row_mask[row], return_inverse=True)
    j, m = combos >> 2, combos & 3
    part = [np.flatnonzero(m & 1), np.flatnonzero(m & 2)]   # carriers at positions 0, 1
    owner = np.concatenate(part)
    gen = np.concatenate([site[j[part[0]], 1], site[j[part[1]], 2]])
    lo = np.searchsorted(col, gen)
    n = np.searchsorted(col, gen, "right") - lo
    taken = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())   # each column's entries
    odd = _odd_keys(np.repeat(owner, n) * n_key + det[taken])
    odd_owner, key = odd // n_key, odd % n_key
    n_det = np.bincount(odd_owner, minlength=combos.size)
    late = np.bincount(odd_owner[key % mini > 2], minlength=combos.size)
    bad = (n_det > 2) | (late > 0)
    if bad.any():
        first_bad = np.flatnonzero(bad[combo])[0]
        loc = census[loc_of[first_bad]]
        what = combo[first_bad]
        effect = (f"triggers {n_det[what]} detectors of basis {basis.value}" if n_det[what] > 2
                  else f"did not settle within two rounds in basis {basis.value}")
        raise ScheduleError(f"fault {loc.kind.value}@step{loc.step} qubits {loc.qubits} {effect}")
    first_key = np.searchsorted(odd_owner, np.arange(combos.size))
    key = np.append(key, [-1, -1])
    pair = np.stack([np.where(n_det > 0, key[first_key], -1),       # a combination's detectors,
                     np.where(n_det > 1, key[first_key + 1], -1)], axis=1)   # sorted; -1 if absent
    c_obs = np.where(m & 1, gen_obs[site[j, 1]], 0) ^ np.where(m & 2, gen_obs[site[j, 2]], 0)

    offset = np.full((len(census) * width, 2), _ABSENT, dtype=np.int64)
    offset[row] = np.where(pair >= 0, pair % mini * n_c + pair // mini, _ABSENT)[combo]
    row_obs = c_obs[combo]
    table_obs = np.full(len(census) * width, _NO_OBS, dtype=np.int64)
    table_obs[row] = row_obs

    # Merge rows by detection pattern, patterns numbered in order of first
    # appearance.  Each pattern's product takes its rows in order; the empty
    # pattern's probability is never used, so it skips the product.
    pcode = (pair[:, 0] + 1) * (n_key + 1) + pair[:, 1] + 1
    _, first_row, inverse = np.unique(pcode[combo], return_index=True, return_inverse=True)
    by_first = np.argsort(first_row)
    pid = np.empty_like(by_first)
    pid[by_first] = np.arange(by_first.size)
    row_pid = pid[inverse]
    n_pat, first_row = by_first.size, first_row[by_first]
    pk = pair[combo[first_row]]   # each pattern's detectors
    pat_obs = row_obs[first_row]
    pat_conflict = np.zeros(n_pat, dtype=bool)
    pat_conflict[row_pid[row_obs != pat_obs[row_pid]]] = True
    visible = pk[row_pid, 0] >= 0
    pi = _ordered_products(row_pid[visible], factor[site[loc_of[visible], 0]], n_pat)
    pat_factor = 1.0 - 2.0 * ((1.0 - pi) / 2.0)   # as the scalar rule adds p_pattern

    # Place the patterns in every noisy round, round-major then in pattern
    # order, clipping at the window boundaries.  A vertex is coded
    # ``check * rounds + round``, so codes sort as (check, round) tuples and
    # a pattern's kept vertices stay in order: the first is the edge's u.
    first = int(drop_initial)
    t = np.arange(noisy)[:, None]

    def place(k):
        r = t + k % mini
        return np.where((k >= 0) & (r >= first) & (r < rounds), k // mini * rounds + r, -1).ravel()

    a, b = place(pk[:, 0]), place(pk[:, 1])
    u, v = np.where(a >= 0, a, b), np.where(a >= 0, b, -1)
    pat = np.tile(np.arange(n_pat), noisy)
    seen = u >= 0
    invisible_obs = int(np.count_nonzero(pat_obs[pat[~seen]]))
    n_v = n_c * rounds
    u, v, pat = u[seen], v[seen], pat[seen]
    ends, first_place, edge = np.unique(u * (n_v + 1) + v + 1, return_index=True, return_inverse=True)
    pi = _ordered_products(edge, pat_factor[pat], ends.size)
    prob = (1.0 - pi) / 2.0
    # Merged faults may disagree on the logical flip (e.g. a boundary
    # half-edge reachable from either side).  The edge keeps the parity of
    # its representative fault; a disagreeing fault then correctly shows up
    # as a logical failure of the window.
    obs = pat_obs[pat[first_place]]
    conflict = np.zeros(ends.size, dtype=bool)
    conflict[edge[pat_conflict[pat] | (pat_obs[pat] != obs[edge])]] = True
    spatial = np.zeros(ends.size, dtype=bool)   # a half-edge of a one-detector pattern
    spatial[edge[(v < 0) & (pk[pat, 1] < 0)]] = True

    u, v = ends // (n_v + 1), ends % (n_v + 1) - 1
    half = v < 0
    kind = np.where(half, np.where(spatial, 3, 4),
                    np.where(u // rounds == v // rounds, 1, np.where(u % rounds == v % rounds, 0, 2)))
    ends = np.stack([u, v], axis=1)
    ends = np.where(ends >= 0, ends % rounds * n_c + ends // rounds, -1)   # codes to vertex ids
    order = _scan_order(ends, kind, [p.center for p in checks])
    return DecodingGraph(
        layout,
        basis,
        rounds,
        ends[order],
        prob[order],
        kind[order],
        obs[order],
        fault_table=_FaultTable(width, offset, table_obs),
        census=census,
        drop_initial=drop_initial,
        noisy_rounds=noisy,
        obs_conflicts=int(np.count_nonzero(conflict)),
        invisible_obs_faults=invisible_obs,
    )


def make_graph(
    edge_pairs: Iterable[tuple[Vertex, Vertex]],
    half_vertices: Iterable[Vertex] = (),
    *,
    n_checks: int | None = None,
    rounds: int | None = None,
    p: float = 0.01,
    centers: list[tuple[int, int]] | None = None,
) -> DecodingGraph:
    """Assemble a decoding graph from explicit edges, for small hand-built
    instances.  Edges keep the given order as the canonical scan order.
    ``n_checks`` and ``rounds`` default to the smallest that hold every
    vertex (one round for a graph without any)."""
    edge_pairs = list(edge_pairs)
    half_vertices = list(half_vertices)
    all_vs = {v for uv in edge_pairs for v in uv} | set(half_vertices)
    if n_checks is None:
        n_checks = max((v[0] for v in all_vs), default=-1) + 1
    if rounds is None:
        rounds = max((v[1] for v in all_vs), default=0) + 1
    if centers is None:
        centers = [(q, 0) for q in range(n_checks)]

    def vid(v: Vertex) -> int:
        q, t = v
        if not (0 <= q < n_checks and 0 <= t < rounds):
            raise ValueError(f"edge vertex {(q, t)} outside {n_checks} checks x {rounds} rounds")
        return t * n_checks + q

    ends = [(vid(min(u, v)), vid(max(u, v))) for u, v in edge_pairs]
    ends += [(vid(v), -1) for v in half_vertices]
    kind = [_edge_kind(u, v) for u, v in edge_pairs] + [3] * len(half_vertices)   # 3: boundary
    return DecodingGraph(None, CheckBasis.X, rounds, ends, [p] * len(ends), kind, [0] * len(ends),
                         drop_initial=False, centers=centers)


def build_perfect_graph(
    layout: CodeLayout,
    noise: NoiseParams,
    basis: CheckBasis = CheckBasis.X,
) -> DecodingGraph:
    """Single-slice graph for the perfect-measurement mode: each data qubit is
    an edge between the checks of ``basis`` that see it."""
    if noise.mode is not NoiseMode.PERFECT_MEASUREMENT:
        raise ValueError("perfect-measurement noise required")
    checks = layout.checks(basis)
    membership: dict[int, list[int]] = {}
    for plq in checks:
        for q in plq.support:
            membership.setdefault(q, []).append(plq.basis_index)
    logicals = layout.logical_supports(
        CheckBasis.Z if basis is CheckBasis.X else CheckBasis.X
    )
    p = noise.p
    masks: dict[tuple[int, ...], list[int]] = {}   # checks seeing a qubit -> logical masks
    for q in range(layout.n_data):
        plqs = membership.get(q, [])
        if len(plqs) not in (1, 2):
            raise AssertionError(f"data qubit {q} invisible to basis {basis.value}")
        masks.setdefault(tuple(sorted(plqs)), []).append(
            sum(1 << i for i, rep in enumerate(logicals) if q in rep))
    # Qubits seen by exactly the same checks (pairs of boundary qubits of the
    # rotated layout) merge into one edge by the XOR rule; a lone qubit keeps
    # p exactly.
    ends, probability, obs, conflicts = [], [], [], 0
    for seen_by, qubit_obs in masks.items():
        pi = 1.0   # the XOR rule's product, one factor per qubit
        for _ in qubit_obs:
            pi *= 1.0 - 2.0 * p
        probability.append(p if len(qubit_obs) == 1 else (1.0 - pi) / 2.0)
        conflicts += any(mask != qubit_obs[0] for mask in qubit_obs)
        obs.append(qubit_obs[0])
        ends.append((seen_by[0], seen_by[1] if len(seen_by) == 2 else -1))   # round 0: id = check
    ends = np.array(ends, dtype=np.int64).reshape(-1, 2)
    kind = np.where(ends[:, 1] < 0, 3, 0)   # boundary or space
    centers = [plq.center for plq in checks]
    order = _scan_order(ends, kind, centers)
    return DecodingGraph(
        layout,
        basis,
        1,
        ends[order],
        np.array(probability)[order],
        kind[order],
        np.array(obs, dtype=np.int64)[order],
        drop_initial=False,
        obs_conflicts=conflicts,
        centers=centers,
    )
