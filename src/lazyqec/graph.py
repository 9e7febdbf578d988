"""Space-time decoding graphs built by symbolic fault propagation.

Vertices are syndrome locations ``(check_index, round)`` for one check basis.
One bit-packed GF(2) frame kernel propagates the X and Z generator of every
fault site; a fault's detection pattern in this basis (at most two flipped
difference-syndrome locations), the XOR of its generators', becomes an edge
or a half-edge.  Faults sharing a detection pattern are merged with the
XOR-aware rule ``p_e = (1 - prod_i (1 - 2 p_i)) / 2`` and carry weight
``w_e = ln((1 - p_e) / p_e)``.

The same machinery yields the 2D graph of the perfect-measurement mode, where
edges are simply data qubits joining the one or two checks that see them.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
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


@dataclass(frozen=True)
class Edge:
    u: Vertex
    v: Vertex | None           # None: half-edge to the boundary
    probability: float
    weight: float
    kind: str                  # space | time | diagonal | boundary | time_boundary
    obs: int | None            # logical-flip bitmask of the representative fault

    @property
    def is_half(self) -> bool:
        return self.v is None


class MatchingIndex(NamedTuple):
    """Integer view of a graph for shortest-path searches."""

    vid: dict[Vertex, int]                          # ids follow sorted vertex order
    adj: tuple[tuple[tuple[int, float, int], ...], ...]  # (neighbour, weight, eid)
    bdist: list[float]                              # distance to the boundary
    bstep: list[tuple[int, int]]                    # (next id or -1, eid) toward it


class IntView(NamedTuple):
    """Integer view of a graph for the block kernels.  Vertex ``(check,
    round)`` has id ``round * n_checks + check``, so ids sort as (round,
    check); edge ids are the graph's."""

    n_v: int                    # rounds * n_checks
    start: np.ndarray           # (n_v + 1,) CSR offsets into ``nbr`` and ``nbr_edge``
    nbr: np.ndarray             # the larger end of each edge at its smaller end;
                                # parallel edges kept
    nbr_edge: np.ndarray        # the edge id of that entry
    half: np.ndarray            # (n_v,) half-edge id, or -1
    ends: np.ndarray            # (n_edges, 2) endpoint ids; -1 as a half-edge's second end
    obs: np.ndarray             # (n_edges,) logical-flip mask, ``_NO_OBS`` for ``obs=None``


_NO_OBS = -1


class _FaultTable(NamedTuple):
    """Flat fault map: row ``location * width + choice`` lists at most two
    detectors, each as the vertex id ``dt * n_checks + check`` relative to the
    fault's round; an absent one holds ``_ABSENT``, past every window."""

    width: int
    offset: np.ndarray          # (rows, 2)
    obs: np.ndarray             # (rows,) logical-flip mask


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


class DecodingGraph:
    """Immutable after construction; shared read-only by decoder workers."""

    def __init__(
        self,
        layout: CodeLayout | None,
        basis: CheckBasis,
        rounds: int,
        edges: list[Edge],
        half_edges: list[Edge],
        template: dict[tuple[int, int], tuple[tuple[int, int], ...]] | None = None,
        template_obs: dict[tuple[int, int], int] | None = None,
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
        self.n_checks = len(centers)
        self.edges = tuple(edges)
        self.half_edges = tuple(half_edges)
        self._template = template or {}
        self._template_obs = template_obs or {}
        self.census = census
        self.drop_initial = drop_initial
        self.noisy_rounds = rounds if noisy_rounds is None else noisy_rounds
        self.obs_conflicts = obs_conflicts
        self.invisible_obs_faults = invisible_obs_faults

        self._centers = centers
        self.neighbors: dict[Vertex, list[tuple[Vertex, int]]] = {}
        self.edge_id_by_key: dict[tuple, int] = {}
        for eid, e in enumerate(self.edges):
            u, v = e.u, e.v
            self.neighbors.setdefault(u, []).append((v, eid))
            self.neighbors.setdefault(v, []).append((u, eid))
            self.edge_id_by_key[(u, v) if u <= v else (v, u)] = eid
        self.half_edge_id: dict[Vertex, int] = {}
        for i, e in enumerate(self.half_edges):
            eid = len(self.edges) + i
            if e.u in self.half_edge_id:
                # the decoders reach the boundary through one half-edge per vertex
                raise ValueError(f"two half-edges at vertex {e.u}")
            self.half_edge_id[e.u] = eid
            self.edge_id_by_key[(e.u,)] = eid
        # Declared here, filled on first use: on CPython 3.11 an attribute
        # added after __init__ slows every attribute read on the graph, and
        # lazy decoding ran about 7% slower with it.
        self._matching_index: MatchingIndex | None = None
        self._fault_table: _FaultTable | None = None
        self._int_view: IntView | None = None

    # --- basic accessors ---------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges) + len(self.half_edges)

    def edge(self, eid: int) -> Edge:
        if eid < len(self.edges):
            return self.edges[eid]
        return self.half_edges[eid - len(self.edges)]

    def vertices(self) -> Iterable[Vertex]:
        for t in range(self.rounds):
            for q in range(self.n_checks):
                yield (q, t)

    def coord(self, v: Vertex) -> tuple[int, int, int]:
        x, y = self._centers[v[0]]
        return (x, y, v[1])

    def neighbor_set(self, v: Vertex) -> set[Vertex]:
        return {u for u, _ in self.neighbors.get(v, ())}

    @property
    def matching_index(self) -> MatchingIndex:
        """Built on first use: parallel edges collapse to their lightest one,
        and one Dijkstra from a virtual boundary node, seeded through
        ``half_edge_id``, gives every vertex its boundary distance and the
        next edge of a shortest path to the boundary (``inf`` and ``(-1, -1)``
        where no half-edge is reachable)."""
        if self._matching_index is not None:
            return self._matching_index
        verts = sorted({v for e in self.edges for v in (e.u, e.v)} | self.half_edge_id.keys())
        vid = {v: i for i, v in enumerate(verts)}
        lightest: dict[tuple[int, int], tuple[float, int]] = {}
        for eid, e in enumerate(self.edges):
            a, b = sorted((vid[e.u], vid[e.v]))
            if (a, b) not in lightest or e.weight < lightest[a, b][0]:
                lightest[a, b] = (e.weight, eid)
        adj: list[list[tuple[int, float, int]]] = [[] for _ in verts]
        for (a, b), (w, eid) in lightest.items():
            adj[a].append((b, w, eid))
            adj[b].append((a, w, eid))

        bdist = [math.inf] * len(verts)
        bstep = [(-1, -1)] * len(verts)
        heap = []
        for v, heid in self.half_edge_id.items():
            a = vid[v]
            bdist[a] = self.half_edges[heid - len(self.edges)].weight
            bstep[a] = (-1, heid)
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
        self._matching_index = MatchingIndex(vid, tuple(map(tuple, adj)), bdist, bstep)
        return self._matching_index

    @property
    def int_view(self) -> IntView:
        """Built on first use, so graph construction does not pay for it."""
        if self._int_view is not None:
            return self._int_view
        n_c, n_e = self.n_checks, len(self.edges)
        n_v = self.rounds * n_c
        all_edges = self.edges + self.half_edges

        def ids(vertices, n):   # (check, round) pairs, flattened, to vertex ids
            qt = np.fromiter(chain.from_iterable(vertices), np.int64, 2 * n).reshape(-1, 2)
            return qt[:, 1] * n_c + qt[:, 0]

        ends = np.full((len(all_edges), 2), -1, dtype=np.int64)
        ends[:, 0] = ids((e.u for e in all_edges), len(all_edges))
        ends[:n_e, 1] = ids((e.v for e in self.edges), n_e)
        lo, hi = np.sort(ends[:n_e], axis=1).T
        order = np.argsort(lo, kind="stable")
        start = np.searchsorted(lo[order], np.arange(n_v + 1))
        half = np.full(n_v, -1, dtype=np.int64)
        half[ends[n_e:, 0]] = np.arange(n_e, len(all_edges))
        obs = np.fromiter((_NO_OBS if e.obs is None else e.obs for e in all_edges), np.int64,
                          len(all_edges))
        self._int_view = IntView(n_v, start, hi[order], order, half, ends, obs)
        return self._int_view

    # --- fault mapping -----------------------------------------------------

    def fault_vertices(self, event: FaultEvent) -> tuple[Vertex, ...]:
        """Defect pattern of a sampled fault, translated to its round and
        clipped at the window boundaries."""
        return tuple(sorted(self.syndrome_of_faults((event,)).defects))

    def syndrome_of_faults(self, events: Iterable[FaultEvent]) -> Syndrome:
        """Defect set of one trial's fault list: a one-trial view of
        ``block_syndromes``."""
        return self.key_syndromes(self.block_syndromes(self._event_block(events))[0], [0])[0]

    def block_syndromes(self, faults: FaultBlock) -> tuple[np.ndarray, np.ndarray]:
        """The defects of a fault block as sorted int64 keys ``trial * n_v +
        vertex id`` (see ``IntView``), and per trial its logical-flip mask.

        Every fault places its template's detectors at its round; those
        outside the window are clipped, and a vertex is a defect when an odd
        number of its trial's faults place it.  The block's entries must
        come from this graph's census, as ``FaultSampler`` draws them.
        """
        table = self._fault_table or self._build_fault_table()
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
        view = self.int_view
        ends = view.ends[edge]
        key = (trial[:, None] * view.n_v + ends)[ends >= 0]
        masks = view.obs[edge]
        if (masks == _NO_OBS).any():
            raise ValueError("edge has inconsistent logical bookkeeping")
        obs = np.zeros(trials, dtype=np.int64)
        np.bitwise_xor.at(obs, trial, masks)
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
        rows = []
        for t, loc, choice in events:
            if (loc.index, choice) not in self._template:
                raise ValueError(f"unknown fault location {loc}")
            rows.append((t, loc.index, choice))
        t, loc, choice = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        return FaultBlock(1, np.zeros(t.size, dtype=np.int64), t, loc, choice)

    def _build_fault_table(self) -> _FaultTable:
        """Built on first use from the template dicts."""
        width = max((c for _, c in self._template), default=-1) + 1
        rows = (max((j for j, _ in self._template), default=-1) + 1) * width
        offset = np.full((rows, 2), _ABSENT, dtype=np.int64)
        obs = np.zeros(rows, dtype=np.int64)
        for (j, c), pattern in self._template.items():
            for slot, (q, dt) in enumerate(pattern):
                offset[j * width + c, slot] = dt * self.n_checks + q
            obs[j * width + c] = self._template_obs[j, c]
        self._fault_table = _FaultTable(width, offset, obs)
        return self._fault_table

    def correction_syndrome(self, edge_ids: Iterable[int]) -> frozenset[Vertex]:
        acc: set[Vertex] = set()
        for eid in edge_ids:
            e = self.edge(eid)
            acc.symmetric_difference_update((e.u,) if e.v is None else (e.u, e.v))
        return frozenset(acc)

    def obs_of_faults(self, events: Iterable[FaultEvent]) -> int:
        """Logical-flip bitmask of a fault list (XOR of per-fault flips): a
        one-trial view of ``block_syndromes``."""
        return int(self.block_syndromes(self._event_block(events))[1][0])

    def obs_of_edges(self, edge_ids: Iterable[int]) -> int:
        mask = 0
        for eid in edge_ids:
            obs = self.edge(eid).obs
            if obs is None:
                raise ValueError("edge has inconsistent logical bookkeeping")
            mask ^= obs
        return mask

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
            "edge_counts": {k: sum(e.kind == k for e in self.edges + self.half_edges)
                            for k in _KIND_RANK},
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _edge_kind(u: Vertex, v: Vertex) -> str:
    if u[0] == v[0]:
        return "time"
    if u[1] == v[1]:
        return "space"
    return "diagonal"


_KIND_RANK = {"space": 0, "time": 1, "diagonal": 2, "boundary": 0, "time_boundary": 1}


def _sort_canonical(edges: list[Edge], centers: list[tuple[int, int]]) -> list[Edge]:
    """Fixed scan order: (t, y, x) of the smaller endpoint, then direction
    class (space before time before diagonal), then the other endpoint."""
    at = {yx: i for i, yx in enumerate(sorted({(y, x) for x, y in centers}))}
    rank = [at[y, x] for x, y in centers]   # (t, rank) orders vertices as (t, y, x)

    def key(e: Edge):
        a = (e.u[1], rank[e.u[0]])
        b = () if e.v is None else (e.v[1], rank[e.v[0]])
        return (a, _KIND_RANK[e.kind], b) if not b or a <= b else (b, _KIND_RANK[e.kind], a)

    return sorted(edges, key=key)


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


def faults_to_syndrome(graph: DecodingGraph, faults: Iterable[FaultEvent]) -> Syndrome:
    """Defect set of a fault list via the graph's fault map (incidence XOR)."""
    return graph.syndrome_of_faults(faults)


def classify_defects(graph: DecodingGraph, syndrome: Syndrome) -> DefectClasses:
    """Split defects into bulk, boundary-adjacent and boundary-isolated sets."""
    defects = syndrome.defects
    boundary_adjacent = frozenset(v for v in defects if v in graph.half_edge_id)
    boundary_isolated = frozenset(
        v for v in boundary_adjacent if not (graph.neighbor_set(v) & defects)
    )
    return DefectClasses(
        bulk=defects - boundary_adjacent,
        boundary_adjacent=boundary_adjacent,
        boundary_isolated=boundary_isolated,
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


class _EdgeAcc:
    __slots__ = ("pi", "obs", "has_spatial_half", "conflict")

    def __init__(self):
        self.pi = 1.0          # prod (1 - 2 p_i) over contributing faults
        self.obs = None
        self.has_spatial_half = False
        self.conflict = False

    def add(self, p: float, obs: int):
        self.pi *= 1.0 - 2.0 * p
        if self.obs is None:
            self.obs = obs
        elif self.obs != obs:
            self.conflict = True

    @property
    def probability(self) -> float:
        return (1.0 - self.pi) / 2.0


def _carriers(sector: int) -> dict[LocationKind, tuple[tuple[int, ...], ...]]:
    """Per location kind and choice, the positions in ``loc.qubits`` whose
    Pauli has a generator in ``sector``; a measurement flip has one, its own."""
    table = {}
    for kind in LocationKind:
        probe = FaultLocation(0, kind, 0, (0, 1) if kind is LocationKind.CNOT else (0,))
        table[kind] = tuple(
            tuple(i for i, *xz in fault_pauli_bits(probe, choice) if xz[sector])
            for choice in range(probe.n_choices)
        )
    table[LocationKind.MEAS] = ((0,),)
    return table


@contextmanager
def _collector_paused():
    """The build allocates some 10^5 acyclic objects; the cyclic collections
    they set off find nothing and took a third of a d=15 build."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
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
    # A detector is keyed ``check * mini + dt``, so keys sort as (check, dt);
    # the templates share one (check, dt) tuple per key.
    sector = 1 if basis is CheckBasis.X else 0
    checks = layout.checks(basis)
    raw = record[:, [p.index for p in checks]].transpose(1, 0, 2)
    det_of_key = [(q, dt) for q in range(len(checks)) for dt in range(mini)]
    diff = raw.copy()
    diff[:, 1:] ^= raw[:, :-1]
    detectors: dict[int, list[int]] = {}
    for key, col in zip(*(a.tolist() for a in _set_bits(diff.reshape(raw.shape[0] * mini, -1)))):
        detectors.setdefault(col, []).append(key)
    parity = np.array([np.bitwise_xor.reduce(frame[sector, sorted(rep)]) for rep in logicals])
    parity = np.unpackbits(parity.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    gen_obs = (parity.T.astype(np.int64) << np.arange(len(logicals))).sum(axis=1).tolist()
    del inject, frame, record, raw, diff   # before the templates grow: peak memory

    # Per-round fault templates in this basis, pre-merged by detection pattern.
    # A choice's pattern and logical flip depend only on which of the site's
    # qubits carry a generator of this sector, so each carrier set is
    # computed once; every choice still adds its own probability, in order.
    carriers = _carriers(sector)
    template: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    template_obs: dict[tuple[int, int], int] = {}
    merged: dict[tuple[tuple[int, int], ...], _EdgeAcc] = {}
    for loc in census:
        p_choice = loc.fault_probability(noise.p) / loc.n_choices
        cols = [loc.step * n_q + q for q in loc.qubits]
        seen: dict[tuple[int, ...], tuple] = {}
        for choice, carried in enumerate(carriers[loc.kind]):
            if carried not in seen:
                flips, obs = set(), 0
                for i in carried:
                    flips.symmetric_difference_update(detectors.get(cols[i], ()))
                    obs ^= gen_obs[cols[i]]
                pattern = tuple(det_of_key[key] for key in sorted(flips))
                if len(pattern) > 2:
                    raise ScheduleError(
                        f"fault {loc.kind.value}@step{loc.step} qubits {loc.qubits} "
                        f"triggers {len(pattern)} detectors of basis {basis.value}"
                    )
                if any(dt > 2 for _, dt in pattern):
                    raise ScheduleError("fault pattern did not settle within two rounds")
                seen[carried] = (pattern, obs, merged.setdefault(pattern, _EdgeAcc()))
            pattern, obs, acc = seen[carried]
            template[loc.index, choice] = pattern
            template_obs[loc.index, choice] = obs
            acc.add(p_choice, obs)
    del detectors, gen_obs

    # Place the templates in every noisy round, clipping at window boundaries.
    # A pattern lists its detectors in (check, dt) order, so its clipped,
    # translated vertices are already a sorted edge key; vertices are shared.
    first = int(drop_initial)
    vertex = [[(q, t) for t in range(rounds)] for q in range(len(checks))]
    placed = [(pattern, acc.probability, acc.obs or 0, acc.conflict, len(pattern) == 1)
              for pattern, acc in merged.items()]
    acc_by_key: dict[tuple, _EdgeAcc] = {}
    invisible_obs = 0
    for t in range(noisy):
        for pattern, p, obs, conflict, spatial in placed:
            key = tuple([vertex[q][t + dt] for q, dt in pattern if first <= t + dt < rounds])
            if not key:
                invisible_obs += obs != 0
                continue
            acc = acc_by_key.get(key)
            if acc is None:
                acc = acc_by_key[key] = _EdgeAcc()
            acc.add(p, obs)
            if conflict:
                acc.conflict = True
            if spatial and len(key) == 1:
                acc.has_spatial_half = True

    edges, half_edges, conflicts = [], [], 0
    for key, acc in acc_by_key.items():
        p_e = acc.probability
        if acc.conflict:
            # Merged faults disagree on the logical flip (e.g. a boundary
            # half-edge reachable from either side).  The edge keeps the
            # parity of its representative fault; a disagreeing fault then
            # correctly shows up as a logical failure of the window.
            conflicts += 1
        obs = acc.obs
        if len(key) == 2:
            u, v = key
            edges.append(Edge(u, v, p_e, _weight(p_e), _edge_kind(u, v), obs))
        else:
            kind = "boundary" if acc.has_spatial_half else "time_boundary"
            half_edges.append(Edge(key[0], None, p_e, _weight(p_e), kind, obs))

    centers = [p.center for p in checks]
    graph = DecodingGraph(
        layout,
        basis,
        rounds,
        _sort_canonical(edges, centers),
        _sort_canonical(half_edges, centers),
        template=template,
        template_obs=template_obs,
        census=census,
        drop_initial=drop_initial,
        noisy_rounds=noisy,
        obs_conflicts=conflicts,
        invisible_obs_faults=invisible_obs,
    )
    return graph


def make_graph(
    edge_pairs: Iterable[tuple[Vertex, Vertex]],
    half_vertices: Iterable[Vertex] = (),
    *,
    n_checks: int | None = None,
    rounds: int = 1,
    p: float = 0.01,
    centers: list[tuple[int, int]] | None = None,
) -> DecodingGraph:
    """Assemble a decoding graph from explicit edges, for small hand-built
    instances.  Edges keep the given order as the canonical scan order."""
    edge_pairs = list(edge_pairs)
    half_vertices = list(half_vertices)
    all_vs = {v for uv in edge_pairs for v in uv} | set(half_vertices)
    if n_checks is None:
        n_checks = max((v[0] for v in all_vs), default=-1) + 1
    if centers is None:
        centers = [(q, 0) for q in range(n_checks)]
    w = _weight(p)
    edges = [
        Edge(min(u, v), max(u, v), p, w, _edge_kind(u, v), 0)
        for u, v in edge_pairs
    ]
    halves = [Edge(v, None, p, w, "boundary", 0) for v in half_vertices]
    return DecodingGraph(
        None, CheckBasis.X, rounds, edges, halves, drop_initial=False, centers=centers
    )


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
    edges, half_edges, conflicts = [], [], 0
    for seen_by, obs in masks.items():
        p_e = p
        if len(obs) > 1:
            acc = _EdgeAcc()
            for mask in obs:
                acc.add(p, mask)
            p_e, conflicts = acc.probability, conflicts + acc.conflict
        if len(seen_by) == 2:
            edges.append(Edge((seen_by[0], 0), (seen_by[1], 0), p_e, _weight(p_e), "space", obs[0]))
        else:
            half_edges.append(Edge((seen_by[0], 0), None, p_e, _weight(p_e), "boundary", obs[0]))
    centers = [plq.center for plq in checks]
    return DecodingGraph(
        layout,
        basis,
        1,
        _sort_canonical(edges, centers),
        _sort_canonical(half_edges, centers),
        drop_initial=False,
        obs_conflicts=conflicts,
    )
