"""Surface-code and toric-code layouts and the scheduled syndrome-extraction circuit.

Coordinates use a doubled integer grid so that data qubits, ancilla qubits and
plaquette centers all sit on integer points.  For the rotated surface code,
data qubits occupy odd-odd points ``(2c+1, 2r+1)`` for ``c, r in [0, d)`` and
plaquette centers occupy even-even points.  For the 2D toric code, data qubits
sit on the edges of a ``d x d`` periodic square lattice (odd-even and even-odd
points modulo ``2d``), faces are Z-checks and vertices are X-checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class CodeKind(enum.Enum):
    ROTATED_SURFACE = "rotated_surface"
    TORIC_2D = "toric_2d"


class CheckBasis(enum.Enum):
    X = "X"
    Z = "Z"


@dataclass(frozen=True)
class Plaquette:
    """One stabilizer check: its ancilla, basis, center and data-qubit support."""

    index: int            # global plaquette index
    basis_index: int      # row-major index within its basis
    basis: CheckBasis
    center: tuple[int, int]
    support: tuple[int, ...]   # data-qubit ids, in CNOT order


@dataclass(frozen=True)
class CodeLayout:
    kind: CodeKind
    distance: int
    data_coords: tuple[tuple[int, int], ...]      # data qubit id -> (x, y)
    plaquettes: tuple[Plaquette, ...]
    # Logical operator representatives, given as data-qubit id sets.  A residual
    # Z-type error is a logical error iff it overlaps some X representative an
    # odd number of times (and symmetrically for X-type errors).
    logical_x_supports: tuple[frozenset[int], ...]
    logical_z_supports: tuple[frozenset[int], ...]

    @property
    def n_data(self) -> int:
        return len(self.data_coords)

    @property
    def n_plaquettes(self) -> int:
        return len(self.plaquettes)

    def ancilla_id(self, plaquette_index: int) -> int:
        """Ancilla qubit id for a plaquette (ancillas are numbered after data qubits)."""
        return self.n_data + plaquette_index

    @property
    def n_qubits(self) -> int:
        return self.n_data + self.n_plaquettes

    def checks(self, basis: CheckBasis) -> tuple[Plaquette, ...]:
        return tuple(p for p in self.plaquettes if p.basis is basis)

    def data_qubit_at(self, coord: tuple[int, int]) -> int:
        return self._coord_index[coord]

    @property
    def _coord_index(self) -> dict[tuple[int, int], int]:
        idx = self.__dict__.get("_coord_index_cache")
        if idx is None:
            idx = {c: i for i, c in enumerate(self.data_coords)}
            self.__dict__["_coord_index_cache"] = idx
        return idx

    def logical_supports(self, error_basis: CheckBasis) -> tuple[frozenset[int], ...]:
        """Representatives whose odd overlap with a residual error of the given
        Pauli type signals a logical error.  Z-type residuals are tested
        against logical-X supports and vice versa."""
        if error_basis is CheckBasis.Z:
            return self.logical_x_supports
        return self.logical_z_supports


# --- gate events -------------------------------------------------------------

@dataclass(frozen=True)
class PrepAncilla:
    qubit: int
    basis: CheckBasis


@dataclass(frozen=True)
class Cnot:
    control: int
    target: int


@dataclass(frozen=True)
class MeasureAncilla:
    qubit: int
    basis: CheckBasis
    plaquette: int   # global plaquette index


@dataclass(frozen=True)
class Wait:
    qubit: int


GateEvent = PrepAncilla | Cnot | MeasureAncilla | Wait

N_TIMESTEPS = 6   # prep, four CNOT layers, measure


@dataclass(frozen=True)
class CircuitSchedule:
    """One syndrome-extraction round, as six timesteps of disjoint gate events.

    Idle qubits carry explicit ``Wait`` events in every timestep: waiting
    locations are noisy.
    """

    layout: CodeLayout
    steps: tuple[tuple[GateEvent, ...], ...]
    round_duration: float = 1e-6   # seconds per syndrome round

    def __post_init__(self):
        if len(self.steps) != N_TIMESTEPS:
            raise ValueError(f"expected {N_TIMESTEPS} timesteps, got {len(self.steps)}")
        for step in self.steps:
            seen: set[int] = set()
            for ev in step:
                for q in _event_qubits(ev):
                    if q in seen:
                        raise ValueError(f"qubit {q} appears twice in one timestep")
                    seen.add(q)

    def __hash__(self) -> int:
        # Computed once: schedules key the census and circuit caches, and
        # hashing every event costs 36 us at d=5.  Hashes differ between
        # processes, so pickles leave the cached one out.
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash((self.layout, self.steps, self.round_duration))
        return self.__dict__["_hash"]

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def _event_qubits(ev: GateEvent) -> tuple[int, ...]:
    if isinstance(ev, Cnot):
        return (ev.control, ev.target)
    return (ev.qubit,)


# --- layout builders ---------------------------------------------------------

# CNOT order over support offsets, chosen so hook faults do not shorten the
# effective distance.  The two bases swap the middle pair so neighboring
# plaquettes never contend for a data qubit within a layer.
_ROTATED_OFFSETS = {
    CheckBasis.Z: ((-1, -1), (1, -1), (-1, 1), (1, 1)),
    CheckBasis.X: ((-1, -1), (-1, 1), (1, -1), (1, 1)),
}
_TORIC_OFFSETS = {
    CheckBasis.Z: ((0, -1), (-1, 0), (1, 0), (0, 1)),
    CheckBasis.X: ((0, -1), (1, 0), (-1, 0), (0, 1)),
}


def build_rotated_surface_code(d: int) -> CodeLayout:
    """Distance-``d`` rotated surface code: ``d**2`` data qubits, ``d**2 - 1``
    plaquettes, weight-2 checks on the boundary."""
    if d < 3 or d % 2 == 0:
        raise ValueError(f"distance must be an odd integer >= 3, got {d}")
    data_coords = tuple((2 * c + 1, 2 * r + 1) for r in range(d) for c in range(d))
    coord_index = {c: i for i, c in enumerate(data_coords)}

    raw: list[tuple[CheckBasis, tuple[int, int], tuple[int, ...]]] = []
    for j in range(d + 1):          # y = 2j
        for i in range(d + 1):      # x = 2i
            x, y = 2 * i, 2 * j
            basis = CheckBasis.Z if (i + j) % 2 == 0 else CheckBasis.X
            support = tuple(
                coord_index[(x + dx, y + dy)]
                for dx, dy in _ROTATED_OFFSETS[basis]
                if (x + dx, y + dy) in coord_index
            )
            if len(support) == 4:
                raw.append((basis, (x, y), support))
            elif len(support) == 2:
                on_x_boundary = x in (0, 2 * d)
                on_y_boundary = y in (0, 2 * d)
                if on_x_boundary and basis is CheckBasis.Z:
                    raw.append((basis, (x, y), support))
                elif on_y_boundary and basis is CheckBasis.X:
                    raw.append((basis, (x, y), support))

    plaquettes = _index_plaquettes(raw)
    if len(plaquettes) != d * d - 1:
        raise AssertionError("rotated layout produced a wrong plaquette count")

    logical_z = frozenset(coord_index[(2 * c + 1, 1)] for c in range(d))   # top row
    logical_x = frozenset(coord_index[(1, 2 * r + 1)] for r in range(d))   # left column
    layout = CodeLayout(
        kind=CodeKind.ROTATED_SURFACE,
        distance=d,
        data_coords=data_coords,
        plaquettes=plaquettes,
        logical_x_supports=(logical_x,),
        logical_z_supports=(logical_z,),
    )
    _check_logicals(layout)
    return layout


def build_toric_code(d: int) -> CodeLayout:
    """Distance-``d`` 2D toric code: ``2 d**2`` data qubits on lattice edges,
    ``d**2`` checks per basis, all of weight 4, no boundaries."""
    if d < 3:
        raise ValueError(f"distance must be >= 3, got {d}")
    period = 2 * d
    coords = []
    for r in range(d):
        for c in range(d):
            coords.append((2 * c + 1, 2 * r))       # horizontal edge
            coords.append((2 * c, 2 * r + 1))       # vertical edge
    data_coords = tuple(sorted(coords, key=lambda xy: (xy[1], xy[0])))
    coord_index = {c: i for i, c in enumerate(data_coords)}

    raw: list[tuple[CheckBasis, tuple[int, int], tuple[int, ...]]] = []
    for r in range(d):
        for c in range(d):
            # X-check at the vertex, Z-check at the face.
            for basis, (x, y) in (
                (CheckBasis.X, (2 * c, 2 * r)),
                (CheckBasis.Z, (2 * c + 1, 2 * r + 1)),
            ):
                support = tuple(
                    coord_index[((x + dx) % period, (y + dy) % period)]
                    for dx, dy in _TORIC_OFFSETS[basis]
                )
                raw.append((basis, (x, y), support))

    plaquettes = _index_plaquettes(raw)
    logical_z_1 = frozenset(coord_index[(2 * c + 1, 0)] for c in range(d))
    logical_z_2 = frozenset(coord_index[(0, 2 * r + 1)] for r in range(d))
    logical_x_1 = frozenset(coord_index[(1, 2 * r)] for r in range(d))
    logical_x_2 = frozenset(coord_index[(2 * c, 1)] for c in range(d))
    layout = CodeLayout(
        kind=CodeKind.TORIC_2D,
        distance=d,
        data_coords=data_coords,
        plaquettes=plaquettes,
        logical_x_supports=(logical_x_1, logical_x_2),
        logical_z_supports=(logical_z_1, logical_z_2),
    )
    _check_logicals(layout)
    return layout


def _index_plaquettes(
    raw: list[tuple[CheckBasis, tuple[int, int], tuple[int, ...]]]
) -> tuple[Plaquette, ...]:
    # Global and per-basis indices are row-major in (y, x) of the center.
    raw = sorted(raw, key=lambda t: (t[0].value, t[1][1], t[1][0]))
    per_basis = {CheckBasis.X: 0, CheckBasis.Z: 0}
    out = []
    for idx, (basis, center, support) in enumerate(raw):
        out.append(Plaquette(idx, per_basis[basis], basis, center, support))
        per_basis[basis] += 1
    return tuple(out)


def _check_logicals(layout: CodeLayout) -> None:
    # Each representative must commute with every check of its own error type's
    # detecting basis, and the X/Z pairs must anticommute somewhere.
    for reps, basis in (
        (layout.logical_x_supports, CheckBasis.Z),
        (layout.logical_z_supports, CheckBasis.X),
    ):
        for rep in reps:
            for plq in layout.checks(basis):
                if len(rep & set(plq.support)) % 2 != 0:
                    raise AssertionError("logical representative anticommutes with a check")
    odd = sum(
        1
        for lx in layout.logical_x_supports
        for lz in layout.logical_z_supports
        if len(lx & lz) % 2 == 1
    )
    if odd < len(layout.logical_x_supports):
        raise AssertionError("logical X/Z pairing is degenerate")


def build_schedule(layout: CodeLayout, round_duration: float = 1e-6) -> CircuitSchedule:
    """Six-timestep extraction round: ancilla prep, four CNOT layers in the
    fixed zig-zag order, ancilla measurement.  Every idle qubit in every
    timestep carries an explicit Wait event."""
    offsets = (
        _ROTATED_OFFSETS if layout.kind is CodeKind.ROTATED_SURFACE else _TORIC_OFFSETS
    )
    period = 2 * layout.distance
    all_qubits = set(range(layout.n_qubits))
    data_ids = set(range(layout.n_data))

    steps: list[list[GateEvent]] = [[] for _ in range(N_TIMESTEPS)]
    for plq in layout.plaquettes:
        anc = layout.ancilla_id(plq.index)
        steps[0].append(PrepAncilla(anc, plq.basis))
        steps[5].append(MeasureAncilla(anc, plq.basis, plq.index))
        x, y = plq.center
        for layer, (dx, dy) in enumerate(offsets[plq.basis], start=1):
            cx, cy = x + dx, y + dy
            if layout.kind is CodeKind.TORIC_2D:
                cx, cy = cx % period, cy % period
            idx = layout._coord_index.get((cx, cy))
            if idx is None:
                continue   # truncated boundary plaquette: ancilla idles this layer
            if plq.basis is CheckBasis.X:
                steps[layer].append(Cnot(anc, idx))
            else:
                steps[layer].append(Cnot(idx, anc))

    # Data qubits idle during prep and measurement; any qubit untouched in a
    # CNOT layer idles there too.
    for q in sorted(data_ids):
        steps[0].append(Wait(q))
        steps[5].append(Wait(q))
    for layer in range(1, 5):
        busy = {q for ev in steps[layer] for q in _event_qubits(ev)}
        for q in sorted(all_qubits - busy):
            steps[layer].append(Wait(q))

    return CircuitSchedule(
        layout=layout,
        steps=tuple(tuple(s) for s in steps),
        round_duration=round_duration,
    )
