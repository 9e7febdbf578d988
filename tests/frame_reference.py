"""Slow, obviously correct reference for the GF(2) frame kernel.

This is the sparse Pauli-frame propagator the package used before its
vectorised kernel: one fault list at a time, as a dict from qubit to its
(x, z) bits.  Tests compare the kernel's fault templates and its window
replays against it, so the round-trip check of the fault map does not rest
on the kernel alone.  ``reference_edges`` goes one step further and rebuilds
a graph's edges from these templates, merging fault by fault.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from lazyqec.code_model import CheckBasis, CircuitSchedule, CodeLayout, Cnot, MeasureAncilla, PrepAncilla
from lazyqec.noise import FaultEvent, LocationKind, fault_pauli_bits, round_census


class _StepOps:
    """Per-timestep gate lookup tables for sparse propagation."""

    __slots__ = ("prep", "cnot_of", "meas_of")

    def __init__(self):
        self.prep: set[int] = set()
        self.cnot_of: dict[int, tuple[int, int]] = {}
        # ancilla -> (measured basis, check basis, index among that basis' checks)
        self.meas_of: dict[int, tuple[CheckBasis, CheckBasis, int]] = {}


def _compile_steps(layout: CodeLayout, schedule: CircuitSchedule) -> list[_StepOps]:
    plaquettes = {p.index: p for p in layout.plaquettes}
    out = []
    for events in schedule.steps:
        ops = _StepOps()
        for ev in events:
            if isinstance(ev, PrepAncilla):
                ops.prep.add(ev.qubit)
            elif isinstance(ev, Cnot):
                ops.cnot_of[ev.control] = (ev.control, ev.target)
                ops.cnot_of[ev.target] = (ev.control, ev.target)
            elif isinstance(ev, MeasureAncilla):
                plq = plaquettes[ev.plaquette]
                ops.meas_of[ev.qubit] = (ev.basis, plq.basis, plq.basis_index)
        out.append(ops)
    return out


def _replay(steps: list[_StepOps], n_data: int, rounds: int, faults: Iterable[FaultEvent]):
    """Replay faults through ``rounds`` clean extraction rounds, propagating
    them as a sparse Pauli frame.  A fault acts right after the timestep of
    its location.

    Returns the raw syndrome flips ``{basis: {(check, round)}}`` and the final
    (x, z) data frames as qubit-id sets.
    """
    # Faults in reverse (round, step) order, so the next one is popped off the end.
    pending = sorted(faults, key=lambda ev: (ev.round, ev.location.step))[::-1]
    frame: dict[int, list[int]] = {}   # qubit -> [x, z]
    s_flips: dict[CheckBasis, set[tuple[int, int]]] = {CheckBasis.X: set(), CheckBasis.Z: set()}

    for t in range(rounds):
        for step_idx, ops in enumerate(steps):
            if frame:
                for q in [q for q in frame if q in ops.prep]:
                    del frame[q]
                touched = {ops.cnot_of[q] for q in frame if q in ops.cnot_of}
                for c, tgt in touched:
                    fc = frame.setdefault(c, [0, 0])
                    ft = frame.setdefault(tgt, [0, 0])
                    ft[0] ^= fc[0]   # X propagates control -> target
                    fc[1] ^= ft[1]   # Z propagates target -> control
                for q in [q for q in frame if q in ops.meas_of]:
                    basis, b, bidx = ops.meas_of[q]
                    if frame[q][0] if basis is CheckBasis.Z else frame[q][1]:
                        s_flips[b] ^= {(bidx, t)}
            while pending and pending[-1].round == t and pending[-1].location.step == step_idx:
                ev = pending.pop()
                loc = ev.location
                if loc.kind is LocationKind.MEAS:
                    _, b, bidx = ops.meas_of[loc.qubits[0]]
                    s_flips[b] ^= {(bidx, t)}
                else:
                    for q, x, z in fault_pauli_bits(loc, ev.choice):
                        f = frame.setdefault(q, [0, 0])
                        f[0] ^= x
                        f[1] ^= z

    x_frame = frozenset(q for q, f in frame.items() if q < n_data and f[0])
    z_frame = frozenset(q for q, f in frame.items() if q < n_data and f[1])
    return s_flips, x_frame, z_frame


def _diff_pattern(s_flips: set[tuple[int, int]], mini_rounds: int) -> tuple[tuple[int, int], ...]:
    """Difference-syndrome flips (check, dt) of a raw flip set, with s(-1)=0."""
    by_check: dict[int, set[int]] = {}
    for q, t in s_flips:
        by_check.setdefault(q, set()).add(t)
    out = []
    for q, ts in by_check.items():
        for t in range(mini_rounds):
            if ((t in ts) ^ ((t - 1) in ts)):
                out.append((q, t))
    return tuple(sorted(out))


def simulate_window(
    layout: CodeLayout,
    schedule: CircuitSchedule,
    rounds: int,
    faults: list[FaultEvent],
):
    """Direct circuit replay with the given faults.

    Returns per-basis raw syndrome bit arrays of shape ``(rounds, n_checks)``
    and the final (x, z) data frames.  Used to cross-validate the fault map.
    """
    steps = _compile_steps(layout, schedule)
    s_flips, x_frame, z_frame = _replay(steps, layout.n_data, rounds, faults)
    s = {}
    for b in CheckBasis:
        s[b] = np.zeros((rounds, len(layout.checks(b))), dtype=np.uint8)
        for bidx, t in s_flips[b]:
            s[b][t, bidx] = 1
    return s, x_frame, z_frame


def reference_templates(layout: CodeLayout, schedule: CircuitSchedule, basis: CheckBasis):
    """Per-fault difference patterns and logical-flip masks in one basis, each
    fault replayed on its own over 4 mini-rounds."""
    steps = _compile_steps(layout, schedule)
    logicals = layout.logical_supports(
        CheckBasis.Z if basis is CheckBasis.X else CheckBasis.X
    )
    template, template_obs = {}, {}
    for loc in round_census(schedule):
        for choice in range(loc.n_choices):
            s_flips, x_frame, z_frame = _replay(
                steps, layout.n_data, 4, [FaultEvent(0, loc, choice)]
            )
            template[(loc.index, choice)] = _diff_pattern(s_flips[basis], 4)
            frame = z_frame if basis is CheckBasis.X else x_frame
            template_obs[(loc.index, choice)] = sum(
                1 << i for i, rep in enumerate(logicals) if len(frame & rep) % 2
            )
    return template, template_obs


def reference_window(
    layout: CodeLayout, schedule: CircuitSchedule, rounds: int, faults: list[FaultEvent]
):
    """Raw per-basis syndrome arrays and final data frames of a fault list."""
    s_flips, x_frame, z_frame = _replay(
        _compile_steps(layout, schedule), layout.n_data, rounds, faults
    )
    s = {}
    for b in CheckBasis:
        s[b] = np.zeros((rounds, len(layout.checks(b))), dtype=np.uint8)
        for bidx, t in s_flips[b]:
            s[b][t, bidx] = 1
    return s, x_frame, z_frame


_KIND_RANK = {"space": 0, "time": 1, "diagonal": 2, "boundary": 0, "time_boundary": 1}


def reference_edges(
    layout: CodeLayout,
    schedule: CircuitSchedule,
    basis: CheckBasis,
    p: float,
    rounds: int,
    *,
    drop_initial: bool = True,
    noisy_rounds: int | None = None,
    templates: tuple[dict, dict] | None = None,
):
    """Edges of the decoding graph, rebuilt from ``reference_templates`` (or
    from ``templates``, their value when already at hand).

    Every fault choice is merged on its own into its detection pattern, in
    census and choice order, with ``prod (1 - 2 p_i)``; the merged patterns
    are then placed in every noisy round, clipped at the window boundaries
    and merged again by vertex set.  Returns ``(edges, half_edges,
    obs_conflicts, invisible_obs_faults)``, each edge a tuple ``(u, v,
    probability, weight, kind, obs)``, in the canonical scan order.
    """
    template, template_obs = templates or reference_templates(layout, schedule, basis)
    merged: dict[tuple, list] = {}   # pattern -> [prod (1 - 2 p_i), obs, conflict]
    for loc in round_census(schedule):
        p_choice = loc.fault_probability(p) / loc.n_choices
        for choice in range(loc.n_choices):
            obs = template_obs[loc.index, choice]
            acc = merged.setdefault(template[loc.index, choice], [1.0, obs, False])
            acc[0] *= 1.0 - 2.0 * p_choice
            acc[2] = acc[2] or acc[1] != obs

    noisy = rounds if noisy_rounds is None else noisy_rounds
    placed: dict[tuple, list] = {}   # vertices -> [prod, obs, conflict, spatial]
    invisible = 0
    for t in range(noisy):
        for pattern, (pi, obs, conflict) in merged.items():
            verts = tuple(sorted(
                (q, t + dt) for q, dt in pattern
                if t + dt < rounds and not (drop_initial and t + dt == 0)
            ))
            if not verts:
                invisible += obs != 0
                continue
            acc = placed.setdefault(verts, [1.0, obs, False, False])
            acc[0] *= 1.0 - 2.0 * ((1.0 - pi) / 2.0)
            acc[2] = acc[2] or conflict or acc[1] != obs
            acc[3] = acc[3] or (len(verts) == 1 and len(pattern) == 1)

    edges, half_edges = [], []
    for verts, (pi, obs, conflict, spatial) in placed.items():
        prob = (1.0 - pi) / 2.0
        weight = math.log((1.0 - prob) / prob) if 0.0 < prob < 1.0 else math.inf
        if len(verts) == 2:
            (qu, tu), (qv, tv) = verts
            kind = "time" if qu == qv else "space" if tu == tv else "diagonal"
            edges.append((verts[0], verts[1], prob, weight, kind, obs))
        else:
            kind = "boundary" if spatial else "time_boundary"
            half_edges.append((verts[0], None, prob, weight, kind, obs))

    centers = [c.center for c in layout.checks(basis)]

    def tyx(v):
        x, y = centers[v[0]]
        return (v[1], y, x)

    def scan_order(edge):
        ends = sorted([v for v in edge[:2] if v is not None], key=tyx)
        return (tyx(ends[0]), _KIND_RANK[edge[4]], tyx(ends[1]) if len(ends) == 2 else ())

    conflicts = sum(acc[2] for acc in placed.values())
    return sorted(edges, key=scan_order), sorted(half_edges, key=scan_order), conflicts, invisible
