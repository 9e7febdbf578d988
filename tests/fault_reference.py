"""Slow, obviously correct reference for the block fault sampler and the
block syndrome kernel.

These are the scalar loops the package used before it sampled and built
syndromes a block of trials at a time: geometric gaps taken one by one over
the flat hit index, and a syndrome toggled vertex by vertex from per-fault
templates.  The templates come from the sparse reference propagator in
``frame_reference``, not from the graph under test.  The sampler loop runs
over the flat (trial, round, location) index of ``trials`` consecutive
trials; with ``trials=1`` it is the old one-trial sampler, draw for draw.

``reference_edge_sample`` is the same for the perfect-measurement mode:
geometric gaps taken one by one over the flat (trial, edge) index of each
edge-probability class, and ``edge_errors`` turns a trial's flips into a
syndrome edge by edge.
"""

from __future__ import annotations

from typing import Iterable

from frame_reference import reference_templates
from lazyqec.code_model import CheckBasis, CodeLayout, build_schedule
from lazyqec.experiments import BLOCK
from lazyqec.graph import DecodingGraph, Syndrome, Vertex
from lazyqec.noise import FaultEvent, FaultLocation, LocationKind, make_rng

_TEMPLATES: dict = {}


def templates(layout: CodeLayout, basis: CheckBasis):
    """``reference_templates`` of a code's standard schedule, computed once
    per (code, distance, basis)."""
    key = (layout.kind, layout.distance, basis)
    if key not in _TEMPLATES:
        _TEMPLATES[key] = reference_templates(layout, build_schedule(layout), basis)
    return _TEMPLATES[key]


def reference_sample(
    census: tuple[FaultLocation, ...], rounds: int, p: float, rng, trials: int = 1
) -> list[list[FaultEvent]]:
    """The faults of ``trials`` consecutive trials drawn from ``rng``, one
    list per trial, each in (round, census index) order."""
    n_choices = [loc.n_choices for loc in census]
    hits = []
    for q, meas in ((p, False), (2.0 * p / 3.0, True)):
        idx = [loc.index for loc in census if (loc.kind is LocationKind.MEAS) == meas]
        n = len(idx) * rounds * trials
        if not (q > 0.0 and n):
            continue
        batch = int(q * n + 4.0 * (q * n) ** 0.5) + 1
        pos = -1   # skip from hit to hit by geometric gaps, a batch at a time
        while pos < n:
            for gap in rng.geometric(q, batch).tolist():
                pos += gap
                if pos >= n:
                    break
                row, j = divmod(pos, len(idx))
                hits.append((*divmod(row, rounds), idx[j]))
    hits.sort()
    u = rng.random(len(hits)).tolist() if hits else ()
    out: list[list[FaultEvent]] = [[] for _ in range(trials)]
    for (i, t, j), x in zip(hits, u):
        out[i].append(FaultEvent(t, census[j], int(x * n_choices[j])))
    return out


def reference_syndrome(graph: DecodingGraph, events: Iterable[FaultEvent]) -> Syndrome:
    acc: set[Vertex] = set()
    template = templates(graph.layout, graph.basis)[0]
    first, rounds = int(graph.drop_initial), graph.rounds
    for t, loc, choice in events:
        try:
            pattern = template[loc.index, choice]
        except KeyError:
            raise ValueError(f"unknown fault location {loc}") from None
        for q, dt in pattern:
            if first <= t + dt < rounds:
                v = (q, t + dt)
                if v in acc:
                    acc.remove(v)
                else:
                    acc.add(v)
    return Syndrome(frozenset(acc))


def reference_obs(graph: DecodingGraph, events: Iterable[FaultEvent]) -> int:
    """Logical-flip bitmask of a fault list (XOR of per-fault flips)."""
    mask, template_obs = 0, templates(graph.layout, graph.basis)[1]
    for _, loc, choice in events:
        mask ^= template_obs[loc.index, choice]
    return mask


def reference_edge_sample(probs: list[float], rng, trials: int) -> list[list[int]]:
    """The edge flips of ``trials`` consecutive trials drawn from ``rng``,
    one list of edge ids per trial; edge ``e`` flips with ``probs[e]``.  The
    probability classes are taken in ascending order."""
    out: list[list[int]] = [[] for _ in range(trials)]
    for q in sorted(set(probs)):
        idx = [e for e, x in enumerate(probs) if x == q]
        n = len(idx) * trials
        if not (q > 0.0 and n):
            continue
        batch = int(q * n + 4.0 * (q * n) ** 0.5) + 1
        pos = -1   # skip from hit to hit by geometric gaps, a batch at a time
        while pos < n:
            for gap in rng.geometric(q, batch).tolist():
                pos += gap
                if pos >= n:
                    break
                i, j = divmod(pos, len(idx))
                out[i].append(idx[j])
    return out


def perfect_trials(graph: DecodingGraph, seed: int, trials: int) -> list[list[int]]:
    """The edge flips of a perfect-measurement campaign's trials ``0 ..
    trials-1``: block ``b`` drawn whole from the stream ``(seed, b)``, the
    last block truncated."""
    probs = [graph.edge(eid).probability for eid in range(graph.n_edges)]
    out: list[list[int]] = []
    for b in range(-(-trials // BLOCK)):
        out += reference_edge_sample(probs, make_rng(seed, b), BLOCK)
    return out[:trials]


def edge_errors(graph: DecodingGraph, hits: list[int]) -> tuple[Syndrome, int]:
    """The syndrome and logical-flip mask of one trial's flipped edges."""
    return Syndrome(graph.correction_syndrome(hits)), graph.obs_of_edges(hits)
