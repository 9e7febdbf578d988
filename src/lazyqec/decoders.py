"""Full decoders and their combination with the lazy pre-decoder.

Two interchangeable fallback decoders operate on the same decoding graph:

* Union-Find: grow clusters around defects in half-edge increments, merge on
  contact, stop when every cluster has even parity or touches the boundary,
  then peel a spanning forest to read off the correction.
* Minimum-weight perfect matching, sparse and exact: each defect ``i`` has a
  boundary distance ``b_i`` from a boundary tree cached on the graph.  A
  bounded Dijkstra per defect finds only the pairs with ``D_ij < b_i + b_j``;
  any other pair can be replaced by two boundary matches at no extra cost.
  The kept pairs split the defects into components, matched one by one: a
  lone defect goes to the boundary, and two defects pair up.  A larger
  component runs an exact subset DP, which matches the lowest unmatched
  defect to the boundary or to a kept partner, when a bound on the DP's state
  count, computed from the kept pairs, is at most ``_DP_STATES``.  Above it,
  networkx blossom runs with boundary mirrors joined only along kept pairs.
  The complete defect graph is never built.

A defect's pruned search depends only on its vertex, so MWPM keeps the
searches in a store (``searches=``, a plain dict that belongs to one graph),
one resumable Dijkstra per source vertex: a later window with a defect at the
same vertex goes on from where the last one paused, and reads the partners
the search already reached without popping anything.  Corrections do not
depend on the store's contents.  ``estimate_logical_error`` keeps one store
per call and per worker; a call without one runs on a fresh store it throws
away, which is exactly one window's work, and leaves nothing on the graph.  A
store holds at most one search per vertex, each ``V`` distance slots (a float
for every vertex it reached) and ``V`` predecessor slots, so it is bounded by
``O(V**2)``, about 17 B per vertex per search: after a lazy+MWPM campaign at
p=1e-3 on closed windows (rotated code, 12,000 trials) it held 2.8 MB at d=9
(400 vertices, 81 reached per search), 8.8 MB at d=11 and, after 6,000
trials, 53 MB at d=15.

``hierarchical_decode`` tries the lazy pre-decoder first and only hands the
syndrome to the fallback when the pre-decoder reports failure.
"""

from __future__ import annotations

import enum
import heapq
import math
import operator
import sys
from array import array
from typing import NamedTuple

import networkx as nx

from .graph import DecodingGraph, Syndrome
from .lazy import LazyOutcome, lazy_decode


class DecoderKind(enum.Enum):
    LAZY = "lazy"
    UNION_FIND = "uf"
    MWPM = "mwpm"
    LAZY_UNION_FIND = "lazy+uf"
    LAZY_MWPM = "lazy+mwpm"


class DecodeRecord(NamedTuple):
    """Result of one decode call: edge ids of the correction, whether the
    fallback ran, and the pre-decoder's outcome when one was used."""

    correction: frozenset[int]
    used_fallback: bool = False
    lazy_outcome: LazyOutcome | None = None


# --- Union-Find ------------------------------------------------------------

class _Dsu:
    __slots__ = ("parent", "rank")

    def __init__(self):
        self.parent: dict = {}
        self.rank: dict = {}

    def find(self, x):
        parent = self.parent
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank.setdefault(ra, 0) < self.rank.setdefault(rb, 0):
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def uf_decode(graph: DecodingGraph, syndrome: Syndrome, *,
              searches: Searches | None = None) -> frozenset[int]:
    """Union-Find decoding: returns edge ids whose incidence XOR reproduces
    the syndrome.  Raises if a component has odd parity and no boundary.
    Vertices are ids (see ``DecodingGraph``); the boundary, -1, is one virtual
    vertex absorbing every half-edge, and a cluster containing it is always
    satisfied regardless of parity.  ``searches`` is ignored: Union-Find
    keeps nothing between windows, and takes it only to share the fallbacks'
    signature."""
    if not syndrome.defects:
        return frozenset()
    defects = graph.vertex_ids(syndrome.defects)
    view = graph.scalar_view
    adj, half = view.adj, view.half_ids

    dsu = _Dsu()
    parity: dict = {}
    members: dict = {}
    for v in defects:
        r = dsu.find(v)
        parity[r] = 1
        members[r] = {v}

    growth: dict[int, int] = {}
    grown: set[int] = set()

    def incident(v: int):
        yield from adj[v]
        if half[v] >= 0:
            yield -1, half[v]

    def satisfied(root) -> bool:
        return parity.get(root, 0) % 2 == 0 or dsu.find(-1) == root

    active = set(parity)
    while True:
        active = {dsu.find(r) for r in active}
        active = {r for r in active if not satisfied(r)}
        if not active:
            break
        # Grow every frontier edge of every unsatisfied cluster by half an
        # edge length, collecting the ones that become fully grown.
        newly_full: list[tuple[int, int, int]] = []
        progressed = False
        for r in active:
            for v in members[r]:
                for u, eid in incident(v):
                    if eid in grown:
                        continue
                    progressed = True
                    g = growth.get(eid, 0) + 1
                    growth[eid] = g
                    if g >= 2:
                        grown.add(eid)
                        newly_full.append((eid, v, u))
        for eid, v, u in newly_full:
            ra, rb = dsu.find(v), dsu.find(u)
            if ra == rb:
                continue
            pab = parity.get(ra, 0) + parity.get(rb, 0)
            mab = members.pop(ra, set()) | members.pop(rb, set())
            dsu.union(ra, rb)
            root = dsu.find(ra)
            parity[root] = pab
            mab.add(v)
            if u >= 0:
                mab.add(u)
            members[root] = mab
        if not progressed and active:
            # No edge can grow further: odd cluster in a boundaryless graph.
            raise ValueError("odd defect cluster with no boundary to absorb it")

    return _peel(view.edge_ends, defects, grown)


def _peel(ends: list[list[int]], defects: set[int], grown: set[int]) -> frozenset[int]:
    """Peel a spanning forest of the grown edges, leaves first, flipping an
    edge whenever the leaf below it carries unresolved defect parity.  Trees
    are rooted in id order, the boundary (-1) first, so leftover parity can
    drain into it."""
    adj: dict = {}
    for eid in grown:
        a, b = ends[eid]
        adj.setdefault(a, []).append((b, eid))
        adj.setdefault(b, []).append((a, eid))

    visited: set = set()
    correction: set[int] = set()
    flip = {v: (v in defects) for v in adj}
    for root in sorted(adj):
        if root in visited:
            continue
        order: list[int] = []
        parent_edge: dict = {root: None}
        visited.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u, eid in adj[v]:
                if u not in visited:
                    visited.add(u)
                    parent_edge[u] = (v, eid)
                    stack.append(u)
        for v in reversed(order):
            if v < 0 or not flip[v]:
                continue
            pe = parent_edge[v]
            if pe is None:
                raise ValueError("unresolved defect parity at a tree root")
            parent, eid = pe
            correction.symmetric_difference_update({eid})
            if parent >= 0:
                flip[parent] = not flip[parent]
            flip[v] = False
    return frozenset(correction)


# --- minimum-weight perfect matching ---------------------------------------

_UNMATCHABLE = "defects could not be perfectly matched"

# The resumable searches of one graph, by source vertex id: the distance and
# the predecessor edge id per vertex id, and the heap of (distance, vertex id)
# entries still to pop.
Searches = dict[int, tuple[list[float], array, list[tuple[float, int]]]]


def mwpm_decode(graph: DecodingGraph, syndrome: Syndrome, *,
                searches: Searches | None = None) -> frozenset[int]:
    """Exact minimum-weight matching of the defects, each defect free to
    match the boundary instead when the graph has half-edges.

    ``searches`` is a store of resumable per-vertex searches (see the module
    docstring) that belongs to this graph; a window resumes the searches a
    previous window left there.  Without it the call runs on a fresh store it
    throws away.  The correction is the same either way."""
    return _mwpm(graph, syndrome, searches)[0]


def mwpm_matching_weight(graph: DecodingGraph, syndrome: Syndrome, *,
                         searches: Searches | None = None) -> float:
    """Total path weight of the optimal matching (before path cancellation)."""
    return _mwpm(graph, syndrome, searches)[1]


# A search's predecessor edge id per vertex id: four bytes a vertex, against
# about 37 for a dict entry.  An unreached vertex holds an id past every edge,
# so a path walked from it raises instead of wandering.
_NO_PRED = array("i", [2**31 - 1])
# sorts one defect's pairs (i, j, D_ij) by (D_ij, j)
_POP_ORDER = operator.itemgetter(2, 1)


def _near_pairs(adj, ids: list[int], b: list[float], searches: Searches):
    """Every defect pair with ``D_ij < b_i + b_j``, as ``(i, j, D_ij)`` with
    ``i < j`` in (i, D_ij, j) order, and the predecessor edge ids (per vertex
    id) of each defect's search.

    One Dijkstra runs from each defect but the last.  It never pushes a vertex
    ``u`` at distance ``nd >= b_i + b[u]``: a pair path through ``u`` then
    costs at least ``b_i + b_j`` by the triangle inequality, so every vertex of
    a kept pair's shortest path still gets its exact distance.  It stops once
    every later defect is settled, or once the popped distance reaches
    ``b_i`` plus the largest ``b_j`` of the later defects not yet settled.

    That pruning depends on the source alone, so ``searches`` keeps each
    source's search, ``(dist, pred, heap)``, and a later window resumes it.
    The entry a search stops at goes back on its heap unrelaxed, so a resumed
    search pops what a search never paused pops.  A later defect whose
    distance is at most the heap top is final, as no weight is negative, and
    settles before any pop.  Sorting each defect's pairs makes the order
    independent of where earlier windows paused; with positive weights it is
    the order a search pops them.
    """
    heappop, heappush = heapq.heappop, heapq.heappush
    n, n_vertices = len(ids), len(adj)
    slot = {v: i for i, v in enumerate(ids)}
    pairs: list[tuple[int, int, float]] = []
    preds: list[array] = []
    for i in range(n - 1):
        src, bi = ids[i], b[i]
        search = searches.get(src)
        if search is None:
            dist = [math.inf] * n_vertices
            dist[src] = 0.0
            pred = _NO_PRED * n_vertices
            heap = [(0.0, src)]
            searches[src] = (dist, pred, heap)
            found: list[tuple[int, int, float]] = []
            settled = set()
        else:
            dist, pred, heap = search
            # with the heap empty every finite distance is final
            top_d = heap[0][0] if heap else sys.float_info.max
            found = [(i, j, dist[ids[j]]) for j in range(i + 1, n) if dist[ids[j]] <= top_d]
            settled = {j for _, j, _ in found}
        if len(found) < n - 1 - i:
            later = sorted(range(i + 1, n), key=b.__getitem__, reverse=True)
            top = 0
            while later[top] in settled:
                top += 1
            bound = bi + b[later[top]]
            while heap:
                d, v = heappop(heap)
                if d >= bound:
                    heappush(heap, (d, v))
                    break
                if d > dist[v]:
                    continue
                j = slot.get(v, -1)
                if j > i and j not in settled:
                    found.append((i, j, d))
                    settled.add(j)
                    if len(settled) == len(later):
                        heappush(heap, (d, v))
                        break
                    while later[top] in settled:
                        top += 1
                    bound = bi + b[later[top]]
                # push u only at nd = d + w < bi + bdist[u], i.e. d - bi < slack
                room = d - bi
                for u, w, eid, slack in adj[v]:
                    if room < slack:
                        nd = d + w
                        if nd < dist[u]:
                            dist[u] = nd
                            pred[u] = eid
                            heappush(heap, (nd, u))
        if len(found) > 1:
            found.sort(key=_POP_ORDER)
        pairs += found
        preds.append(pred)
    return pairs, preds


def _components(n: int, pairs: list[tuple[int, int, float]]):
    """Connected components of the kept-pair graph: (defects, pairs) each."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in pairs:
        nbrs[i].append(j)
        nbrs[j].append(i)
    label = [-1] * n
    members: list[list[int]] = []
    for s in range(n):
        if label[s] >= 0:
            continue
        label[s] = len(members)
        comp, stack = [s], [s]
        while stack:
            for u in nbrs[stack.pop()]:
                if label[u] < 0:
                    label[u] = label[s]
                    comp.append(u)
                    stack.append(u)
        members.append(comp)
    comp_pairs: list[list[tuple[int, int, float]]] = [[] for _ in members]
    for pair in pairs:
        comp_pairs[label[pair[0]]].append(pair)
    return zip(members, comp_pairs)


# A component goes to the subset DP when the DP's bound on its state count is
# at most _DP_STATES, and to blossom above it.  A complete component of k
# defects has a bound of 2**(k-1), so up to 11 defects run the DP.  Per
# component on a shared 2-vCPU machine: toric d=20 complete components take
# 80 us in the DP against 134 us in networkx at k=10, but 216 against 165 us
# at k=12.  Sparse closed-window components (rotated d=9, p=1e-3) of up to 20
# defects mostly stay under the bound, where the DP is 2.5-20x faster.
_DP_STATES = 1024


def _subset_dp(comp: list[int], pairs, b: list[float]):
    """Exact matching of one component, or ``None`` when its state bound
    exceeds ``_DP_STATES``.  A state is the set of unmatched defects.  Its
    lowest defect either goes to the boundary (when ``b_i`` is finite) or
    pairs with a kept partner above it.  States are expanded in order of their
    lowest defect, and each keeps its cheapest way in.  Returns defect ->
    partner (-1: boundary); raises when the component has no perfect
    matching."""
    comp = sorted(comp)
    k = len(comp)
    local = {g: x for x, g in enumerate(comp)}
    # (partner bit, partner, cost) per defect; bit 0 and partner -1: the boundary
    moves = [[(0, -1, b[g])] if b[g] < math.inf else [] for g in comp]
    first = list(range(k))          # each defect's lowest kept partner, or itself
    for i, j, d in pairs:
        x, y = local[i], local[j]
        moves[x].append((1 << y, y, d))
        if x < first[y]:
            first[y] = x
    # With x the lowest unmatched defect, the matched ones above it are those
    # paired below it: at most 2**width states have x lowest.
    delta = [0] * (k + 1)
    for y, x in enumerate(first):
        if x < y:
            delta[x + 1] += 1
            delta[y] -= 1
    width = bound = 0
    for x in range(k):
        width += delta[x]
        bound += 1 << width
    if bound > _DP_STATES:
        return None

    full = (1 << k) - 1
    # layers[x]: states whose lowest unmatched defect is x, as mask -> (cost,
    # previous mask, partner); the empty state sits in layers[k] == layers[-1]
    layers: list[dict[int, tuple[float, int, int]]] = [{} for _ in range(k + 1)]
    layers[0][full] = (0.0, 0, 0)
    for x in range(k):
        bit = 1 << x
        for mask, (cost, _, _) in layers[x].items():
            rest = mask ^ bit
            for ybit, y, d in moves[x]:
                if rest & ybit == ybit:
                    nxt = rest ^ ybit
                    c = cost + d
                    layer = layers[(nxt & -nxt).bit_length() - 1]
                    old = layer.get(nxt)
                    if old is None or c < old[0]:
                        layer[nxt] = (c, mask, y)
    if 0 not in layers[k]:
        raise ValueError(_UNMATCHABLE)
    mate: dict[int, int] = {}
    _, mask, y = layers[k][0]
    while True:
        x = (mask & -mask).bit_length() - 1
        if y < 0:
            mate[comp[x]] = -1
        else:
            mate[comp[x]], mate[comp[y]] = comp[y], comp[x]
        if mask == full:
            return mate
        _, mask, y = layers[x][mask]


def _blossom(n: int, comp: list[int], pairs, b: list[float], has_boundary: bool):
    """Exact matching of one component: defect ``i`` is node ``i`` and its
    boundary mirror is node ``n + i``.  Mirrors are joined only along kept
    pairs, which is enough for every subset of paired defects to leave its
    mirrors perfectly matched.  Edge weights are ``big - cost``: all perfect
    matchings have the same size, so the heaviest one costs the least.
    Returns defect -> partner (-1: boundary)."""
    reach = [b[i] for i in comp if b[i] < math.inf]
    big = 1.0 + max(d for *_, d in pairs) + max(reach, default=0.0)
    g = nx.Graph()
    for i, j, d in pairs:
        g.add_edge(i, j, weight=big - d)
        if has_boundary:
            g.add_edge(n + i, n + j, weight=big)
    for i in comp:
        if b[i] < math.inf:
            g.add_edge(i, n + i, weight=big - b[i])
    mate: dict[int, int] = {}
    for x, y in nx.max_weight_matching(g, maxcardinality=True):
        if x < n and y < n:
            mate[x], mate[y] = y, x
        elif min(x, y) < n:
            mate[min(x, y)] = -1
    return mate


def _mwpm(graph: DecodingGraph, syndrome: Syndrome,
          searches: Searches | None) -> tuple[frozenset[int], float]:
    ids = sorted(graph.vertex_ids(syndrome.defects))
    n = len(ids)
    if n == 0:
        return frozenset(), 0.0
    has_boundary = graph.n_half_edges > 0
    if n % 2 == 1 and not has_boundary:
        raise ValueError("odd defect count in a graph without boundary")
    adj, bdist, bstep = graph.matching_index
    b = [bdist[v] for v in ids]

    pairs, preds = _near_pairs(adj, ids, b, {} if searches is None else searches)
    if n == 2 and pairs:    # most windows: one kept pair, their own component
        mate = {0: 1, 1: 0}
    else:
        mate = {}
        for comp, comp_pairs in _components(n, pairs):
            if len(comp) == 1:
                if b[comp[0]] == math.inf:
                    raise ValueError(_UNMATCHABLE)
                mate[comp[0]] = -1
            elif len(comp) == 2:
                i, j, _ = comp_pairs[0]
                mate[i], mate[j] = j, i
            else:   # the DP gives None above its state bound
                mate.update(_subset_dp(comp, comp_pairs, b)
                            or _blossom(n, comp, comp_pairs, b, has_boundary))
    if len(mate) < n:
        raise ValueError(_UNMATCHABLE)

    pair_d = {(i, j): d for i, j, d in pairs}
    ends = graph.scalar_view.edge_ends
    correction: set[int] = set()
    total = 0.0
    for i, j in mate.items():
        if j < 0:
            total += b[i]
            v = ids[i]
            while v >= 0:
                v, eid = bstep[v]
                correction.symmetric_difference_update((eid,))
        elif i < j:
            total += pair_d[i, j]
            pred, src, v = preds[i], ids[i], ids[j]
            while v != src:
                eid = pred[v]
                correction.symmetric_difference_update((eid,))
                a, c = ends[eid]
                v = a + c - v
    return frozenset(correction), total


# --- composition ------------------------------------------------------------

_FALLBACKS = {
    DecoderKind.UNION_FIND: uf_decode,
    DecoderKind.MWPM: mwpm_decode,
}


def hierarchical_decode(
    graph: DecodingGraph,
    syndrome: Syndrome,
    fallback: DecoderKind = DecoderKind.UNION_FIND,
    *,
    searches: Searches | None = None,
) -> DecodeRecord:
    """Lazy pre-decoder first; on failure the whole original syndrome goes to
    the fallback decoder, with ``searches`` (see ``mwpm_decode``)."""
    outcome = lazy_decode(graph, syndrome)
    if outcome.failure is None:
        return DecodeRecord(outcome.correction, False, outcome)
    correction = _FALLBACKS[fallback](graph, syndrome, searches=searches)
    return DecodeRecord(correction, True, outcome)


# decode() runs once per trial and a lazy decode costs a few microseconds, so
# it compares ``kind`` with module-level names: reading a member off the enum
# class costs about 0.2 us on CPython 3.11, and hashing one as much.
_UNION_FIND, _MWPM = DecoderKind.UNION_FIND, DecoderKind.MWPM
_LAZY_UNION_FIND, _LAZY_MWPM = DecoderKind.LAZY_UNION_FIND, DecoderKind.LAZY_MWPM


def decode(graph: DecodingGraph, syndrome: Syndrome, kind: DecoderKind, *,
           searches: Searches | None = None) -> DecodeRecord:
    """Run one decoder configuration on a syndrome.  MWPM, alone or as the
    fallback, resumes the searches of the store ``searches`` of this graph
    (see ``mwpm_decode``); without it, it runs on a fresh store it throws
    away, and does the work of one window alone."""
    if kind is _UNION_FIND:
        return DecodeRecord(uf_decode(graph, syndrome))
    if kind is _LAZY_UNION_FIND:
        return hierarchical_decode(graph, syndrome, _UNION_FIND)
    if kind is _LAZY_MWPM:
        return hierarchical_decode(graph, syndrome, _MWPM, searches=searches)
    if kind is _MWPM:
        return DecodeRecord(mwpm_decode(graph, syndrome, searches=searches))
    outcome = lazy_decode(graph, syndrome)
    if outcome.failure is not None:
        raise ValueError(f"lazy decoder failed without a fallback: {outcome.failure}")
    return DecodeRecord(outcome.correction, False, outcome)
