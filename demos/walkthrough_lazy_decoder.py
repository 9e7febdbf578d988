"""Walk through the lazy pre-decoder on small hand-built graphs.

The lazy decoder only accepts syndromes it can explain with locally optimal
moves: edges whose two endpoints are both defects, then boundary half-edges
for what remains, tolerating at most one ambiguous boundary choice.  Anything
else is a failure handed to the full decoder.  When it succeeds, the
correction is a true minimum-size explanation of the syndrome.
"""

from lazyqec import Syndrome, lazy_decode, make_graph

A, B, C, D = (0, 0), (1, 0), (2, 0), (3, 0)


def show(title, graph, defects):
    out = lazy_decode(graph, Syndrome.of(defects))
    verdict = "success" if out.success else f"failure ({out.failure.value})"
    print(f"{title:46s} defects={sorted(q for q, _ in defects)!s:12s} -> {verdict}", end="")
    if out.success:
        print(f", correction edges {sorted(out.correction)}, "
              f"{out.ambiguous_count} ambiguous")
    else:
        print()


def main():
    # a path a - b - c with boundary half-edges at a and c
    path = make_graph([(A, B), (B, C)], [A, C])

    show("adjacent defect pair -> one edge", path, [A, B])
    show("defects at both ends -> two half-edges", path, [A, C])
    show("lone defect away from the boundary", path, [B])

    # a longer path: the scan pairs (a,b) and (c,d), the unique minimum
    path4 = make_graph([(A, B), (B, C), (C, D)], [A, D])
    show("four in a row -> two edges", path4, [A, B, C, D])

    # two defect clusters each ending on a boundary vertex that also has a
    # defect neighbor: two ambiguous boundary choices force a failure
    v = [(i, 0) for i in range(10)]
    twin = make_graph(
        [(v[1], v[2]), (v[2], v[3]), (v[3], v[4]),
         (v[6], v[7]), (v[7], v[8]), (v[8], v[9])],
        [v[4], v[9]],
    )
    defects = [v[2], v[3], v[4], v[7], v[8], v[9]]
    show("two ambiguous boundary matches", twin, defects)


if __name__ == "__main__":
    main()
