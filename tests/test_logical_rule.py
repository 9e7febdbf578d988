"""The logical-failure rule of `estimate_logical_error`.

A trial fails when the logical-flip masks of error and correction differ.  In
perfect-measurement mode this is checked, trial by trial, against the slow
rule it replaced: map every edge back to its data qubit, form the residual
qubit frame of error plus correction, and ask `is_logical_failure`.
"""

import pytest

from fault_reference import perfect_trials
from lazyqec import experiments
from lazyqec.code_model import CheckBasis, CodeKind
from lazyqec.decoders import DecoderKind, decode
from lazyqec.experiments import _build_layout, estimate_logical_error
from lazyqec.graph import Syndrome, build_perfect_graph, is_logical_failure
from lazyqec.lazy import lazy_decode
from lazyqec.noise import NoiseMode, NoiseParams

P = 0.05
TRIALS = 1000
SEED = 17


def qubit_of_edge(layout, graph) -> list[int]:
    """Data qubit of each edge, found from the layout by the X checks that
    see it and by its parity against each logical Z representative.  Where
    two qubits share both, as the boundary pairs that the graph merges into
    one half-edge do, they have the same syndrome and logical parity, so
    either gives the same verdict."""
    checks = layout.checks(CheckBasis.X)
    logicals = layout.logical_supports(CheckBasis.Z)
    by_key: dict = {}
    for q in range(layout.n_data):
        seen_by = frozenset(p.basis_index for p in checks if q in p.support)
        mask = sum(1 << i for i, rep in enumerate(logicals) if q in rep)
        by_key.setdefault((seen_by, mask), []).append(q)
    out = []
    for eid in range(graph.n_edges):
        e = graph.edge(eid)
        seen_by = frozenset(v[0] for v in (e.u, e.v) if v is not None)
        out.append(by_key[seen_by, e.obs].pop())
    return out


def reference_verdicts(layout_kind, d, kind, seed, trials) -> list[bool]:
    layout = _build_layout(layout_kind, d)
    graph = build_perfect_graph(layout, NoiseParams(P, NoiseMode.PERFECT_MEASUREMENT))
    qubit = qubit_of_edge(layout, graph)
    checks = layout.checks(CheckBasis.X)
    out = []
    for hits in perfect_trials(graph, seed, trials):
        error = {qubit[eid] for eid in hits}
        syndrome = Syndrome.of(
            (p.basis_index, 0) for p in checks if len(error & set(p.support)) % 2
        )
        if kind is DecoderKind.LAZY:
            correction = lazy_decode(graph, syndrome).correction
            if correction is None:
                out.append(True)
                continue
        else:
            correction = decode(graph, syndrome, kind).correction
        residual = error ^ {qubit[eid] for eid in correction}
        out.append(is_logical_failure(layout, residual, CheckBasis.Z))
    return out


def package_verdicts(monkeypatch, **kw) -> list[bool]:
    """Per-trial verdicts of `estimate_logical_error`, as its trial runner
    returns them."""
    seen: list[bool] = []
    run_trials = experiments._run_trials

    def record(*args):
        out = run_trials(*args)
        seen.extend(out)
        return out

    monkeypatch.setattr(experiments, "_run_trials", record)
    est = estimate_logical_error(**kw)
    assert est.point == sum(seen) / len(seen)
    return seen


@pytest.mark.parametrize(
    "layout_kind, d",
    [(CodeKind.TORIC_2D, 4), (CodeKind.TORIC_2D, 6),
     (CodeKind.ROTATED_SURFACE, 3), (CodeKind.ROTATED_SURFACE, 5),
     (CodeKind.ROTATED_SURFACE, 7)],
)
@pytest.mark.parametrize(
    "kind",
    [DecoderKind.LAZY, DecoderKind.UNION_FIND, DecoderKind.MWPM, DecoderKind.LAZY_UNION_FIND,
     DecoderKind.LAZY_MWPM],
)
def test_mask_rule_matches_residual_frames(monkeypatch, layout_kind, d, kind):
    got = package_verdicts(
        monkeypatch, decoder_kind=kind, p=P, d=d, trials=TRIALS, seed=SEED,
        layout_kind=layout_kind,
    )
    want = reference_verdicts(layout_kind, d, kind, SEED, TRIALS)
    assert got == want
    assert 0 < sum(want) < TRIALS


@pytest.mark.parametrize(
    "mode, p, d",
    [(NoiseMode.PERFECT_MEASUREMENT, P, 4), (NoiseMode.CIRCUIT_LEVEL, 5e-3, 3)],
)
def test_correction_that_misses_the_syndrome_raises(monkeypatch, mode, p, d):
    def lossy(graph, syndrome, kind, **kw):
        record = decode(graph, syndrome, kind, **kw)
        if record.correction:
            return record._replace(correction=record.correction - {min(record.correction)})
        return record

    monkeypatch.setattr(experiments, "decode", lossy)
    with pytest.raises(ValueError, match="does not reproduce the syndrome"):
        estimate_logical_error(DecoderKind.UNION_FIND, p, d, trials=200, seed=3, mode=mode)
