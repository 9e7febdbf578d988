"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted by every workload in
both modes, and that the correctness gate fires when one edge is removed from
a correction.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY_SECONDS = 0.1
CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    report = run.run(workload, seed=3, seconds=TINY_SECONDS, trace=bool(trace))
    result = report["result"]
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float)), m["name"]
        if not trace:
            assert emitted["value"] > 0, m["name"]


@pytest.fixture(scope="module")
def toric():
    lq = run._import_program()
    return lq, run._setup_toric(lq)


def test_gate_rejects_a_correction_missing_one_edge(toric):
    lq, graph = toric
    chunk = next(run.race_syndromes(lq, graph, 512, seed=5))
    syndrome = next(s for s in chunk if s.defects)
    correction = lq.decode(graph, syndrome, lq.DecoderKind.UNION_FIND).correction
    assert run.correction_ok(graph, syndrome.defects, correction)
    assert not run.correction_ok(graph, syndrome.defects, correction - {min(correction)})


def test_race_counts_a_decoder_that_drops_an_edge(toric, monkeypatch):
    lq, graph = toric
    decode = lq.decoders.decode

    def lossy(graph, syndrome, kind):
        record = decode(graph, syndrome, kind)
        if kind is lq.DecoderKind.MWPM and record.correction:
            return record._replace(correction=record.correction - {min(record.correction)})
        return record

    monkeypatch.setattr(lq.decoders, "decode", lossy)
    res = run.race(lq, graph, 512, seed=5)
    # MWPM decodes the first of every MWPM_STRIDE[n] syndromes with n defects.
    picked = {n: -(-c // run.MWPM_STRIDE.get(n, 1)) for n, c in res["defect_counts"].items()}
    assert sum(c for n, c in picked.items() if n) > 0
    assert res["failed"] == sum(c for n, c in picked.items() if n)
    assert len(res["times"]["mwpm"][0]) == picked.get(0, 0)


def test_wilson_gate_separates_a_fourfold_rate():
    ref = {"failures": 300, "trials": 120_000}
    assert run.consistent(30, 12_000, ref)
    assert not run.consistent(120, 12_000, ref)
