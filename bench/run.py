#!/usr/bin/env python3
"""lazyqec benchmark: campaign throughput and decoder latency.

Run from the repository root, which holds ``src/lazyqec``:

    python3 bench/run.py --workload plan_p1e-4 --seed 1 --seconds 30 --trace 0

Every run does three things in one process, with ``workers=1``:

* set-up: the public builders of the workload's graph, timed on their own
  several times (``setup_s`` is the median);
* campaign: one public campaign call (``reproduce_table`` or
  ``estimate_logical_error``), timed as a user sees it, graph build included;
* race: the four decoder configurations on identical perfect-measurement
  syndromes of the toric d=20 graph at p=1e-3, interleaved per syndrome and
  timed per ``decode`` call.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload's main part (the race for ``race_toric_d20``, the campaign
otherwise) untraced and then traced, and reports the per-layer metrics.

Work sizes are fixed per workload for a run of ``run_seconds`` (from
BENCHMARK.json) and scale with ``--seconds``, so counts repeat exactly for a
given seed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full report, with
the environment stamp and sample counts, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402

# z of the Wilson intervals in the statistical gate: at z=4 two estimates of
# the same rate fail to overlap in well under 1 run in 10,000.
GATE_Z = 4.0
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.0, 25
RACE_KINDS = ("uf", "lazy+uf", "mwpm", "lazy+mwpm")
# Syndrome i is decoded in the order RACE_ORDERS[i % 24]: over 24 syndromes
# every configuration runs in every position and after every other one, so
# neither drift nor the cache a preceding MWPM call leaves behind favours one.
RACE_ORDERS = tuple(itertools.permutations(range(len(RACE_KINDS))))
# One MWPM call costs 250 lazy calls or more, growing with the defect count, so
# plain MWPM decodes a stratified sample: every MWPM_STRIDE[n]-th syndrome with
# n defects, each weighted by its stride.  Sampling the rare many-defect
# syndromes more often keeps its p99, which sits among the 8-defect windows,
# on a few hundred samples.  The other three configurations decode every
# syndrome.
MWPM_STRIDE = {0: 32, 2: 32, 4: 16, 6: 8, 8: 4, 10: 2}
RACE_CHUNK = 1024
RACE_BLOCKS = 5
RACE_D, RACE_P = 20, 1e-3


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lazyqec
        import lazyqec.code_model  # noqa: F401  (submodules used as attributes)
        import lazyqec.decoders  # noqa: F401
        import lazyqec.experiments  # noqa: F401
        import lazyqec.graph  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import lazyqec from {src}: {exc}")
    if Path(lazyqec.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: imported lazyqec from {lazyqec.__file__}, not from {src}")
    return lazyqec


# --- workloads ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int                      # campaign trials in a run of run_seconds
    syndromes: int                   # race syndromes in a run of run_seconds
    main: str                        # the part the traced run measures
    setup: Callable                  # (lq) -> graph, through the public builders
    campaign: Callable               # (lq, trials, seed) -> (failures, trials)


def _setup_plan(lq):
    d = lq.resources.select_distance(1e-4, 1e-15)
    layout = lq.code_model.build_rotated_surface_code(d)
    schedule = lq.code_model.build_schedule(layout)
    return lq.graph.build_decoding_graph(layout, schedule, d, lq.NoiseParams(1e-4), lq.CheckBasis.X)


def _campaign_plan(lq, trials, seed):
    rows = lq.experiments.reproduce_table(
        1e-15, [1e-4], [100, 1000, 10000], trials, seed, workers=1,
    )
    if len(rows) != 3 or any(report.d != 15 for _, report, _ in rows):
        raise ValueError(f"reproduce_table selected {[r.d for _, r, _ in rows]}, expected d=15")
    est = rows[0][2]
    if any(row[2] != est for row in rows):
        raise ValueError("reproduce_table rows disagree on p_fail")
    return _count(est), est.trials


def _setup_d9(lq):
    layout = lq.code_model.build_rotated_surface_code(9)
    schedule = lq.code_model.build_schedule(layout)
    return lq.graph.build_decoding_graph(
        layout, schedule, 10, lq.NoiseParams(1e-3), lq.CheckBasis.X,
        drop_initial=False, noisy_rounds=9,
    )


def _campaign_d9(lq, trials, seed):
    est = lq.experiments.estimate_logical_error(
        lq.DecoderKind.LAZY_MWPM, 1e-3, 9, trials, seed, lq.NoiseMode.CIRCUIT_LEVEL, workers=1,
    )
    return _count(est), est.trials


def _setup_toric(lq):
    layout = lq.code_model.build_toric_code(RACE_D)
    noise = lq.NoiseParams(RACE_P, lq.NoiseMode.PERFECT_MEASUREMENT)
    return lq.graph.build_perfect_graph(layout, noise, lq.CheckBasis.X)


def _campaign_toric(lq, trials, seed):
    est = lq.experiments.estimate_logical_error(
        lq.DecoderKind.LAZY_MWPM, RACE_P, RACE_D, trials, seed, lq.NoiseMode.PERFECT_MEASUREMENT,
        layout_kind=lq.CodeKind.TORIC_2D, workers=1,
    )
    return _count(est), est.trials


def _count(est) -> int:
    return round(est.point * est.trials)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("plan_p1e-4", 12000, 70_000, "campaign", _setup_plan, _campaign_plan),
        Workload("logical_lazy_mwpm_d9", 12000, 70_000, "campaign", _setup_d9, _campaign_d9),
        Workload("race_toric_d20", 24000, 70_000, "race", _setup_toric, _campaign_toric),
    )
}


# --- set-up and campaign --------------------------------------------------------------


def measure_setup(lq, workload: Workload) -> list[float]:
    """Wall times of the workload's builders over several set-ups."""
    times = []
    while len(times) < SETUP_MAX_REPS and (len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S):
        graph = None     # free the previous graph outside the timed region
        gc.collect()
        t0 = time.perf_counter()
        graph = workload.setup(lq)
        times.append(time.perf_counter() - t0)
    del graph
    return times


def wilson(k: int, n: int, z: float = GATE_Z) -> tuple[float, float]:
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def consistent(k: int, n: int, ref: dict) -> bool:
    """Whether the Wilson intervals of a run and of the stored reference overlap."""
    lo, hi = wilson(k, n)
    rlo, rhi = wilson(ref["failures"], ref["trials"])
    return lo <= rhi and rlo <= hi


# --- decoder race ------------------------------------------------------------------------


def race_syndromes(lq, graph, n: int, seed: int):
    """Yield chunks of syndromes: each edge of the graph flips independently
    with its probability, and a flipped edge toggles its endpoints."""
    rng = np.random.default_rng([seed, 20])
    probs = np.array([e.probability for e in graph.edges])
    ends = [(e.u,) if e.v is None else (e.u, e.v) for e in graph.edges]
    for lo in range(0, n, RACE_CHUNK):
        flips = rng.random((min(RACE_CHUNK, n - lo), probs.size)) < probs
        chunk = []
        for row in flips:
            acc: set = set()
            for eid in np.flatnonzero(row):
                acc.symmetric_difference_update(ends[eid])
            chunk.append(lq.Syndrome(frozenset(acc)))
        yield chunk


def _race_out() -> dict:
    return {"attempted": 0, "failed": 0, "fallbacks": dict.fromkeys(RACE_KINDS, 0), "errors": [],
            "defect_counts": Counter()}


def race(lq, graph, n: int, seed: int, tracer=None) -> dict:
    """Decode each syndrome with every configuration, in an order that changes
    per syndrome; time each ``decode`` call and check every correction outside
    the timed call.  The first chunk is decoded once untimed beforehand,
    because the first pass of a cold process measures up to 50% slower."""
    dec = lq.decoders
    kinds = [lq.DecoderKind(k) for k in RACE_KINDS]
    times = {k: (array("d"), array("i"), array("b")) for k in RACE_KINDS}
    out = _race_out()
    chunks = race_syndromes(lq, graph, n, seed)
    first = next(chunks)
    if tracer is not None:
        tracer.active = False
    _race_pass(dec, graph, kinds, first, None, _race_out())
    if tracer is not None:
        tracer.active = True
    offset = 0
    for chunk in itertools.chain([first], chunks):
        _race_pass(dec, graph, kinds, chunk, times, out, offset, tracer)
        offset += len(chunk)
    out["syndromes"] = offset
    out["times"] = times
    return out


def _race_pass(dec, graph, kinds, syndromes, times, out, offset=0, tracer=None):
    clock = time.perf_counter
    for j, syndrome in enumerate(syndromes):
        i = offset + j
        if tracer is not None:
            tracer.trial_index = i
        n_defects = len(syndrome.defects)
        stride = MWPM_STRIDE.get(n_defects, 1)
        with_mwpm = out["defect_counts"][n_defects] % stride == 0
        out["defect_counts"][n_defects] += 1
        for r in RACE_ORDERS[i % len(RACE_ORDERS)]:
            kind = kinds[r]
            if kind.value == "mwpm" and not with_mwpm:
                continue
            out["attempted"] += 1
            try:
                t0 = clock()
                record = dec.decode(graph, syndrome, kind)
                dt = clock() - t0
            except Exception:   # noqa: BLE001  (count it, report it, keep racing)
                out["failed"] += 1
                out["errors"].append(f"{kind.value}: {traceback.format_exc(limit=3)}")
                continue
            if not correction_ok(graph, syndrome.defects, record.correction):
                out["failed"] += 1
                out["errors"].append(f"{kind.value}: correction does not reproduce the syndrome")
                continue
            out["fallbacks"][kind.value] += record.used_fallback
            if times is not None:
                durations, weights, empty = times[kind.value]
                durations.append(dt)
                weights.append(stride if kind.value == "mwpm" else 1)
                empty.append(n_defects == 0)


def correction_ok(graph, defects, correction) -> bool:
    """The correctness gate: a correction must reproduce its syndrome."""
    return correction is not None and graph.correction_syndrome(correction) == defects


def race_metrics(times: dict) -> tuple[dict, dict]:
    """Per configuration: the weighted mean over all syndromes (the rate a
    decoding unit sustains), and weighted p50 and p99 over syndromes with
    defects, each the median over RACE_BLOCKS consecutive blocks of the race.

    Close to half of the syndromes are empty and return at once; counting them
    would put the median at the fastest edge of the non-trivial calls.  The
    median over blocks keeps a slowdown of the machine that lasts a few
    seconds from moving the quantiles."""
    metrics, samples = {}, {}
    for kind in RACE_KINDS:
        durations, weights, empty = (np.array(a) for a in times[kind])
        if durations.size == 0:
            continue
        x, w = durations * 1e6, weights.astype(float)
        busy = ~empty.astype(bool) if not empty.all() else np.ones(x.size, dtype=bool)
        blocks = [(xb[bb], wb[bb]) for xb, wb, bb in zip(
            np.array_split(x, RACE_BLOCKS), np.array_split(w, RACE_BLOCKS),
            np.array_split(busy, RACE_BLOCKS)) if bb.any()]
        key = kind.replace("+", "_")
        p99s = [weighted_quantile(xb, wb, 0.99) for xb, wb in blocks]
        metrics[f"decode_us_p50.{key}"] = float(np.median([weighted_quantile(xb, wb, 0.50)
                                                           for xb, wb in blocks]))
        metrics[f"decode_us_p99.{key}"] = float(np.median(p99s))
        metrics[f"decode_us_mean.{key}"] = float(np.average(x, weights=w))
        samples[key] = {
            "samples": int(x.size), "with_defects": int(busy.sum()), "blocks": len(blocks),
            "min_beyond_p99_per_block": min(
                int((xb > p).sum()) for (xb, _), p in zip(blocks, p99s)),
        }
    return metrics, samples


def weighted_quantile(x, w, q: float) -> float:
    """Smallest value whose cumulative weight reaches the share ``q``."""
    order = np.argsort(x, kind="stable")
    cum = np.cumsum(w[order])
    return float(x[order][np.searchsorted(cum, q * cum[-1])])


# --- runs -----------------------------------------------------------------------------


def run_end_to_end(lq, workload: Workload, seed: int, trials: int, n_syn: int,
                   refs: dict, report: dict) -> dict:
    setup_times = measure_setup(lq, workload)
    report["setup_times_s"] = setup_times
    report["attempted"] += len(setup_times)
    metrics = {"setup_s": statistics.median(setup_times)}

    gc.collect()
    t0 = time.perf_counter()
    k, n = workload.campaign(lq, trials, seed)
    wall = time.perf_counter() - t0
    metrics["trials_per_s"] = n / wall
    _gate_campaign(workload, k, n, refs, report)

    res = _race_and_report(lq, n_syn, seed, report)
    race_m, report["race"]["samples"] = race_metrics(res["times"])
    metrics.update(race_m)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def _race_and_report(lq, n_syn: int, seed: int, report: dict, tracer=None) -> dict:
    graph = _setup_toric(lq)
    gc.collect()
    t0 = time.perf_counter()
    res = race(lq, graph, n_syn, seed, tracer)
    report["race"] = {
        "graph": f"toric d={RACE_D}, p={RACE_P}", "syndromes": res["syndromes"],
        "mwpm_stride": MWPM_STRIDE, "wall_s": time.perf_counter() - t0,
        "fallbacks": res["fallbacks"], "errors": res["errors"][:10],
        "defect_counts": dict(sorted(res["defect_counts"].items())),
    }
    report["attempted"] += res["attempted"]
    report["failed"] += res["failed"]
    return res


def _gate_campaign(workload, k, n, refs, report):
    ref = refs[workload.name]
    ok = consistent(k, n, ref)
    report["campaign"] = {
        "trials": n, "failures": k, "wilson_z": GATE_Z, "interval": wilson(k, n),
        "reference": ref, "reference_interval": wilson(ref["failures"], ref["trials"]),
        "consistent": ok,
    }
    report["attempted"] += n
    if not ok:
        report["failed"] += n


def run_traced(lq, workload: Workload, seed: int, trials: int, n_syn: int,
               refs: dict, report: dict) -> dict:
    """The main part untraced, then traced; per-layer metrics from the spans."""

    def main_part(tracer=None):
        if workload.main == "campaign":
            k, n = workload.campaign(lq, trials, seed)
            _gate_campaign(workload, k, n, refs, report)
        else:
            _race_and_report(lq, n_syn, seed, report, tracer)

    t0 = time.perf_counter()
    main_part()
    untraced = time.perf_counter() - t0

    tracer = spans.Tracer()
    spans.install(tracer, lq)
    try:
        root = tracer.open(f"bench.{workload.main}")
        try:
            main_part(tracer)
        finally:
            tracer.close(root)
    finally:
        tracer.restore()

    metrics, detail = spans.layer_metrics(tracer, root, untraced)
    bad = [c for c in tracer.checks if not correction_ok(c[1], c[2], c[3])]
    report["attempted"] += len(tracer.checks)
    report["failed"] += len(bad)
    detail["checked_calls"] = len(tracer.checks)
    detail["check_failures"] = [c[0] for c in bad[:10]]
    # Spans must nest: no span outside the root and no negative self time, so
    # that the self times of all spans add up to the root span's duration.
    nested = detail["min_self_s"] >= -1e-9
    if not nested or abs(detail["self_time_error_s"]) > 1e-6 * max(1.0, detail["root_s"]):
        report["failed"] += 1
    report["attempted"] += 1
    report["trace"] = detail
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans_{workload.name}_seed{seed}.npz")
    return metrics


# --- environment and output ------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import networkx
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def load_config() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        config = json.load(fh)
    with open(BENCH / "reference.json") as fh:
        refs = json.load(fh)
    return config, refs


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full report, whose ``result`` is the
    contract object printed last."""
    config, refs = load_config()
    lq = _import_program()
    workload = WORKLOADS[workload_name]
    scale = seconds / config["run_seconds"]
    trials = max(1, round(workload.trials * scale))
    n_syn = max(RACE_CHUNK // 2, round(workload.syndromes * scale))
    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "trials": trials, "syndromes": n_syn,
        "environment": environment(), "attempted": 0, "failed": 0,
    }
    t0 = time.perf_counter()
    if trace:
        values = run_traced(lq, workload, seed, trials, n_syn, refs, report)
        declared = config["per_layer"]
    else:
        values = run_end_to_end(lq, workload, seed, trials, n_syn, refs, report)
        declared = config["end_to_end"]
    report["wall_s"] = time.perf_counter() - t0

    metrics, missing = {}, []
    for m in declared:
        if m["name"] not in values:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    report["missing_metrics"] = missing
    failed = report["failed"] + len(missing)
    report["result"] = {
        "correct": failed == 0,
        "attempted": report["attempted"] + len(missing),
        "failed": failed,
        "metrics": metrics,
    }
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    result = report["result"]
    for name, m in result["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:40s} {value:>14s} {m['unit']}")
    stamp = {k: report[k] for k in ("workload", "seed", "trials", "syndromes", "environment")}
    print(f"# run: {json.dumps(stamp)}")
    print(f"# report: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
