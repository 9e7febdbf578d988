"""Monte Carlo campaigns: failure-rate estimation, logical-error estimation,
paired decoder benchmarks, bandwidth curves and requirement tables.

Every estimate is reproducible from a master seed.  Trials run in blocks of
``BLOCK``, and block ``b`` samples all its trials' errors from the Philox
stream ``(seed, b)`` in both noise modes: circuit-level faults through
``FaultSampler``, perfect-measurement edge flips through ``EdgeSampler``,
both by the one geometric-skip routine ``noise.geometric_hits``.  A last,
partial block is sampled whole and truncated, so a trial's outcome depends
neither on the worker count, nor on scheduling order, nor on the number of
trials.  The lazy rule runs on a whole block at once (``lazy.lazy_block``);
only its failures, and the trials of the decoders without a lazy stage, are
decoded one by one, and one ``edge_syndromes`` call checks all of a block's
corrections.  Rates come with Wilson 95% intervals; a run with zero
observed failures reports the rule-of-three upper bound 3/n and is marked
censored.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .code_model import (
    CheckBasis,
    CodeKind,
    CodeLayout,
    build_rotated_surface_code,
    build_schedule,
    build_toric_code,
)
from .decoders import DecoderKind, decode
from .graph import DecodingGraph, Syndrome, build_decoding_graph, build_perfect_graph
# lazy_decode stays importable here: the benchmark's tracer wraps experiments.lazy_decode
from .lazy import lazy_block, lazy_decode  # noqa: F401
from .noise import EdgeSampler, FaultSampler, NoiseMode, NoiseParams, make_rng
# trial_rng stays importable here: the benchmark's tracer wraps experiments.trial_rng
from .noise import trial_rng  # noqa: F401
from .resources import RequirementReport, SystemParams, requirement_report, select_distance


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo rate with a 95% confidence interval."""

    point: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int
    censored: bool = False     # zero events: ci_high is the 3/n bound

    def to_json_dict(self) -> dict:
        return {
            "point": self.point,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials": self.trials,
            "seed": self.seed,
            "censored": self.censored,
        }


def wilson_interval(k: int, n: int, z: float = 1.959964) -> tuple[float, float]:
    """Wilson score interval for k events in n trials."""
    if n <= 0:
        raise ValueError("n must be positive")
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_from_counts(k: int, n: int, seed: int) -> Estimate:
    if k == 0:
        return Estimate(0.0, 0.0, min(1.0, 3.0 / n), n, seed, censored=True)
    lo, hi = wilson_interval(k, n)
    return Estimate(k / n, lo, hi, n, seed)


# --- worker pool --------------------------------------------------------------

# Trials per block.  A block pays a fixed numpy cost, so small blocks are
# slow: at d=15, p=1e-4 sampling, syndrome keys and the lazy rule took 4.0,
# 1.6-1.9 and 1.3-1.4 us per trial at 64, 256 and 1024 trials per block.  A
# block draws from one stream, so changing BLOCK changes every result of a
# seed.
BLOCK = 256

_WORKER_CTX = None


def _set_worker_ctx(ctx):
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _run_chunk(blocks):
    fn, payload, seed = _WORKER_CTX
    return [r for lo, hi in blocks for r in fn(payload, seed, lo, hi)]


def _run_trials(fn, payload, seed: int, trials: int, workers: int) -> list:
    """Per-trial results of ``fn(payload, seed, lo, hi)``, which returns the
    results of trials ``lo .. hi-1``, called once per block of ``BLOCK``
    trials, optionally across a process pool.  Output order and content are
    worker-count independent."""
    blocks = [(lo, min(lo + BLOCK, trials)) for lo in range(0, trials, BLOCK)]
    if workers <= 1:
        return [r for lo, hi in blocks for r in fn(payload, seed, lo, hi)]
    chunk = max(1, len(blocks) // (workers * 8))
    chunks = [blocks[i:i + chunk] for i in range(0, len(blocks), chunk)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_set_worker_ctx, initargs=((fn, payload, seed),)) as pool:
        parts = pool.map(_run_chunk, chunks)
    return [r for part in parts for r in part]


# --- layout / graph selection ---------------------------------------------------


def _build_layout(kind: CodeKind | str, d: int) -> CodeLayout:
    kind = CodeKind(kind) if isinstance(kind, str) else kind
    if kind is CodeKind.ROTATED_SURFACE:
        return build_rotated_surface_code(d)
    return build_toric_code(d)


# --- p_fail -----------------------------------------------------------------


def _fault_block(graph: DecodingGraph, sampler: FaultSampler, seed: int, lo: int, hi: int):
    """Circuit-level faults over the window's noisy rounds for trials
    ``lo .. hi-1``, ``lo`` a multiple of ``BLOCK``: the whole block is sampled
    from the stream ``(seed, lo // BLOCK)`` and truncated.  Returns the
    defect keys and logical-flip masks of ``DecodingGraph.block_syndromes``."""
    keys, obs = graph.block_syndromes(sampler.sample_block(make_rng(seed, lo // BLOCK), BLOCK))
    n = hi - lo
    return keys[: np.searchsorted(keys, n * graph.int_view.n_v)], obs[:n]


def _p_fail_block(payload, seed, lo, hi) -> list[bool]:
    graph, sampler = payload
    keys, _ = _fault_block(graph, sampler, seed, lo, hi)
    return (lazy_block(graph, keys, hi - lo).failure != 0).tolist()


def estimate_p_fail(
    p: float,
    d: int,
    trials: int,
    seed: int,
    *,
    basis: CheckBasis = CheckBasis.X,
    workers: int = 1,
) -> Estimate:
    """Probability that the lazy decoder fails on one d-round window of one
    check basis under circuit-level noise at rate ``p``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if p == 0.0:
        return estimate_from_counts(0, trials, seed)
    layout = build_rotated_surface_code(d)
    schedule = build_schedule(layout)
    graph = build_decoding_graph(layout, schedule, d, NoiseParams(p), basis)
    sampler = FaultSampler(graph.census, graph.noisy_rounds, p)
    results = _run_trials(_p_fail_block, (graph, sampler), seed, trials, workers)
    return estimate_from_counts(sum(results), trials, seed)


# --- logical error rates -------------------------------------------------------


def _edge_block(graph: DecodingGraph, sampler: EdgeSampler, seed: int, lo: int, hi: int):
    """Perfect-measurement errors of trials ``lo .. hi-1``, ``lo`` a multiple
    of ``BLOCK``: each graph edge flips independently with its probability,
    the whole block sampled from the stream ``(seed, lo // BLOCK)`` by
    geometric skipping and truncated.  Returns the defect keys and
    logical-flip masks of ``DecodingGraph.edge_syndromes``."""
    trial, edge = sampler.sample_block(make_rng(seed, lo // BLOCK), BLOCK)
    keep = trial < hi - lo
    return graph.edge_syndromes(trial[keep], edge[keep], hi - lo)


_LAZY_KINDS = (DecoderKind.LAZY, DecoderKind.LAZY_UNION_FIND, DecoderKind.LAZY_MWPM)


def _logical_block(payload, seed, lo, hi) -> list[bool]:
    """Per-trial logical failures of trials ``lo .. hi-1``.  The lazy
    configurations run the lazy rule on the whole block; only its failures,
    and every trial of the other decoders, are decoded one by one, MWPM on the
    campaign's store of searches.  One ``edge_syndromes`` call then checks
    every correction of the block against its trial's syndrome and gives the
    corrections' logical-flip masks."""
    graph, sample, kind, searches = payload
    keys, obs = sample(seed, lo, hi)
    n = hi - lo
    if kind in _LAZY_KINDS:
        out = lazy_block(graph, keys, n)
        solved = out.failure == 0
        trial, edge = out.trial, out.edge
    else:
        solved = np.zeros(n, dtype=bool)
        trial = edge = keys[:0]
    if kind is not DecoderKind.LAZY:
        failed = np.flatnonzero(~solved).tolist()
        at: list[int] = []
        eids: list[int] = []
        for i, syndrome in zip(failed, graph.key_syndromes(keys, failed)):
            correction = decode(graph, syndrome, kind, searches=searches).correction
            at += [i] * len(correction)
            eids += correction
        trial = np.concatenate([trial, np.array(at, dtype=np.int64)])
        edge = np.concatenate([edge, np.array(eids, dtype=np.int64)])
        solved[failed] = True
    fixed, fixed_obs = graph.edge_syndromes(trial, edge, n)
    if not np.array_equal(fixed, keys[solved[keys // graph.int_view.n_v]]):
        raise ValueError("correction does not reproduce the syndrome")
    # a failure of the pre-decoder alone counts as a logical failure
    return (((obs ^ fixed_obs) != 0) | ~solved).tolist()


def estimate_logical_error(
    decoder_kind: DecoderKind,
    p: float,
    d: int,
    trials: int,
    seed: int,
    mode: NoiseMode = NoiseMode.PERFECT_MEASUREMENT,
    *,
    layout_kind: CodeKind | None = None,
    workers: int = 1,
) -> Estimate:
    """Logical failure rate of one decoder configuration.

    Perfect-measurement mode draws independent Z data errors on a single
    2D slice (toric layout by default).  Circuit-level mode decodes a closed
    window of d noisy rounds plus one noiseless closing round (rotated layout
    by default).  Either way a trial fails when the logical flips of error
    and correction differ; a correction that does not reproduce the syndrome
    raises ``ValueError``.  MWPM, alone or as the fallback, resumes its
    per-vertex searches from window to window for the whole call (see
    ``decoders``); results do not depend on it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if p == 0.0:
        return estimate_from_counts(0, trials, seed)
    if mode is NoiseMode.PERFECT_MEASUREMENT:
        kind = layout_kind or CodeKind.TORIC_2D
        layout = _build_layout(kind, d)
        graph = build_perfect_graph(layout, NoiseParams(p, mode), CheckBasis.X)
        sample = partial(_edge_block, graph, EdgeSampler(graph.probability))
    else:
        kind = layout_kind or CodeKind.ROTATED_SURFACE
        layout = _build_layout(kind, d)
        schedule = build_schedule(layout)
        graph = build_decoding_graph(
            layout, schedule, d + 1, NoiseParams(p), CheckBasis.X,
            drop_initial=False, noisy_rounds=d,
        )
        sample = partial(_fault_block, graph, FaultSampler(graph.census, graph.noisy_rounds, p))
    # MWPM's searches, resumed from window to window of this call; each worker
    # fills its own copy
    searches: dict = {}
    results = _run_trials(_logical_block, (graph, sample, decoder_kind, searches),
                          seed, trials, workers)
    return estimate_from_counts(sum(results), trials, seed)


# --- paired runtime benchmark ----------------------------------------------------


def _syndrome_block(payload, seed, lo, hi) -> list[Syndrome]:
    graph, sampler = payload
    keys, _ = _edge_block(graph, sampler, seed, lo, hi)
    return graph.key_syndromes(keys, range(hi - lo))


def benchmark_runtime(
    decoder_kinds: list[DecoderKind],
    p: float,
    d: int,
    trials: int,
    seed: int,
    *,
    layout_kind: CodeKind = CodeKind.TORIC_2D,
) -> dict[DecoderKind, dict[str, float]]:
    """Wall-time statistics per decoder kind over an identical instance
    stream (perfect-measurement mode): the syndromes of the trials of
    ``estimate_logical_error`` with the same seed, sampled block by block
    from the streams ``(seed, b)``.  Timings cover the decode call only.
    Each syndrome is decoded by every kind in turn, starting one kind later
    on each syndrome, so drift in machine speed hits all kinds alike.

    Every call is the stateless ``decode``: MWPM runs on a fresh store of
    searches, the latency of a window that meets its decoder cold.  Resuming
    searches across the stream, as ``estimate_logical_error`` does, measures
    throughput instead: on test_09's 100,000 syndromes (toric d=20, p=1e-3)
    one store shared by every call took MWPM's mean from 104 to 16 us, and
    the lazy front end's speed-up over it from 22.0x to 4.2x."""
    layout = _build_layout(layout_kind, d)
    graph = build_perfect_graph(layout, NoiseParams(p, NoiseMode.PERFECT_MEASUREMENT))
    syndromes = _run_trials(_syndrome_block, (graph, EdgeSampler(graph.probability)),
                            seed, trials, 1)

    times = np.empty((len(decoder_kinds), trials))
    fallbacks = [0] * len(decoder_kinds)
    order = list(range(len(decoder_kinds)))
    for i, syndrome in enumerate(syndromes):
        for j in order:
            t0 = time.perf_counter()
            rec = decode(graph, syndrome, decoder_kinds[j])
            times[j, i] = time.perf_counter() - t0
            fallbacks[j] += rec.used_fallback
        order = order[1:] + order[:1]
    return {
        kind: {
            "mean": float(times[j].mean()),
            "p99": float(np.percentile(times[j], 99)),
            "max": float(times[j].max()),
            "total": float(times[j].sum()),
            "fallback_fraction": fallbacks[j] / trials,
        }
        for j, kind in enumerate(decoder_kinds)
    }


# --- bandwidth curves and the requirement table -----------------------------------


def bandwidth_curve(
    p_list: list[float],
    d_list: list[int],
    trials: int,
    seed: int,
    *,
    tau: float = 1e-6,
    workers: int = 1,
) -> list[dict]:
    """Average readout-to-decoder bandwidth per logical qubit, with and
    without the lazy stage.  A failed window retransmits its basis's full
    syndrome stream, so the with-lazy average is ``p_fail (d^2 - 1)/tau``."""
    rows = []
    for p in p_list:
        for d in d_list:
            est = estimate_p_fail(p, d, trials, seed, workers=workers)
            bw = (d * d - 1) / tau
            p_eff = est.point if not est.censored else est.ci_high
            rows.append(
                {
                    "p": p,
                    "d": d,
                    "p_fail": est.point,
                    "p_fail_ci_high": est.ci_high,
                    "censored": est.censored,
                    "bw_without": bw,
                    "bw_with": est.point * bw,
                    "bw_with_upper": p_eff * bw,
                }
            )
    return rows


def reproduce_table(
    p_target: float,
    p_list: list[float],
    K_list: list[int],
    trials: int,
    seed: int,
    *,
    tau: float = 1e-6,
    workers: int = 1,
) -> list[tuple[SystemParams, RequirementReport, Estimate]]:
    """Requirement report rows over a (p, K) grid with re-measured p_fail.

    The failure probability is measured once per physical rate at the
    selected distance; censored estimates fall back to their upper bound so
    the provisioning stays conservative.
    """
    rows = []
    for p in p_list:
        d = select_distance(p, p_target)
        est = estimate_p_fail(p, d, trials, seed, workers=workers)
        p_fail = est.ci_high if est.censored else est.point
        for K in K_list:
            params = SystemParams(p=p, p_target=p_target, K=K, tau=tau, p_fail=p_fail)
            rows.append((params, requirement_report(params), est))
    return rows
