"""Span tracer for the benchmark's traced run.

The tracer wraps public functions at the module attributes the program calls
through (``experiments.lazy_decode``, ``decoders.hierarchical_decode``,
``networkx.max_weight_matching``, ...) and records one span per call: name,
start, end, parent span and trial index.  Spans live in column arrays in
memory and are written out once, when the run ends.  Calls that go through a
private table (the fallback dict in ``decoders``) are not patched; their time
is the parent span's self time.

A wrap point that no longer exists is recorded as absent, and the metrics that
depend on it are reported as absent, so a later change that restructures the
program's internals still gets a traced run.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

# Upper edges of the defects-per-window histogram buckets; the last bucket is
# open-ended.
DEFECT_BUCKETS = ((0, "0"), (1, "1"), (2, "2"), (3, "3"), (4, "4"), (8, "5-8"),
                  (16, "9-16"), (32, "17-32"), (None, "ge33"))

EDGE_KINDS = ("space", "time", "diagonal", "boundary", "time_boundary")

# hierarchical_decode spans carry the fallback that ran in their aux column
# (0 when the lazy decoder succeeded).
_FALLBACK_UF, _FALLBACK_MWPM = 1, 2


def defect_bucket(n: int) -> str:
    for top, label in DEFECT_BUCKETS:
        if top is None or n <= top:
            return label
    raise AssertionError("unreachable")


class Tracer:
    """In-memory span recorder plus the per-layer counters of a traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("q")
        self.aux = array("q")
        self._stack: list[int] = []
        # Tagged on every span opened; set from the argument of
        # noise.trial_rng, or by the race per syndrome.
        self.trial_index = -1
        self.active = True
        self.absent: list[str] = []
        self._wrapped_names: set[str] = set()
        self.graphs: list = []
        self.lazy_failures: Counter = Counter()
        self.defects_hist: Counter = Counter()
        self.defects_total = 0
        # (span name, graph, defects, correction): checked after the traced
        # part so the check's time lands in no span.
        self.checks: list[tuple] = []
        self._undo: list[tuple] = []

    # --- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name_col)
        self.name_col.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self.trial_index)
        self.aux.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError("spans closed out of order")

    # --- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a traced version until :meth:`restore`.

        ``before(tracer, args)`` runs before the span opens; ``after(tracer,
        span, args, result)`` runs after it closes.
        """
        orig = getattr(owner, attr, None)
        if not callable(orig):
            self.absent.append(f"{name} ({getattr(owner, '__name__', owner)}.{attr})")
            return
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            i = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(tracer, i, args, result)
            return result

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))
        self._wrapped_names.add(name)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def wrapped(self, name: str) -> bool:
        """Whether at least one wrap point records spans called ``name``."""
        return name in self._wrapped_names

    # --- output --------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trial": np.frombuffer(self.trial, dtype=np.int64),
            "aux": np.frombuffer(self.aux, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


# --- hooks --------------------------------------------------------------------


def _set_trial(tracer: Tracer, args) -> None:
    tracer.trial_index = int(args[1])


def _count_faults(tracer: Tracer, i: int, args, result) -> None:
    tracer.aux[i] = len(args[1])


def _keep_graph(tracer: Tracer, i: int, args, result) -> None:
    tracer.graphs.append(result)


def _lazy_outcome(tracer: Tracer, i: int, args, outcome) -> None:
    graph, syndrome = args[0], args[1]
    n = len(syndrome.defects)
    tracer.defects_total += n
    tracer.defects_hist[defect_bucket(n)] += 1
    if outcome.failure is None:
        tracer.checks.append(("lazy.lazy_decode", graph, syndrome.defects, outcome.correction))
    else:
        tracer.lazy_failures[outcome.failure.name] += 1


def _check(name: str):
    """Queue the call's correction for the syndrome check; decoders return
    either a DecodeRecord or the bare set of edge ids."""
    def after(tracer: Tracer, i: int, args, result) -> None:
        correction = getattr(result, "correction", result)
        tracer.checks.append((name, args[0], args[1].defects, correction))
    return after


def _hierarchical(tracer: Tracer, i: int, args, record) -> None:
    if record.used_fallback:
        uf = getattr(args[2] if len(args) > 2 else None, "value", "uf") == "uf"
        tracer.aux[i] = _FALLBACK_UF if uf else _FALLBACK_MWPM
    _check("decoders.hierarchical_decode")(tracer, i, args, record)


def _blossom_edges(tracer: Tracer, i: int, args, result) -> None:
    tracer.aux[i] = args[0].number_of_edges()


def install(tracer: Tracer, lq) -> None:
    """Wrap every layer's public entry points.  ``lq`` is the imported
    ``lazyqec`` package; its submodules are reached as attributes."""
    import networkx

    ex, dec, gr, cm = lq.experiments, lq.decoders, lq.graph, lq.code_model
    decode_check = _check("decoders.decode")
    points = [
        # campaigns, and what they call through the experiments namespace
        (ex, "reproduce_table", "experiments.reproduce_table", None, None),
        (ex, "estimate_p_fail", "experiments.estimate_p_fail", None, None),
        (ex, "estimate_logical_error", "experiments.estimate_logical_error", None, None),
        (ex, "build_rotated_surface_code", "code_model.build_rotated_surface_code", None, None),
        (ex, "build_toric_code", "code_model.build_toric_code", None, None),
        (ex, "build_schedule", "code_model.build_schedule", None, None),
        (ex, "build_decoding_graph", "graph.build_decoding_graph", None, _keep_graph),
        (ex, "build_perfect_graph", "graph.build_perfect_graph", None, _keep_graph),
        (ex, "trial_rng", "noise.trial_rng", _set_trial, None),
        (ex, "lazy_decode", "lazy.lazy_decode", None, _lazy_outcome),
        (ex, "decode", "decoders.decode", None, decode_check),
        (ex, "select_distance", "resources.select_distance", None, None),
        (ex, "requirement_report", "resources.requirement_report", None, None),
        # the builders as the benchmark itself calls them
        (cm, "build_rotated_surface_code", "code_model.build_rotated_surface_code", None, None),
        (cm, "build_toric_code", "code_model.build_toric_code", None, None),
        (cm, "build_schedule", "code_model.build_schedule", None, None),
        (gr, "build_decoding_graph", "graph.build_decoding_graph", None, _keep_graph),
        (gr, "build_perfect_graph", "graph.build_perfect_graph", None, _keep_graph),
        # graph methods used per trial
        (gr.DecodingGraph, "syndrome_of_faults", "graph.syndrome_of_faults", None, _count_faults),
        (gr.DecodingGraph, "obs_of_faults", "graph.obs_of_faults", None, None),
        (gr.DecodingGraph, "obs_of_edges", "graph.obs_of_edges", None, None),
        # imported inside experiments._perfect_trial on every call
        (gr, "is_logical_failure", "graph.is_logical_failure", None, None),
        # decoders, as decode() and hierarchical_decode() reach them
        (dec, "decode", "decoders.decode", None, decode_check),
        (dec, "hierarchical_decode", "decoders.hierarchical_decode", None, _hierarchical),
        (dec, "lazy_decode", "lazy.lazy_decode", None, _lazy_outcome),
        (dec, "uf_decode", "decoders.uf_decode", None, _check("decoders.uf_decode")),
        (dec, "mwpm_decode", "decoders.mwpm_decode", None, _check("decoders.mwpm_decode")),
        (networkx, "max_weight_matching", "decoders.blossom", None, _blossom_edges),
    ]
    for owner, attr, name, before, after in points:
        tracer.wrap(owner, attr, name, before=before, after=after)


# --- per-layer metrics -----------------------------------------------------------


def _pct(x: np.ndarray, q: float) -> float:
    return float(np.percentile(x, q)) if x.size else 0.0


def layer_metrics(tracer: Tracer, root: int, untraced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of the spans under ``root``, and a detail dict with
    sample counts and the self-time check."""
    col = tracer.columns()
    name = np.array(tracer.names)[col["name"]]
    layer = np.array([n.split(".")[0] for n in tracer.names])[col["name"]]
    dur = col["end"] - col["start"]
    parent = col["parent"]
    child_sum = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    self_t = dur - child_sum
    root_s = float(dur[root])

    def sel(*span_names):
        return np.isin(name, span_names)

    trials = int(sel("noise.trial_rng").sum())
    per_trial = 1.0 / trials if trials else 0.0

    lazy = dur[sel("lazy.lazy_decode")]
    hier = sel("decoders.hierarchical_decode")
    lazy_child = np.zeros(dur.size)
    is_lazy_child = sel("lazy.lazy_decode") & has_parent
    np.add.at(lazy_child, parent[is_lazy_child], dur[is_lazy_child])
    fb_time = dur - lazy_child
    aux = col["aux"]
    fb_uf = hier & (aux == _FALLBACK_UF)
    fb_mwpm = hier & (aux == _FALLBACK_MWPM)
    uf = np.concatenate([dur[sel("decoders.uf_decode")], fb_time[fb_uf]])
    mwpm = np.concatenate([dur[sel("decoders.mwpm_decode")], fb_time[fb_mwpm]])
    blossom = sel("decoders.blossom")
    fallbacks = int((fb_uf | fb_mwpm).sum())
    n_hier = int(hier.sum())
    lazy_calls = int(lazy.size)
    lazy_failed = sum(tracer.lazy_failures.values())

    m = {
        "code_model.build_s": float(dur[layer == "code_model"].sum()),
        "graph.build_s": float(
            dur[sel("graph.build_decoding_graph", "graph.build_perfect_graph")].sum()),
        "noise.trial_rng_us": float(dur[sel("noise.trial_rng")].mean() * 1e6) if trials else 0.0,
        "noise.faults_per_trial": float(aux[sel("graph.syndrome_of_faults")].sum() * per_trial),
        "experiments.self_us_per_trial": float(
            self_t[layer == "experiments"].sum() * 1e6 * per_trial),
        "graph.syndrome_us": _mean_us(dur[sel("graph.syndrome_of_faults")]),
        "graph.obs_us": float(
            dur[sel("graph.obs_of_faults", "graph.obs_of_edges")].sum() * 1e6 * per_trial),
        "lazy.decode_us.p50": _pct(lazy, 50) * 1e6,
        "lazy.decode_us.p99": _pct(lazy, 99) * 1e6,
        "lazy.calls": lazy_calls,
        "lazy.success_ratio": (lazy_calls - lazy_failed) / lazy_calls if lazy_calls else 0.0,
        "lazy.fail.too_many_ambiguous": tracer.lazy_failures["TOO_MANY_AMBIGUOUS"],
        "lazy.fail.residual_syndrome": tracer.lazy_failures["RESIDUAL_SYNDROME"],
        "lazy.defects_per_window": tracer.defects_total / lazy_calls if lazy_calls else 0.0,
        "decoders.uf_us.p50": _pct(uf, 50) * 1e6,
        "decoders.uf_us.p99": _pct(uf, 99) * 1e6,
        "decoders.mwpm_us.p50": _pct(mwpm, 50) * 1e6,
        "decoders.mwpm_us.p99": _pct(mwpm, 99) * 1e6,
        "decoders.mwpm.blossom_share": float(dur[blossom].sum() / mwpm.sum()) if mwpm.size else 0.0,
        "decoders.mwpm.blossom_edges": int(aux[blossom].sum()),
        "decoders.fallback_calls": fallbacks,
        "decoders.fallback_ratio": fallbacks / n_hier if n_hier else 0.0,
        "decoders.fallback_time_share": float(
            fb_time[fb_uf | fb_mwpm].sum() / dur[hier].sum()) if n_hier else 0.0,
        "resources.report_us": float(
            dur[sel("resources.select_distance", "resources.requirement_report")].sum() * 1e6),
        "trace.overhead_frac": root_s / untraced_s - 1.0,
    }
    for _, label in DEFECT_BUCKETS:
        m[f"lazy.defects_hist.{label}"] = tracer.defects_hist[label]
    m.update(graph_counts(tracer.graphs[0] if tracer.graphs else None))

    # Metrics whose spans come from a missing wrap point are absent, not 0.
    needs = {
        "noise.": "noise.trial_rng", "lazy.": "lazy.lazy_decode",
        "decoders.uf_us": "decoders.uf_decode", "decoders.mwpm_us": "decoders.mwpm_decode",
        "decoders.mwpm.": "decoders.blossom", "decoders.fallback": "decoders.hierarchical_decode",
        "graph.syndrome_us": "graph.syndrome_of_faults", "graph.obs_us": "graph.obs_of_faults",
        "resources.": "resources.requirement_report",
    }
    for key in list(m):
        for prefix, span in needs.items():
            if key.startswith(prefix) and not tracer.wrapped(span):
                m[key] = None

    self_sum = float(self_t.sum())
    detail = {
        "root_s": root_s,
        "untraced_s": untraced_s,
        "self_time_sum_s": self_sum,
        "self_time_error_s": self_sum - root_s,
        "min_self_s": float(self_t.min()),
        "spans": int(dur.size),
        "trials": trials,
        "samples": {
            "lazy.decode_us": int(lazy.size),
            "decoders.uf_us": int(uf.size),
            "decoders.mwpm_us": int(mwpm.size),
            "decoders.blossom": int(blossom.sum()),
        },
        "self_s_by_layer": {
            lay: float(self_t[layer == lay].sum()) for lay in sorted(set(layer.tolist()))
        },
        "absent": list(tracer.absent),
    }
    return m, detail


def _mean_us(x: np.ndarray) -> float:
    return float(x.mean() * 1e6) if x.size else 0.0


def graph_counts(graph) -> dict:
    """Integrity counts read from a decoding graph's public attributes."""
    if graph is None:
        keys = ["graph.edges", "graph.half_edges", "graph.obs_conflicts",
                "graph.invisible_obs_faults", "graph.key_collisions"]
        return dict.fromkeys(keys + [f"graph.edges.{k}" for k in EDGE_KINDS])
    kinds = Counter(e.kind for e in (*graph.edges, *graph.half_edges))
    out = {
        "graph.edges": len(graph.edges),
        "graph.half_edges": len(graph.half_edges),
        "graph.obs_conflicts": graph.obs_conflicts,
        "graph.invisible_obs_faults": graph.invisible_obs_faults,
        "graph.key_collisions": graph.n_edges - len(graph.edge_id_by_key),
    }
    for k in EDGE_KINDS:
        out[f"graph.edges.{k}"] = kinds[k]
    return out
