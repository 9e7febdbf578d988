"""Hierarchical surface-code decoding: a lazy pre-decoder in front of
Union-Find or minimum-weight matching, Monte Carlo failure statistics, and
bandwidth / decoding-hardware requirement planning."""

from .code_model import (
    CheckBasis,
    CodeKind,
    CodeLayout,
    build_rotated_surface_code,
    build_schedule,
    build_toric_code,
)
from .decoders import (
    DecodeRecord,
    DecoderKind,
    decode,
    hierarchical_decode,
    mwpm_decode,
    mwpm_matching_weight,
    uf_decode,
)
from .experiments import (
    Estimate,
    bandwidth_curve,
    benchmark_runtime,
    estimate_logical_error,
    estimate_p_fail,
    reproduce_table,
)
from .graph import (
    DecodingGraph,
    Syndrome,
    build_decoding_graph,
    build_perfect_graph,
    classify_defects,
    difference_syndrome,
    is_logical_failure,
    make_graph,
    simulate_window,
)
from .lazy import (
    LazyFailure,
    LazyOutcome,
    LazyStreamDecoder,
    count_message_bits,
    lazy_decode,
    lazy_decode_stream,
)
from .noise import NoiseMode, NoiseParams, make_rng, sample_faults, trial_rng
from .resources import (
    InfeasibleError,
    RequirementReport,
    SystemParams,
    bandwidth_per_qubit,
    chernoff_upper_bound_M,
    format_bits_per_second,
    logical_error_rate,
    max_concurrent_failures,
    render_requirement_table,
    requirement_report,
    select_distance,
)

__version__ = "0.1.0"
