"""Layers, the functions traced in each, and the per-layer metrics.

A layer is a module of ``src/linkform``; ``arith`` is reached only through
the others and is not traced.  Each per-layer metric names the end-to-end
metrics, per workload, that it should move; BENCHMARK.json holds every
metric's unit and direction.
"""

from __future__ import annotations

TRACED = {
    "cli": ("main",),
    "seifert": ("validate", "euler_invariant", "relevant_primes"),
    "torsion": ("smith_normal_form", "structure_check", "local_orders"),
    "linking": ("gram_matrix", "welldefined_check", "self_link_profile"),
    "pairing": (
        "classify",
        "block_diagonalize",
        "canonical_form",
        "isomorphism_report",
        "brute_force_isomorphic",
    ),
    "realize": ("realize", "exhaustive_search", "verify_realization"),
    "witt": ("witt_seifert", "metabolic_oracle"),
    "verify": ("run_suite",),
}

COMPUTE_P50 = [("compute", "latency_p50_ms")]
REALIZE_P50 = [("realize", "latency_p50_ms")]
SEARCH_RATE = [("search", "candidates_per_s"), ("realize", "ops_per_s")]
REALIZE_RATE = [("realize", "ops_per_s"), ("search", "candidates_per_s")]
BRUTE = [("search", "ops_per_s"), ("verify", "trials_per_s")]
VERIFY = [("verify", "trials_per_s")]
SMITH = [("compute", m) for m in ("latency_p99_ms", "failed_ratio", "ops_per_s")]

# per-layer metric -> [(workload, end-to-end metric it should move)]; the
# names, units and better-directions are those of BENCHMARK.json's per_layer
MOVES = {
    "torsion.smith_normal_form.calls": SMITH,
    "torsion.smith_normal_form.self_s": SMITH,
    "torsion.structure_check.self_s": SMITH,
    "linking.welldefined_check.self_s": COMPUTE_P50 + REALIZE_P50,
    "witt.witt_seifert.self_s": COMPUTE_P50 + REALIZE_P50,
    "cli.main.self_s": COMPUTE_P50 + REALIZE_P50,
    "seifert.euler_invariant.calls": SEARCH_RATE,
    "seifert.relevant_primes.calls": SEARCH_RATE,
    "seifert.validate.calls": SEARCH_RATE,
    "torsion.local_orders.calls": SEARCH_RATE,
    "torsion.local_orders.self_s": SEARCH_RATE,
    "linking.gram_matrix.calls": SEARCH_RATE,
    "linking.gram_matrix.self_s": SEARCH_RATE,
    "realize.verify_realization.calls": REALIZE_RATE,
    "realize.verify_realization.self_s": REALIZE_RATE,
    "realize.verify_realization.accept_ratio": REALIZE_RATE,
    "search.prefilter_pass_ratio": REALIZE_RATE,
    "realize.realize.self_s": REALIZE_P50,
    "realize.exhaustive_search.self_s": SEARCH_RATE,
    "pairing.classify.calls": REALIZE_P50 + COMPUTE_P50,
    "pairing.classify.self_s": REALIZE_P50 + COMPUTE_P50,
    "pairing.block_diagonalize.self_s": REALIZE_P50 + COMPUTE_P50,
    "pairing.canonical_form.calls": REALIZE_P50 + COMPUTE_P50,
    "pairing.canonical_form.self_s": REALIZE_P50 + COMPUTE_P50,
    "pairing.isomorphism_report.calls": BRUTE,
    "pairing.brute_force_isomorphic.calls": BRUTE,
    "pairing.brute_force_isomorphic.self_s": BRUTE,
    "pairing.brute_force_isomorphic.total_s": BRUTE,
    "linking.self_link_profile.self_s": BRUTE,
    "pairing.brute_force_share": BRUTE,
    "witt.metabolic_oracle.calls": VERIFY,
    "witt.metabolic_oracle.self_s": VERIFY,
    "verify.run_suite.self_s": VERIFY,
    "trace.overhead_ratio": [],
}

# printed, not gated: raw times, memory and rates behind the gated ones, and
# metrics that are 0 or lack samples on some workload (p99 on compute and
# realize, candidates on search, trials on verify)
REPORTED = {
    "ops_per_s_finished": "1/s",
    "ops_per_s_raw": "1/s",
    "latency_p50_ms_raw": "ms",
    "setup_s_raw": "s",
    "host_loop_ms": "ms",
    "rss_before_ops_mb": "MB",
    "rss_growth_mb": "MB",
    "latency_p99_ms": "ms",
    "failed_ratio": "ratio",
    "changed_outputs": "count",
    "candidates_per_s": "1/s",
    "trials_per_s": "1/s",
}
