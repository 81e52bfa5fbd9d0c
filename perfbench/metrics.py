"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root declares the same names; the smoke
test checks that the two agree.
"""

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("ess_per_s", "1/s", "higher"),
    ("draws_per_ess", "ratio", "lower"),
    ("evals_per_ess", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better); all per CLI invocation, averaged over the traced ones
PER_LAYER = (
    ("init.stretch_s", "s", "lower"),
    ("init.stretch_accept", "ratio", "higher"),
    ("init.multistart_s", "s", "lower"),
    ("init.dedup_s", "s", "lower"),
    ("init.modes", "count", "higher"),
    ("optimize.converged_frac", "ratio", "higher"),
    ("optimize.evals", "count", "lower"),
    ("targets.evals", "count", "lower"),
    ("targets.eval_s", "s", "lower"),
    ("targets.eval_us", "us", "lower"),
    ("targets.failed_frac", "ratio", "lower"),
    ("parallel.map_s", "s", "lower"),
    ("proposals.sample_s", "s", "lower"),
    ("proposals.logq_s", "s", "lower"),
    ("isa.step_s", "s", "lower"),
    ("isa.weight_s", "s", "lower"),
    ("isa.iterations", "count", "lower"),
    ("isa.refit_s", "s", "lower"),
    ("ensemble.normalize_s", "s", "lower"),
    ("ensemble.r_s", "s", "lower"),
    ("ensemble.cov_s", "s", "lower"),
    ("ensemble.cov_calls", "count", "lower"),
    ("ensemble.csv_write_s", "s", "lower"),
    ("diagnostics.triangle_s", "s", "lower"),
    ("diagnostics.iact_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
