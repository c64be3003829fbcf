"""Distance between modeled speedups and the paper's claims.

Each gap is ``|ln(modeled mean / paper aggregate)|``: 0 when the model
reproduces the paper's average, the same value for a 2x overshoot as
for a 2x undershoot.  The aggregates are quoted from the docstrings of
the repository's paper benchmarks, which state the paper's claims.
"""

from __future__ import annotations

import math

#: metric -> (experiment, paper aggregate, where the claim is quoted).
CLAIMS = {
    "paper_gap_moe_layer": (
        "fig14", 1.45,
        "benchmarks/test_fig14_moe_layer.py: \"Samoyeds beats "
        "Transformers on every model (avg ~1.45x)\""),
    "paper_gap_decoder": (
        "fig15", 1.42,
        "benchmarks/test_fig15_end2end.py: \"Samoyeds up to 2.36x "
        "(avg 1.42x) over Transformers\""),
    "paper_gap_max_batch": (
        "tab03", 4.41,
        "benchmarks/test_tab03_maxbatch.py: \"avg 4.41x over "
        "Transformers in the paper\""),
}

EXPERIMENTS = tuple(experiment for experiment, _, _ in CLAIMS.values())


def _rows(experiment: str, data: dict) -> list[tuple[str, float]]:
    """(row label, modeled Samoyeds value) per model of one experiment."""
    if experiment == "fig14":
        # Keys are "('model', shared_experts)"; both settings count.
        return [(key, entry["samoyeds"]) for key, entry in data.items()]
    if experiment == "fig15":
        return [(model, entry["samoyeds"]) for model, entry in data.items()]
    return [(model, entry["boost"]) for model, entry in data.items()]


def gaps(results: dict) -> tuple[dict[str, float], list[dict]]:
    """Gap metrics and their per-row inputs from experiment results
    (``results[experiment].data`` as :func:`run_experiment` returns)."""
    metrics: dict[str, float] = {}
    rows: list[dict] = []
    for metric, (experiment, paper, quote) in CLAIMS.items():
        values = _rows(experiment, results[experiment].data)
        mean = sum(v for _, v in values) / len(values)
        metrics[metric] = abs(math.log(mean / paper))
        rows.append({"metric": metric, "figure": experiment,
                     "paper_aggregate": paper, "quoted_from": quote,
                     "modeled_mean": mean,
                     "rows": [{"model": label, "modeled": value}
                              for label, value in values]})
    return metrics, rows
