"""Per-experiment entry points: one function per table/figure of §6.

Every function runs the paper's workload on the simulated platform
(RTX 4070 Super unless the experiment itself is about other GPUs) and
returns an :class:`ExperimentResult` whose ``text`` is a paper-comparable
report.  ``EXPERIMENTS`` is the registry the ``benchmarks/`` suite and
the examples iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bench.harness import (
    adaptation_study,
    kernel_sweep,
    portability_sweep,
    speedup_stats,
)
from repro.bench.report import fmt_speedup, render_series, render_table
from repro.workloads.gemm import (
    realistic_cases,
    scaling_cases,
    synthetic_cases,
)
from repro.context import ExecutionContext
from repro.errors import CapacityError, ConfigError
from repro.hw.spec import get_gpu
from repro.kernels import KERNELS
from repro.kernels.layout import layout_speedup
from repro.kernels.ssmm_samoyeds import SamoyedsFeatures
from repro.models.decoder import decoder_cost
from repro.models.runner import end_to_end_speedups, throughput_sweep
from repro.moe.config import MODEL_REGISTRY
from repro.moe.layers import ENGINES, SamoyedsEngine
from repro.moe.memory_model import max_batch_size
from repro.pruning.evaluate import (
    evaluate_classifier_pruning,
    evaluate_lm_pruning,
)
from repro.pruning.tasks import make_classification_task, make_sequence_task
from repro.formats.samoyeds import PAPER_PATTERNS

DEV_GPU = "rtx4070s"

#: Sequence lengths per model for the batch/memory experiments (§6.3.2).
SEQ_FOR_MODEL = {
    "qwen2-moe": 4096,
    "deepseek-moe": 4096,
    "minicpm-moe": 1024,
    "openmoe-34b": 1024,
    "mixtral-8x7b": 1024,
    "mixtral-8x22b": 1024,
}


@dataclass
class ExperimentResult:
    """Structured data + printable report for one experiment."""

    experiment: str
    data: dict = field(default_factory=dict)
    text: str = ""


# ----------------------------------------------------------------------
# Figure 2 — decoder time breakdown
# ----------------------------------------------------------------------
def fig02_breakdown(tokens: int = 4096) -> ExperimentResult:
    """MoE-layer share of decoder time, with and without FlashAttention."""
    spec = get_gpu(DEV_GPU)
    rows = []
    data = {}
    for name, cfg in MODEL_REGISTRY.items():
        seq_tokens = min(tokens, cfg.max_seq_len)
        naive = decoder_cost(cfg, seq_tokens, spec,
                             engine="transformers", flash=False)
        flash = decoder_cost(cfg, seq_tokens, spec,
                             engine="transformers", flash=True)
        rows.append([name, f"{naive.moe_fraction:.1%}",
                     f"{flash.moe_fraction:.1%}"])
        data[name] = {"no_flash": naive.moe_fraction,
                      "flash": flash.moe_fraction}
    text = render_table(["model", "MoE share (no flash)",
                         "MoE share (flash)"], rows,
                        title="Figure 2: MoE-layer time share")
    return ExperimentResult("fig02", data=data, text=text)


# ----------------------------------------------------------------------
# Figure 11(b) — layout optimisation vs input sparsity
# ----------------------------------------------------------------------
def fig11_layout() -> ExperimentResult:
    """Compressed-output-layout speedup across input sparsity ratios."""
    spec = get_gpu(DEV_GPU)
    sparsities = [0.0, 0.25, 0.5, 0.75, 0.875]
    m, k, n_full = 4096, 4096, 4096
    speeds = []
    for s in sparsities:
        len_d = max(1, int(n_full * (1.0 - s)))
        speeds.append(layout_speedup(m, k, len_d, n_full, spec))
    text = render_series("Figure 11b: layout-optimisation speedup",
                         [f"{s:.1%}" for s in sparsities],
                         {"speedup": speeds}, x_label="input sparsity")
    return ExperimentResult("fig11", data={"sparsity": sparsities,
                                           "speedup": speeds}, text=text)


# ----------------------------------------------------------------------
# Figure 12 — kernel comparison, synthetic + realistic
# ----------------------------------------------------------------------
def fig12_kernels(synthetic_count: int = 238) -> ExperimentResult:
    """Samoyeds speedup over each baseline on both suites."""
    spec = get_gpu(DEV_GPU)
    syn = kernel_sweep(synthetic_cases(synthetic_count), spec)
    real = kernel_sweep(realistic_cases(), spec)
    syn_stats = speedup_stats(syn)
    real_stats = speedup_stats(real)
    rows = []
    for base in syn_stats:
        rows.append([base,
                     fmt_speedup(syn_stats[base]["max"]),
                     fmt_speedup(syn_stats[base]["geomean"]),
                     fmt_speedup(real_stats[base]["max"]),
                     fmt_speedup(real_stats[base]["geomean"])])
    text = render_table(
        ["baseline", "syn max", "syn geomean", "real max", "real geomean"],
        rows, title="Figure 12: Samoyeds kernel speedup over baselines")
    return ExperimentResult(
        "fig12", data={"synthetic": syn_stats, "realistic": real_stats},
        text=text)


# ----------------------------------------------------------------------
# Figure 13 — throughput vs operand size
# ----------------------------------------------------------------------
def fig13_scaling() -> ExperimentResult:
    """Throughput trend as each of m, k, n grows (others at 4096)."""
    spec = get_gpu(DEV_GPU)
    data = {}
    texts = []
    for dim in ("m", "k", "n"):
        cases = scaling_cases(dim)
        rows = kernel_sweep(cases, spec)
        series = {name: [r.tflops(name) for r in rows]
                  for name in KERNELS}
        data[dim] = {"sizes": [getattr(r.case, dim) for r in rows],
                     **series}
        texts.append(render_series(
            f"Figure 13: effective TFLOP/s vs {dim}",
            [getattr(r.case, dim) for r in rows], series, x_label=dim))
    return ExperimentResult("fig13", data=data, text="\n\n".join(texts))


# ----------------------------------------------------------------------
# Figure 14 — MoE layer speedup
# ----------------------------------------------------------------------
def fig14_moe_layer(tokens: int = 4096) -> ExperimentResult:
    """Engine speedups over Transformers, with and without shared experts."""
    spec = get_gpu(DEV_GPU)
    data = {}
    rows = []
    for shared in (2, 0):
        for name, cfg in MODEL_REGISTRY.items():
            base = ENGINES["transformers"].cost(cfg, tokens, spec,
                                                num_shared=shared)
            entry = {}
            for ename in ("megablocks", "vllm-ds", "samoyeds"):
                try:
                    c = ENGINES[ename].cost(cfg, tokens, spec,
                                            num_shared=shared)
                    entry[ename] = base.time_s / c.time_s
                except ConfigError:
                    entry[ename] = None
            data[(name, shared)] = entry
            rows.append([name, shared,
                         fmt_speedup(entry["megablocks"]),
                         fmt_speedup(entry["vllm-ds"]),
                         fmt_speedup(entry["samoyeds"])])
    text = render_table(
        ["model", "shared", "megablocks", "vllm-ds", "samoyeds"], rows,
        title="Figure 14: MoE-layer speedup over Transformers")
    return ExperimentResult("fig14", data={str(k): v
                                           for k, v in data.items()},
                            text=text)


# ----------------------------------------------------------------------
# Figure 15 — end-to-end speedup
# ----------------------------------------------------------------------
def fig15_end2end() -> ExperimentResult:
    """Decoder-layer speedup over Transformers at the paper's settings."""
    spec = get_gpu(DEV_GPU)
    settings = {
        "qwen2-moe": (16, 4096), "deepseek-moe": (16, 4096),
        "minicpm-moe": (1, 4096), "openmoe-34b": (1, 2048),
        "mixtral-8x7b": (1, 4096), "mixtral-8x22b": (1, 4096),
    }
    rows = []
    data = {}
    for name, cfg in MODEL_REGISTRY.items():
        batch, seq = settings[name]
        ctx = ExecutionContext.create(cfg, "transformers", spec)
        speed = end_to_end_speedups(ctx, batch=batch, seq_len=seq)
        data[name] = speed
        rows.append([name, batch,
                     fmt_speedup(speed.get("megablocks")),
                     fmt_speedup(speed.get("vllm-ds")),
                     fmt_speedup(speed.get("pit")),
                     fmt_speedup(speed.get("samoyeds"))])
    text = render_table(
        ["model", "batch", "megablocks", "vllm-ds", "pit", "samoyeds"],
        rows, title="Figure 15: end-to-end speedup over Transformers")
    return ExperimentResult("fig15", data=data, text=text)


# ----------------------------------------------------------------------
# Figure 16 — throughput vs batch size
# ----------------------------------------------------------------------
def fig16_batch(batches: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
                ) -> ExperimentResult:
    """Tokens/s per engine as batch size grows."""
    spec = get_gpu(DEV_GPU)
    texts = []
    data = {}
    for name, cfg in MODEL_REGISTRY.items():
        seq = SEQ_FOR_MODEL[name]
        ctx = ExecutionContext.create(cfg, "transformers", spec)
        sweep = throughput_sweep(ctx, list(batches), seq,
                                 engines=["transformers", "megablocks",
                                          "vllm-ds", "samoyeds"])
        series = {}
        for ename, points in sweep.items():
            series[ename] = [None if p is None else p.tokens_per_s
                             for p in points]
        data[name] = series
        texts.append(render_series(
            f"Figure 16: tokens/s vs batch — {name} (seq {seq})",
            list(batches), series, x_label="batch"))
    return ExperimentResult("fig16", data=data, text="\n\n".join(texts))


# ----------------------------------------------------------------------
# Table 3 — maximum batch sizes
# ----------------------------------------------------------------------
def tab03_max_batch() -> ExperimentResult:
    """Largest batch per engine before OOM."""
    spec = get_gpu(DEV_GPU)
    engines = ["transformers", "megablocks", "vllm-ds", "samoyeds"]
    rows = []
    data = {}
    for name, cfg in MODEL_REGISTRY.items():
        seq = SEQ_FOR_MODEL[name]
        entry = {}
        for ename in engines:
            try:
                entry[ename] = max_batch_size(cfg, ename, seq, spec)
            except ConfigError:
                entry[ename] = None
        best_baseline = max(
            (v for k, v in entry.items()
             if k != "samoyeds" and v is not None), default=0)
        boost = (entry["samoyeds"] / best_baseline
                 if best_baseline else float("inf"))
        data[name] = {**entry, "boost": boost}
        rows.append([name, *[entry[e] for e in engines],
                     f"{boost:.2f}x" if boost != float("inf") else "inf"])
    text = render_table(["model", *engines, "boost vs best"], rows,
                        title="Table 3: maximum batch sizes")
    return ExperimentResult("tab03", data=data, text=text)


# ----------------------------------------------------------------------
# Figure 17 — optimisation breakdown (ablation)
# ----------------------------------------------------------------------
def fig17_ablation(tokens: int = 4096) -> ExperimentResult:
    """Vanilla -> +W -> +WI -> +WIT -> +WITS speedup ladder."""
    spec = get_gpu(DEV_GPU)
    base_features = SamoyedsFeatures()
    stages = {
        "+W": base_features.without("input_selection")
                           .without("layout").without("stationary"),
        "+WI": base_features.without("layout").without("stationary"),
        "+WIT": base_features.without("stationary"),
        "+WITS": base_features,
    }
    rows = []
    data = {}
    for name, cfg in MODEL_REGISTRY.items():
        vanilla = ENGINES["transformers"].cost(cfg, tokens, spec,
                                               num_shared=0)
        entry = {"vanilla_ms": vanilla.time_s * 1e3}
        row = [name]
        for label, feats in stages.items():
            engine = SamoyedsEngine(features=feats)
            c = engine.cost(cfg, tokens, spec, num_shared=0)
            entry[label] = vanilla.time_s / c.time_s
            row.append(fmt_speedup(entry[label]))
        data[name] = entry
        rows.append(row)
    text = render_table(["model", "+W", "+WI", "+WIT", "+WITS"], rows,
                        title="Figure 17: optimisation breakdown "
                              "(speedup over Vanilla)")
    return ExperimentResult("fig17", data=data, text=text)


# ----------------------------------------------------------------------
# Table 4 — F1 across Samoyeds configurations
# ----------------------------------------------------------------------
def tab04_f1(train_epochs: int = 25, finetune_epochs: int = 5
             ) -> ExperimentResult:
    """F1 of the classification proxy under each (N,M,V) config."""
    methods = {"dense": None}
    methods.update({
        f"({p.n},{p.m},{p.v})": {"method": "samoyeds", "samoyeds": p}
        for p in PAPER_PATTERNS})
    data = {}
    rows = []
    for model_seed, label in ((3, "proxy-base"), (13, "proxy-large")):
        task = make_classification_task(seed=model_seed)
        pruned_methods = {k: v for k, v in methods.items() if v}
        report = evaluate_classifier_pruning(
            task, methods=pruned_methods, train_epochs=train_epochs,
            finetune_epochs=finetune_epochs, seed=model_seed)
        entry = {"dense": report.dense, **report.pruned}
        data[label] = entry
        rows.append([label, *(f"{entry[k]:.4f}" for k in
                              ["dense", *pruned_methods])])
    headers = ["model", "dense",
               *(f"({p.n},{p.m},{p.v})" for p in PAPER_PATTERNS)]
    text = render_table(headers, rows,
                        title="Table 4: F1 under Samoyeds configs "
                              "(synthetic proxy)")
    return ExperimentResult("tab04", data=data, text=text)


# ----------------------------------------------------------------------
# Table 5 — perplexity across formats
# ----------------------------------------------------------------------
def tab05_ppl(train_epochs: int = 8, finetune_epochs: int = 2
              ) -> ExperimentResult:
    """Perplexity of the LM proxy: dense vs unstructured/VENOM/Samoyeds."""
    data = {}
    rows = []
    for seed, label in ((4, "proxy-lm-a"), (14, "proxy-lm-b")):
        task = make_sequence_task(seed=seed)
        report = evaluate_lm_pruning(task, train_epochs=train_epochs,
                                     finetune_epochs=finetune_epochs,
                                     seed=seed)
        entry = {"dense": report.dense, **report.pruned}
        data[label] = entry
        rows.append([label, *(f"{entry[k]:.3f}" for k in
                              ["dense", "unstructured", "venom",
                               "samoyeds"])])
    text = render_table(
        ["model", "dense", "unstructured", "venom", "samoyeds"], rows,
        title="Table 5: perplexity by pruning format (synthetic proxy, "
              "lower is better)")
    return ExperimentResult("tab05", data=data, text=text)


# ----------------------------------------------------------------------
# Figure 18 — performance portability
# ----------------------------------------------------------------------
def fig18_portability(case_count: int = 60) -> ExperimentResult:
    """Relative speedup over cuSPARSELt retained on other GPUs."""
    cases = synthetic_cases(case_count)
    results = portability_sweep(cases, ["rtx3090", "rtx4090", "a100"])
    rows = []
    for gpu, row in results.items():
        rows.append([gpu,
                     fmt_speedup(row["samoyeds_vs_ref"]),
                     fmt_speedup(row["venom_vs_ref"]),
                     f"{row.get('samoyeds_retained', 1.0):.1%}",
                     f"{row.get('venom_retained', 1.0):.1%}"])
    text = render_table(
        ["gpu", "samoyeds/cusparselt", "venom/cusparselt",
         "samoyeds retained", "venom retained"],
        rows, title="Figure 18: direct-porting performance")
    return ExperimentResult("fig18", data=results, text=text)


# ----------------------------------------------------------------------
# Table 6 — adaptation rules
# ----------------------------------------------------------------------
def tab06_adaptation(case_count: int = 60) -> ExperimentResult:
    """Tile-down on A100 and stages-up on 3090: per-case win rates."""
    cases = synthetic_cases(case_count)
    a100 = adaptation_study(cases, "a100", "tile_down")
    r3090 = adaptation_study(cases, "rtx3090", "stages_up")
    rows = [
        ["a100", "tile size down", f"{a100['improved']:.1%}",
         f"{a100['unchanged']:.1%}", f"{a100['degraded']:.1%}"],
        ["rtx3090", "stage num up", f"{r3090['improved']:.1%}",
         f"{r3090['unchanged']:.1%}", f"{r3090['degraded']:.1%}"],
    ]
    text = render_table(
        ["target", "adaptation", "improved", "unchanged", "degraded"],
        rows, title="Table 6: suggested adaptations")
    return ExperimentResult("tab06", data={"a100": a100, "rtx3090": r3090},
                            text=text)


# ----------------------------------------------------------------------
# Figure 19 — comparison with PIT
# ----------------------------------------------------------------------
def fig19_pit(batches: tuple[int, ...] = (4, 8, 16, 32),
              expert_counts: tuple[int, ...] = (8, 16, 32, 64)
              ) -> ExperimentResult:
    """Samoyeds vs PIT across batch sizes and expert counts."""
    spec = get_gpu(DEV_GPU)
    base_cfg = MODEL_REGISTRY["qwen2-moe"]
    seq = 1024
    data = {}
    rows = []
    for experts in expert_counts:
        cfg = base_cfg.with_experts(experts)
        for batch in batches:
            tokens = batch * seq
            pit = ENGINES["pit"].cost(cfg, tokens, spec, num_shared=0)
            sam = ENGINES["samoyeds"].cost(cfg, tokens, spec, num_shared=0)
            ratio = pit.time_s / sam.time_s
            data[(experts, batch)] = ratio
            rows.append([experts, batch, fmt_speedup(ratio)])
    text = render_table(["experts", "batch", "samoyeds vs PIT"], rows,
                        title="Figure 19: speedup over PIT")
    return ExperimentResult("fig19",
                            data={str(k): v for k, v in data.items()},
                            text=text)


#: Experiment registry: id -> zero-arg callable.
EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "fig02": fig02_breakdown,
    "fig11": fig11_layout,
    "fig12": fig12_kernels,
    "fig13": fig13_scaling,
    "fig14": fig14_moe_layer,
    "fig15": fig15_end2end,
    "fig16": fig16_batch,
    "tab03": tab03_max_batch,
    "fig17": fig17_ablation,
    "tab04": tab04_f1,
    "tab05": tab05_ppl,
    "fig18": fig18_portability,
    "tab06": tab06_adaptation,
    "fig19": fig19_pit,
}


def run_experiment(experiment: str) -> ExperimentResult:
    """Run one experiment by id (``fig12``, ``tab03``, ...)."""
    try:
        fn = EXPERIMENTS[experiment]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment!r}; known: "
            f"{sorted(EXPERIMENTS)}") from None
    return fn()
