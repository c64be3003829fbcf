"""Device-aware autotuner with §6.6 adaptation rules.

The paper tunes the Samoyeds kernel per device by hand (Table 6 distils
two rules: shrink tiles on SM-rich/L2-poor parts, deepen the pipeline on
bandwidth-rich/TC-slow parts).  This module turns that workflow into
code:

* :func:`tune` — exhaustive search over the legal configuration space
  for one (kernel, problem, device), with an in-process cache;
* :func:`adapted_config` — apply the Table-6 rules to a config tuned on
  a different device, without a full re-search;
* :class:`TuningTable` — a persistent map from (device, problem bucket)
  to the best configuration, the artifact a deployment would ship.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.errors import ConfigError, TilingError
from repro.hw.spec import GPUSpec
from repro.kernels.base import GemmProblem, MatmulKernel
from repro.kernels.tiling import TilingConfig, autotune, candidate_configs
from repro.utils.persist import load_versioned_json, save_versioned_json


def problem_bucket(m: int, k: int, n: int) -> tuple[int, int, int]:
    """Round a problem to its power-of-two bucket (tuning-table key)."""
    def bucket(x: int) -> int:
        return 1 << max(0, math.ceil(math.log2(max(x, 1))))
    return bucket(m), bucket(k), bucket(n)


@dataclass
class TuneResult:
    """Outcome of one tuning search."""

    config: TilingConfig
    seconds: float
    candidates: int
    heuristic_seconds: float

    @property
    def gain_over_heuristic(self) -> float:
        return self.heuristic_seconds / self.seconds


_CACHE: dict[tuple, TuneResult] = {}


def tune(kernel: MatmulKernel, m: int, k: int, n: int, spec: GPUSpec,
         subrow_v: int | None = None,
         use_cache: bool = True) -> TuneResult:
    """Exhaustive tuning of ``kernel`` for one problem on one device."""
    key = (kernel.name, spec.name, problem_bucket(m, k, n), subrow_v)
    if use_cache and key in _CACHE:
        return _CACHE[key]
    shape = kernel.mma_shape()
    candidates = candidate_configs(shape, spec, subrow_v=subrow_v)
    if not candidates:
        raise TilingError(
            f"no legal configurations for {kernel.name} on {spec.name}")
    best = autotune(candidates,
                    lambda cfg: kernel.cost(m, k, n, spec, cfg=cfg).time_s)
    tuned_s = kernel.cost(m, k, n, spec, cfg=best).time_s
    heuristic_s = kernel.cost(m, k, n, spec).time_s
    result = TuneResult(config=best, seconds=tuned_s,
                        candidates=len(candidates),
                        heuristic_seconds=heuristic_s)
    if use_cache:
        _CACHE[key] = result
    return result


def clear_cache() -> None:
    """Drop all memoised tuning results (tests use this)."""
    _CACHE.clear()


def adapted_config(cfg: TilingConfig, native: GPUSpec,
                   target: GPUSpec) -> TilingConfig:
    """Apply the Table-6 rules when moving ``cfg`` between devices.

    * Target has more SMs and/or less L2 than the native device ->
      halve the output tiles (more parallelism, smaller L2 footprint).
    * Target is relatively memory-rich / TC-slow -> one more pipeline
      stage to smooth the fetch/compute imbalance.
    """
    out = cfg
    sm_ratio = target.sm_count / native.sm_count
    l2_ratio = target.l2_bytes / native.l2_bytes
    if sm_ratio > 1.2 or l2_ratio < 0.9:
        out = out.scaled(mb=max(32, out.mb // 2),
                         nb=max(32, out.nb // 2),
                         mw=max(16, out.mw // 2),
                         nw=max(16, out.nw // 2))
    native_balance = native.dram_bandwidth / native.dense_tc_flops
    target_balance = target.dram_bandwidth / target.dense_tc_flops
    if target_balance > native_balance * 1.2:
        out = out.scaled(stages=min(out.stages + 1, 5))
    return out


@dataclass
class TuningTable:
    """Persistent (device, bucket) -> config map.

    Serialises to JSON so a deployment can ship pre-tuned tables, the
    way vendor libraries ship per-architecture kernel selections.  The
    payload carries a schema ``version`` field; :meth:`load` raises
    :class:`~repro.errors.ConfigError` naming the path on unreadable,
    corrupt or schema-drifted files instead of surfacing raw
    ``json``/``KeyError`` tracebacks (version-less legacy payloads —
    a bare entries mapping — are still accepted).
    """

    VERSION = 1

    entries: dict[str, dict] = field(default_factory=dict)

    @staticmethod
    def _key(device: str, bucket: tuple[int, int, int]) -> str:
        return f"{device}:{bucket[0]}x{bucket[1]}x{bucket[2]}"

    def record(self, device: str, m: int, k: int, n: int,
               config: TilingConfig) -> None:
        self.entries[self._key(device, problem_bucket(m, k, n))] = \
            asdict(config)

    def lookup(self, device: str, m: int, k: int, n: int
               ) -> TilingConfig | None:
        raw = self.entries.get(self._key(device, problem_bucket(m, k, n)))
        if raw is None:
            return None
        try:
            return TilingConfig(**raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"tuning-table entry for {self._key(device, problem_bucket(m, k, n))} "
                f"does not describe a TilingConfig: {exc}") from None

    def save(self, path: str | Path) -> None:
        save_versioned_json(path, "tuning table", self.VERSION,
                            self.entries)

    @classmethod
    def load(cls, path: str | Path) -> "TuningTable":
        """Load a saved table; failures raise :class:`ConfigError`.

        Version-less legacy payloads (a bare entries mapping, the
        pre-schema format) are still accepted.
        """
        return cls(entries=load_versioned_json(
            path, "tuning table", cls.VERSION, allow_legacy=True))

    def __len__(self) -> int:
        return len(self.entries)
