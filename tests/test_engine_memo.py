"""The engines' segment-shape memo: pure, and hit by serving runs.

Without shared experts an engine's GEMM aggregate depends only on its
padded routed segment shape, so :meth:`MoEEngine._gemms` memoises it on
the engine by ``(config, spec, shape)``.  Two properties pin that memo:

* purity: a warmed engine prices every point exactly as the first
  ``cost()`` of a fresh instance, field for field, ``detail`` included,
  for every fixed engine, Table-2 model and device, at token counts
  that share a segment shape and counts that straddle one, with
  ``num_shared`` ``None``, 0 and 2;
* hits: a chunked, paged ``auto`` serving run simulates each padded
  segment shape's SSMM kernels at most once per GEMM shape.  A key
  that came to include the exact token count would fail here.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.api import Deployment
from repro.hw import get_gpu
from repro.kernels.ssmm_samoyeds import SamoyedsKernel
from repro.moe import ENGINES, MODEL_REGISTRY
from repro.moe.layers import SamoyedsEngine

FIXED = [name for name, engine in ENGINES.items() if not engine.is_meta]

GPUS = ("a100", "rtx4070s", "h100")

#: Pairs around the 16-, 64- and 128-token tiles and the mean-load
#: rounding of the Table-2 models' expert counts, plus large counts.
TOKENS = (1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255,
          256, 257, 511, 512, 513, 960, 961, 4096, 4097)

SHARED = (None, 0, 2)

POINTS = [(config, tokens, num_shared)
          for config in MODEL_REGISTRY.values()
          for tokens in TOKENS for num_shared in SHARED]


@pytest.mark.parametrize("gpu", GPUS)
@pytest.mark.parametrize("name", FIXED)
def test_warm_memo_prices_like_a_fresh_engine(name, gpu):
    warmed, spec = ENGINES[name], get_gpu(gpu)
    points = [(config, tokens, num_shared)
              for config, tokens, num_shared in POINTS
              if warmed.supports(config)]
    for config, tokens, num_shared in reversed(points):
        warmed.cost(config, tokens, spec, num_shared=num_shared)
    for config, tokens, num_shared in points:
        fresh = type(warmed)().cost(config, tokens, spec,
                                    num_shared=num_shared)
        assert warmed.cost(config, tokens, spec,
                           num_shared=num_shared) == fresh, \
            (config.name, tokens, num_shared)


def test_memo_keys_the_device_by_value():
    """Two specs under one name but with different bandwidths price
    apart on one warmed engine."""
    engine, config = ENGINES["samoyeds"], MODEL_REGISTRY["mixtral-8x7b"]
    a100 = get_gpu("a100")
    slow = dataclasses.replace(a100, dram_bandwidth=a100.dram_bandwidth / 4)
    fast = engine.cost(config, 64, a100)
    warm = engine.cost(config, 64, slow)
    assert warm == SamoyedsEngine().cost(config, 64, slow)
    assert warm != fast


AUTO_CHUNKED_PAGED = {
    "model": {"name": "mixtral-8x7b", "engine": "auto", "num_layers": 1},
    "hardware": {"gpu": "rtx4070s"},
    "serving": {"batcher": "chunked", "page_size": 16},
    "workload": {"kind": "bursty", "requests": 32, "qps": 40.0,
                 "burst_factor": 8.0, "burst_len": 16,
                 "prompt_tokens": 2048, "output_tokens": 32,
                 "jitter": 0.3, "seed": 5},
}


def test_serving_prices_each_segment_shape_once(monkeypatch):
    for engine in ENGINES.values():         # start from empty memos
        monkeypatch.setattr(engine, "_segment_gemms", {}, raising=False)
    kernel_calls: Counter[int] = Counter()
    engine_tokens: set[int] = set()
    kernel_cost, engine_cost = SamoyedsKernel.cost, SamoyedsEngine.cost

    def count_kernel(self, m, k, n, spec, cfg=None, n_full=None):
        kernel_calls[n] += 1
        return kernel_cost(self, m, k, n, spec, cfg, n_full)

    def count_engine(self, config, tokens, spec, num_shared=None):
        engine_tokens.add(tokens)
        return engine_cost(self, config, tokens, spec, num_shared)

    monkeypatch.setattr(SamoyedsKernel, "cost", count_kernel)
    monkeypatch.setattr(SamoyedsEngine, "cost", count_engine)
    report = Deployment.from_dict(AUTO_CHUNKED_PAGED).run()
    assert report.completed == 32
    # Gate/up and down: two kernel simulations per padded segment shape.
    assert kernel_calls and max(kernel_calls.values()) <= 2, kernel_calls
    # Many more token counts than shapes, so a token-count key fails.
    assert len(engine_tokens) > 2 * len(kernel_calls)
