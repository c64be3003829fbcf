"""Per-rule fixture tests for the REP00x lint rules.

Each rule gets (at least) one fixture that *fires* and one that stays
clean, run through the real :class:`~repro.analysis.engine.LintEngine`
over a temporary tree — the same code path as ``repro lint``.
"""

from __future__ import annotations

import pytest

from repro.analysis import RULES, LintEngine
from repro.errors import ConfigError


def lint_tree(tmp_path, files, select=None):
    """Write ``files`` (relpath -> source) and lint the tree."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    engine = LintEngine(select=select)
    return engine.run([str(tmp_path)]).findings


def codes(findings):
    return sorted({f.rule for f in findings})


def test_all_rules_registered():
    assert sorted(RULES.names()) == [
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP006"]


def test_unknown_rule_code_rejected():
    with pytest.raises(ConfigError, match="REP999"):
        LintEngine(select=["REP999"])


# ----------------------------------------------------------------------
# REP001 — determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_wall_clock_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "serve/loop.py": "import time\nnow = time.time()\n",
        }, select=["REP001"])
        assert codes(findings) == ["REP001"]
        assert "time.time" in findings[0].message

    def test_wall_clock_allowed_in_bench(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "bench/timing.py": "import time\nnow = time.perf_counter()\n",
        }, select=["REP001"])
        assert findings == []

    def test_unseeded_rng_outside_home_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "moe/router.py": ("import numpy as np\n"
                              "rng = np.random.default_rng()\n"),
        }, select=["REP001"])
        assert codes(findings) == ["REP001"]

    def test_rng_home_is_exempt(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "utils/rng.py": ("import numpy as np\n"
                             "def new_rng(seed):\n"
                             "    return np.random.default_rng(seed)\n"),
        }, select=["REP001"])
        assert findings == []

    def test_stdlib_random_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "serve/jitter.py": "import random\nx = random.random()\n",
        }, select=["REP001"])
        # Both the import and the call are flagged.
        assert codes(findings) == ["REP001"]
        assert len(findings) == 2

    def test_set_iteration_sum_in_pricing_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "serve/costs.py": ("def total(chunks):\n"
                               "    return sum(c.step_s for c in "
                               "set(chunks))\n"),
        }, select=["REP001"])
        assert codes(findings) == ["REP001"]
        assert "set" in findings[0].message

    def test_list_iteration_sum_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "serve/costs.py": ("def total(chunks):\n"
                               "    return sum(c.step_s for c in "
                               "sorted(chunks))\n"),
        }, select=["REP001"])
        assert findings == []

    def test_set_loop_accumulation_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "moe/sched.py": ("def total(xs):\n"
                             "    acc = 0.0\n"
                             "    for x in set(xs):\n"
                             "        acc += x\n"
                             "    return acc\n"),
        }, select=["REP001"])
        assert codes(findings) == ["REP001"]


# ----------------------------------------------------------------------
# REP002 — unit discipline
# ----------------------------------------------------------------------
class TestUnitDiscipline:
    def test_deprecated_suffix_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "hw/spec.py": "def cost(latency_ms):\n    return latency_ms\n",
        }, select=["REP002"])
        assert codes(findings) == ["REP002"]
        assert "_ms" in findings[0].message and "_s" in findings[0].message

    def test_mixed_family_arithmetic_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "serve/costs.py": ("def broken(step_s, kv_bytes):\n"
                               "    return step_s + kv_bytes\n"),
        }, select=["REP002"])
        assert codes(findings) == ["REP002"]
        assert "seconds" in findings[0].message
        assert "bytes" in findings[0].message

    def test_ratio_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "hw/roofline.py": ("def intensity(flop_count, moved_bytes):\n"
                               "    flops_per_byte = flop_count "
                               "/ moved_bytes\n"
                               "    return flops_per_byte\n"),
        }, select=["REP002"])
        assert findings == []

    def test_unit_laundering_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "serve/costs.py": ("def total(parts):\n"
                               "    duration = sum(p.step_s "
                               "for p in parts)\n"
                               "    return duration\n"),
        }, select=["REP002"])
        assert codes(findings) == ["REP002"]
        assert "`_s`" in findings[0].message

    def test_suffixed_assignment_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "serve/costs.py": ("def total(parts):\n"
                               "    duration_s = sum(p.step_s "
                               "for p in parts)\n"
                               "    return duration_s\n"),
        }, select=["REP002"])
        assert findings == []


# ----------------------------------------------------------------------
# REP003 — registry hygiene
# ----------------------------------------------------------------------
ENGINE_OK = """\
class MoEEngine:
    def capabilities(self):
        return ()

@ENGINES.register("fast")
class FastEngine(MoEEngine):
    name = "fast"
    FIXED_OVERHEAD = 0.0
    WEIGHT_FACTOR: float = 1.0
    def capabilities(self):
        return ("dense",)
    def workspace_bytes(self, config, seq_len):
        return 0.0
"""

ENGINE_NO_CAPS = """\
class MoEEngine:
    FIXED_OVERHEAD = 0.0
    WEIGHT_FACTOR = 1.0
    def workspace_bytes(self, config, seq_len):
        return 0.0

@ENGINES.register("slow")
class SlowEngine(MoEEngine):
    name = "slow"
"""

ENGINE_NO_FOOTPRINT = """\
class MoEEngine:
    FIXED_OVERHEAD: float
    def capabilities(self):
        return ()

@ENGINES.register("ghost")
class GhostEngine(MoEEngine):
    name = "ghost"
    def capabilities(self):
        return ()
"""


class TestRegistryHygiene:
    def test_clean_engine_passes(self, tmp_path):
        findings = lint_tree(tmp_path, {"moe/layers.py": ENGINE_OK},
                             select=["REP003"])
        assert findings == []

    def test_missing_capabilities_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {"moe/layers.py": ENGINE_NO_CAPS},
                             select=["REP003"])
        assert codes(findings) == ["REP003"]
        assert "capabilities" in findings[0].message

    def test_missing_memory_table_entry_flagged(self, tmp_path):
        """An engine that declares no memory footprint (an annotation
        alone declares none) is flagged once per missing member."""
        findings = lint_tree(tmp_path,
                             {"moe/layers.py": ENGINE_NO_FOOTPRINT},
                             select=["REP003"])
        assert codes(findings) == ["REP003"]
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "WEIGHT_FACTOR" in messages
        assert "FIXED_OVERHEAD" in messages
        assert "workspace_bytes" in messages


# ----------------------------------------------------------------------
# REP004 — frozen-event discipline
# ----------------------------------------------------------------------
EVENTS_OK = """\
from dataclasses import dataclass

@dataclass(frozen=True)
class Event:
    when: float

@dataclass(frozen=True)
class Arrival(Event):
    rid: int = -1
"""

EVENTS_UNFROZEN = """\
from dataclasses import dataclass

@dataclass(frozen=True)
class Event:
    when: float

@dataclass
class Arrival(Event):
    rid: int = -1
"""

EVENT_MUTATION = """\
from dataclasses import dataclass

@dataclass(frozen=True)
class Event:
    when: float

def reschedule(event: Event, delay_s: float) -> None:
    event.when = event.when + delay_s
"""


class TestEventDiscipline:
    def test_frozen_lineage_passes(self, tmp_path):
        findings = lint_tree(tmp_path, {"serve/events.py": EVENTS_OK},
                             select=["REP004"])
        assert findings == []

    def test_unfrozen_subclass_flagged(self, tmp_path):
        findings = lint_tree(tmp_path,
                             {"serve/events.py": EVENTS_UNFROZEN},
                             select=["REP004"])
        assert codes(findings) == ["REP004"]
        assert "frozen" in findings[0].message

    def test_event_mutation_flagged(self, tmp_path):
        findings = lint_tree(tmp_path,
                             {"serve/events.py": EVENT_MUTATION},
                             select=["REP004"])
        assert codes(findings) == ["REP004"]


# ----------------------------------------------------------------------
# REP005 — no bare assert
# ----------------------------------------------------------------------
class TestNoBareAssert:
    def test_assert_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "moe/check.py": "def f(x):\n    assert x > 0\n    return x\n",
        }, select=["REP005"])
        assert codes(findings) == ["REP005"]
        assert "-O" in findings[0].message

    def test_raise_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "moe/check.py": ("def f(x):\n"
                             "    if x <= 0:\n"
                             "        raise ValueError('x')\n"
                             "    return x\n"),
        }, select=["REP005"])
        assert findings == []


# ----------------------------------------------------------------------
# REP006 — named clock epsilon
# ----------------------------------------------------------------------
class TestNoInlineClockEpsilon:
    def test_inline_epsilon_in_serve_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "serve/loop.py": "def due(a, b):\n    return a <= b + 1e-12\n",
        }, select=["REP006"])
        assert codes(findings) == ["REP006"]
        assert "CLOCK_EPS" in findings[0].message

    def test_events_module_may_define_it(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "serve/events.py": "CLOCK_EPS = 1e-12\n",
        }, select=["REP006"])
        assert findings == []

    def test_outside_serve_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "kernels/tile.py": "TOL = 1e-12\n",
        }, select=["REP006"])
        assert findings == []


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
def test_syntax_error_reported_as_parse_finding(tmp_path):
    findings = lint_tree(tmp_path, {"broken.py": "def f(:\n"})
    assert [f.rule for f in findings] == ["PARSE"]


def test_missing_path_raises_config_error(tmp_path):
    engine = LintEngine()
    with pytest.raises(ConfigError, match="does not exist"):
        engine.run([str(tmp_path / "nope")])


def test_findings_sorted_and_stable(tmp_path):
    findings = lint_tree(tmp_path, {
        "b.py": "assert True\n",
        "a.py": "assert True\nassert False\n",
    }, select=["REP005"])
    keys = [(f.path, f.line) for f in findings]
    assert keys == sorted(keys)
    assert len(findings) == 3
