"""Validation helpers, RNG policy and unit formatting."""

import numpy as np
import pytest

from repro.errors import ConfigError, ReproError, ShapeError
from repro.utils import (
    check_divisible,
    check_positive,
    check_power_of_two,
    format_bytes,
    format_seconds,
    format_tflops,
    new_rng,
    require,
)


class TestValidation:
    def test_require_passes(self):
        require(True, "never raised")

    def test_require_raises_default(self):
        with pytest.raises(ReproError, match="boom"):
            require(False, "boom")

    def test_require_custom_error(self):
        with pytest.raises(ShapeError):
            require(False, "bad shape", ShapeError)

    def test_check_positive_accepts(self):
        check_positive(1, "x")
        check_positive(0.5, "x")

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_check_positive_rejects(self, value):
        with pytest.raises(ShapeError):
            check_positive(value, "x")

    def test_check_divisible(self):
        check_divisible(128, 32, "k")
        with pytest.raises(ShapeError):
            check_divisible(100, 32, "k")

    def test_check_divisible_zero_divisor(self):
        with pytest.raises(ShapeError):
            check_divisible(100, 0, "k")

    @pytest.mark.parametrize("value", [1, 2, 64, 4096])
    def test_power_of_two_accepts(self, value):
        check_power_of_two(value, "n")

    @pytest.mark.parametrize("value", [0, 3, 24, -4])
    def test_power_of_two_rejects(self, value):
        with pytest.raises(ShapeError):
            check_power_of_two(value, "n")


class TestRng:
    def test_default_seed_is_deterministic(self):
        a = new_rng().normal(size=4)
        b = new_rng().normal(size=4)
        assert np.allclose(a, b)

    def test_int_seed(self):
        assert np.allclose(new_rng(7).normal(size=3),
                           new_rng(7).normal(size=3))

    def test_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert new_rng(gen) is gen

    def test_distinct_seeds_differ(self):
        assert not np.allclose(new_rng(1).normal(size=8),
                               new_rng(2).normal(size=8))

    def test_negative_seed_rejected(self):
        from repro.context import ExecutionContext
        from repro.serve import ServingEngine
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            new_rng(-1)
        ctx = ExecutionContext.create("mixtral-8x7b")
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            ServingEngine(ctx=ctx, seed=-1)


class TestUnits:
    def test_format_bytes_scales(self):
        assert format_bytes(512) == "512.00 B"
        assert format_bytes(2048) == "2.00 KiB"
        assert format_bytes(3 * 1024 ** 3) == "3.00 GiB"

    def test_format_seconds_scales(self):
        assert format_seconds(2.0).endswith(" s")
        assert format_seconds(2e-3).endswith(" ms")
        assert format_seconds(3e-6).endswith(" us")
        assert format_seconds(5e-9).endswith(" ns")

    def test_format_tflops(self):
        assert format_tflops(1.5e12) == "1.50 TFLOP/s"
