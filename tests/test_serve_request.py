"""Arrival traces for the serving simulator."""

import pytest

from repro.errors import ConfigError
from repro.workloads.traces import (
    Request,
    bursty_trace,
    poisson_trace,
    replay_trace,
    validate_trace,
)


class TestRequest:
    def test_total_tokens(self):
        req = Request(rid=0, arrival_s=0.0, prompt_tokens=100,
                      output_tokens=20)
        assert req.total_tokens == 120

    @pytest.mark.parametrize("kwargs", [
        dict(arrival_s=-1.0, prompt_tokens=10, output_tokens=1),
        dict(arrival_s=0.0, prompt_tokens=0, output_tokens=1),
        dict(arrival_s=0.0, prompt_tokens=10, output_tokens=0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Request(rid=0, **kwargs)


class TestPoisson:
    def test_shape_and_order(self):
        trace = poisson_trace(64, 4.0, seed=1)
        assert len(trace) == 64
        validate_trace(trace)
        assert trace[0].arrival_s == 0.0

    def test_deterministic_under_seed(self):
        assert poisson_trace(32, 2.0, seed=9) == poisson_trace(
            32, 2.0, seed=9)
        assert poisson_trace(32, 2.0, seed=9) != poisson_trace(
            32, 2.0, seed=10)

    def test_mean_rate_close(self):
        trace = poisson_trace(2000, 5.0, seed=3)
        rate = (len(trace) - 1) / trace[-1].arrival_s
        assert rate == pytest.approx(5.0, rel=0.15)

    def test_jitter_bounds_lengths(self):
        trace = poisson_trace(200, 4.0, prompt_tokens=100,
                              output_tokens=10, jitter=0.25, seed=2)
        assert all(75 <= r.prompt_tokens <= 125 for r in trace)

    def test_zero_jitter_fixed_lengths(self):
        trace = poisson_trace(20, 4.0, prompt_tokens=128,
                              output_tokens=8, jitter=0.0, seed=2)
        assert {r.prompt_tokens for r in trace} == {128}
        assert {r.output_tokens for r in trace} == {8}

    @pytest.mark.parametrize("kwargs", [
        dict(num_requests=0, rate_qps=1.0),
        dict(num_requests=4, rate_qps=0.0),
        dict(num_requests=4, rate_qps=1.0, jitter=1.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            poisson_trace(**kwargs)


class TestBursty:
    def test_same_mean_rate_as_poisson(self):
        trace = bursty_trace(2000, 5.0, seed=3)
        rate = (len(trace) - 1) / trace[-1].arrival_s
        assert rate == pytest.approx(5.0, rel=0.25)

    def test_burstier_than_poisson(self):
        """Squared coefficient of variation of gaps exceeds Poisson's 1."""
        import numpy as np
        bursty = bursty_trace(1000, 5.0, burst_factor=10.0, seed=4)
        gaps = np.diff([r.arrival_s for r in bursty])
        cv2 = gaps.var() / gaps.mean() ** 2
        assert cv2 > 1.5

    def test_deterministic(self):
        assert bursty_trace(64, 3.0, seed=5) == bursty_trace(
            64, 3.0, seed=5)

    def test_invalid_burst_factor(self):
        with pytest.raises(ConfigError):
            bursty_trace(8, 1.0, burst_factor=1.0)


class TestReplay:
    def test_from_tuples_sorted(self):
        trace = replay_trace([(2.0, 100, 10), (0.0, 50, 5),
                              (1.0, 10, 1)])
        assert [r.arrival_s for r in trace] == [0.0, 1.0, 2.0]
        assert [r.rid for r in trace] == [0, 1, 2]
        validate_trace(trace)

    def test_from_mappings(self):
        trace = replay_trace([
            {"arrival_s": 0.0, "prompt_tokens": 8, "output_tokens": 2},
        ])
        assert trace[0].prompt_tokens == 8

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            replay_trace([])


class TestValidate:
    def test_unsorted_rejected(self):
        bad = [Request(0, 1.0, 8, 1), Request(1, 0.0, 8, 1)]
        with pytest.raises(ConfigError):
            validate_trace(bad)

    def test_duplicate_ids_rejected(self):
        bad = [Request(0, 0.0, 8, 1), Request(0, 1.0, 8, 1)]
        with pytest.raises(ConfigError):
            validate_trace(bad)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            validate_trace([])


class TestEosSampling:
    def test_deterministic_under_seed(self):
        def run():
            return [r.output_tokens for r in
                    poisson_trace(32, 2.0, output_tokens=16, seed=3,
                                  eos_sampling=True)]
        assert run() == run()

    def test_geometric_spread_beyond_jitter_band(self):
        trace = poisson_trace(256, 2.0, output_tokens=32, jitter=0.0,
                              seed=3, eos_sampling=True)
        outs = [r.output_tokens for r in trace]
        assert min(outs) < 16 and max(outs) > 48
        assert all(o >= 1 for o in outs)

    def test_mean_tracks_target(self):
        trace = poisson_trace(2000, 2.0, output_tokens=32, seed=3,
                              eos_sampling=True)
        mean = sum(r.output_tokens for r in trace) / len(trace)
        assert 0.85 * 32 < mean < 1.15 * 32

    def test_default_stays_in_jitter_band(self):
        trace = poisson_trace(64, 2.0, output_tokens=32, jitter=0.25,
                              seed=3)
        assert all(24 <= r.output_tokens <= 40 for r in trace)

    def test_bursty_supports_flag(self):
        trace = bursty_trace(64, 4.0, output_tokens=16, seed=3,
                             eos_sampling=True)
        assert len({r.output_tokens for r in trace}) > 4
