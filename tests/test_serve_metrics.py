"""Serving metrics: percentiles and report folding."""

import pytest

from repro.errors import ConfigError
from repro.serve.metrics import (
    MetricsCollector,
    PercentileSummary,
    RequestRecord,
    StepSample,
    percentile,
    summarise,
)
from repro.workloads.traces import Request


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 50.0) == 5.0
        assert percentile([0.0, 10.0], 90.0) == 9.0

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 9.0

    def test_single_sample(self):
        assert percentile([4.2], 99.0) == 4.2

    def test_order_invariant(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 90.0) == percentile(
            [4.0, 2.0, 1.0, 3.0], 90.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            percentile([], 50.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            percentile([1.0], 101.0)

    def test_summary_block_sorts_once_and_means_in_recorded_order(self):
        """The block's ranks are :func:`percentile`'s and ``max``'s; its
        mean sums the values as recorded, which a left-to-right float
        sum rounds otherwise than the sorted order."""
        values = [1e16, 1.0, -1e16, 1.0, 3.0, 3.0, 2.5]
        block = PercentileSummary.from_values(values)
        assert (block.p50, block.p90, block.p99) == tuple(
            percentile(values, q) for q in (50.0, 90.0, 99.0))
        assert block.max == max(values)
        assert block.mean == sum(values) / len(values)


def _record(rid, arrival, admitted, first, finished, output=4):
    rec = RequestRecord(Request(rid=rid, arrival_s=arrival,
                                prompt_tokens=16, output_tokens=output))
    rec.admitted_s = admitted
    rec.first_token_s = first
    rec.finished_s = finished
    return rec


class TestRecord:
    def test_derived_quantities(self):
        rec = _record(0, 1.0, 1.5, 2.0, 5.0, output=4)
        assert rec.ttft_s == 1.0
        assert rec.queueing_s == 0.5
        assert rec.tpot_s == pytest.approx(1.0)

    def test_single_token_tpot_zero(self):
        rec = _record(0, 0.0, 0.0, 1.0, 1.0, output=1)
        assert rec.tpot_s == 0.0

    def test_unfinished_rejected(self):
        rec = RequestRecord(Request(rid=0, arrival_s=0.0,
                                    prompt_tokens=16, output_tokens=4))
        with pytest.raises(ConfigError):
            _ = rec.tpot_s


class TestSummarise:
    def _collector(self):
        col = MetricsCollector()
        col.finish(_record(0, 0.0, 0.0, 1.0, 4.0))
        col.finish(_record(1, 1.0, 1.0, 3.0, 6.0))
        col.observe(StepSample(clock_s=1.0, queue_depth=2, running=1,
                               step_tokens=32, live_bytes=100.0))
        col.observe(StepSample(clock_s=4.0, queue_depth=0, running=2,
                               step_tokens=2, live_bytes=300.0))
        return col

    def test_report_quantities(self):
        report = summarise(self._collector(), engine="samoyeds",
                           model="m", gpu="g", batcher="continuous",
                           num_requests=2)
        assert report.completed == 2
        assert report.duration_s == pytest.approx(6.0)
        assert report.qps_sustained == pytest.approx(2 / 6.0)
        assert report.max_concurrency == 2
        assert report.peak_memory_bytes == 300.0
        assert report.ttft_s.p50 == pytest.approx(1.5)

    def test_to_dict_round_trips_json(self):
        import json
        report = summarise(self._collector(), engine="e", model="m",
                           gpu="g", batcher="b", num_requests=2)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["engine"] == "e"
        assert payload["ttft_s"]["p99"] >= payload["ttft_s"]["p50"]

    def test_no_completion_yields_empty_report(self):
        # Regression: a run where nothing completed within the horizon
        # used to die in percentile() over zero samples.
        report = summarise(MetricsCollector(), engine="e", model="m",
                           gpu="g", batcher="b", num_requests=3)
        assert report.completed == 0
        assert report.qps_sustained == 0.0
        assert report.duration_s == 0.0
        assert report.ttft_s == PercentileSummary.zero()
        assert report.ttft_s.to_dict() == {"p50": 0.0, "p90": 0.0,
                                           "p99": 0.0, "mean": 0.0,
                                           "max": 0.0}
        assert report.summary_row()          # renders without raising
        assert report.to_dict()["completed"] == 0

    def test_no_completion_keeps_observed_steps(self):
        col = MetricsCollector()
        col.observe(StepSample(clock_s=2.0, queue_depth=3, running=1,
                               step_tokens=64, live_bytes=10.0))
        report = summarise(col, engine="e", model="m", gpu="g",
                           batcher="b", num_requests=3)
        assert report.steps == 1
        assert report.duration_s == pytest.approx(2.0)
        assert report.queue_depth.max == 3.0
        assert report.max_concurrency == 1
        assert report.peak_memory_bytes == 10.0


class TestPreemptionAndReservedPeak:
    def _collector(self):
        col = MetricsCollector()
        col.finish(_record(0, 0.0, 0.0, 1.0, 4.0))
        col.observe(StepSample(clock_s=1.0, queue_depth=0, running=1,
                               step_tokens=8, live_bytes=100.0,
                               reserved_bytes=250.0, pool_util=0.25))
        col.observe(StepSample(clock_s=2.0, queue_depth=0, running=1,
                               step_tokens=1, live_bytes=120.0,
                               reserved_bytes=400.0, pool_util=0.40))
        col.preempt()
        col.preempt()
        return col

    def test_reserved_peak_and_preemptions_folded(self):
        report = summarise(self._collector(), engine="e", model="m",
                           gpu="g", batcher="b", num_requests=1)
        assert report.peak_memory_bytes == 120.0
        assert report.peak_reserved_bytes == 400.0
        assert report.preemptions == 2
        assert report.block_utilisation.max == 0.40

    def test_new_fields_in_payload(self):
        payload = summarise(self._collector(), engine="e", model="m",
                            gpu="g", batcher="b",
                            num_requests=1).to_dict()
        assert payload["peak_reserved_bytes"] == 400.0
        assert payload["preemptions"] == 2
        assert payload["block_utilisation"]["p50"] > 0
