"""Unit tests for the trace event containers."""

import numpy as np
import pytest

from repro.ipm.events import Trace, TraceEvent


def ev(rank=0, op="write", size=100, t=0.0, dur=1.0, phase="", path="/f",
       offset=0, degraded=False):
    return TraceEvent(
        rank=rank, op=op, path=path, fd=3, offset=offset, size=size,
        t_start=t, duration=dur, phase=phase, degraded=degraded,
    )


def sample_trace():
    tr = Trace()
    tr.append(ev(rank=0, op="write", size=100, t=0.0, dur=1.0, phase="p0"))
    tr.append(ev(rank=1, op="write", size=200, t=0.5, dur=2.0, phase="p0"))
    tr.append(ev(rank=0, op="read", size=300, t=3.0, dur=1.5, phase="p1"))
    tr.append(ev(rank=1, op="pread", size=400, t=3.5, dur=0.5, phase="p1",
                 degraded=True))
    tr.append(ev(rank=0, op="open", size=0, t=5.0, dur=0.1))
    return tr


class TestTraceBasics:
    def test_len_and_iteration(self):
        tr = sample_trace()
        assert len(tr) == 5
        events = list(tr)
        assert events[0].op == "write"
        assert events[3].degraded

    def test_event_properties(self):
        e = ev(size=100, t=2.0, dur=4.0)
        assert e.t_end == 6.0
        assert e.rate == 25.0
        assert ev(dur=0.0).rate == float("inf")

    def test_columns_are_numpy(self):
        tr = sample_trace()
        assert tr.sizes.dtype == np.int64
        assert tr.durations.dtype == np.float64
        assert np.array_equal(tr.ends, tr.starts + tr.durations)

    def test_record_fast_path_equivalent(self):
        a = Trace()
        a.append(ev())
        b = Trace()
        b.record(0, "write", "/f", 3, 0, 100, 0.0, 1.0)
        assert a[0] == b[0]

    @pytest.mark.parametrize(
        "kwargs, keep",
        [
            ({"ops": ["close"]}, lambda e: False),
            ({}, lambda e: True),
            ({"ops": ["write", "pread"]}, lambda e: e.op in ("write", "pread")),
            ({"ranks": [1], "min_size": 250},
             lambda e: e.rank == 1 and e.size >= 250),
        ],
        ids=["all-false", "all-true", "mixed-ops", "mixed-rank-size"],
    )
    def test_filter_selects_like_per_event_selection(self, kwargs, keep):
        tr = sample_trace()
        out = tr.filter(**kwargs)
        assert list(out) == [e for e in tr if keep(e)]

    def test_extend_concatenates(self):
        a, b = sample_trace(), sample_trace()
        a.extend(b)
        assert len(a) == 10


class TestFilters:
    def test_reads_writes_split(self):
        tr = sample_trace()
        assert len(tr.writes()) == 2
        assert len(tr.reads()) == 2
        assert len(tr.data_ops()) == 4

    def test_filter_by_rank_and_phase(self):
        tr = sample_trace()
        assert len(tr.filter(ranks=[0])) == 3
        assert len(tr.filter(phase="p1")) == 2
        assert len(tr.filter(ranks=[1], phase="p0")) == 1

    def test_filter_by_size_window(self):
        tr = sample_trace()
        assert len(tr.filter(min_size=200)) == 3
        assert len(tr.filter(max_size=200)) == 3
        assert len(tr.filter(min_size=200, max_size=300)) == 2

    def test_filter_by_time_window(self):
        tr = sample_trace()
        assert len(tr.filter(t_min=3.0)) == 3
        assert len(tr.filter(t_max=3.0)) == 2

    def test_filter_by_path(self):
        tr = sample_trace()
        tr.append(ev(path="/other"))
        assert len(tr.filter(path="/other")) == 1

    def test_filters_compose(self):
        tr = sample_trace()
        sub = tr.filter(ops=["write"], ranks=[1])
        assert len(sub) == 1
        assert sub[0].size == 200


class TestSummaries:
    def test_totals_and_span(self):
        tr = sample_trace()
        assert tr.total_bytes == 1000
        assert tr.t_first == 0.0
        assert tr.t_last == 5.1
        assert tr.span == pytest.approx(5.1)

    def test_empty_trace_summaries(self):
        tr = Trace()
        assert tr.total_bytes == 0
        assert tr.span == 0.0
        assert tr.phase_names() == []

    def test_phase_names_in_order(self):
        tr = sample_trace()
        assert tr.phase_names() == ["p0", "p1", ""]

    def test_by_phase(self):
        groups = sample_trace().by_phase()
        assert set(groups) == {"p0", "p1", ""}
        assert len(groups["p0"]) == 2

    def test_per_rank_totals(self):
        tr = sample_trace()
        totals = tr.per_rank_totals(nranks=3)
        assert totals[0] == pytest.approx(1.0 + 1.5 + 0.1)
        assert totals[1] == pytest.approx(2.5)
        assert totals[2] == 0.0

    def test_degraded_flags(self):
        tr = sample_trace()
        assert tr.degraded_flags.sum() == 1
