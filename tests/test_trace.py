"""Unit tests for the trace format (repro.sim.trace)."""

import numpy as np
import pytest

from repro.params import MemOp
from repro.sim.trace import Trace, TraceAccess, decode_trace, merge_stats

from conftest import t


class TestTraceAccess:
    def test_fields(self):
        acc = TraceAccess(gap=3, op=MemOp.STORE, addr=128)
        assert (acc.gap, acc.op, acc.addr) == (3, MemOp.STORE, 128)

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            TraceAccess(gap=-1, op=MemOp.LOAD, addr=0)

    def test_rejects_negative_addr(self):
        with pytest.raises(ValueError):
            TraceAccess(gap=0, op=MemOp.LOAD, addr=-8)


class TestTraceConstruction:
    def test_from_accesses(self):
        trace = Trace([TraceAccess(1, MemOp.LOAD, 64), TraceAccess(0, MemOp.STORE, 0)])
        assert len(trace) == 2
        assert trace[0].addr == 64
        assert trace[1].op == MemOp.STORE

    def test_from_arrays_validates_lengths(self):
        with pytest.raises(ValueError):
            Trace.from_arrays([1, 2], [0], [0, 64])

    def test_from_arrays_validates_ops(self):
        with pytest.raises(ValueError):
            Trace.from_arrays([0], [7], [0])

    def test_from_arrays_validates_gaps(self):
        with pytest.raises(ValueError):
            Trace.from_arrays([-1], [0], [0])

    def test_empty_trace(self):
        trace = Trace()
        assert len(trace) == 0
        assert trace.footprint_bytes == 0
        assert trace.write_ratio == 0.0

    def test_iteration_matches_indexing(self):
        trace = t([(0, "R", 1), (2, "W", 2), (1, "R", 1)])
        assert list(trace) == [trace[0], trace[1], trace[2]]

    def test_equality(self):
        a = t([(0, "R", 1), (1, "W", 2)])
        b = t([(0, "R", 1), (1, "W", 2)])
        c = t([(0, "R", 1), (1, "R", 2)])
        assert a == b
        assert a != c


class TestTraceStats:
    def test_counts(self):
        trace = t([(0, "R", 0), (0, "W", 1), (0, "W", 1)])
        assert trace.num_loads == 1
        assert trace.num_stores == 2
        assert trace.write_ratio == pytest.approx(2 / 3)

    def test_line_addrs(self):
        trace = Trace.from_arrays([0, 0], [0, 0], [0, 130])
        assert list(trace.line_addrs(64)) == [0, 2]

    def test_unique_lines(self):
        trace = t([(0, "R", 5), (0, "R", 5), (0, "R", 7)])
        assert trace.unique_lines(64) == 2

    def test_line_addrs_rejects_bad_line_size(self):
        with pytest.raises(ValueError):
            t([(0, "R", 0)]).line_addrs(0)


class TestTraceTransforms:
    def test_slice(self):
        trace = t([(0, "R", 0), (1, "W", 1), (2, "R", 2)])
        sub = trace.slice(1, 3)
        assert len(sub) == 2
        assert sub[0].addr == 64

    def test_concat(self):
        a = t([(0, "R", 0)])
        b = t([(1, "W", 1)])
        both = a.concat(b)
        assert len(both) == 2
        assert both[1].op == MemOp.STORE


class TestPersistence:
    def test_npz_roundtrip(self, tmp_path):
        trace = t([(0, "R", 0), (3, "W", 9)])
        path = str(tmp_path / "trace.npz")
        trace.save(path)
        assert Trace.load(path) == trace

    def test_csv_roundtrip(self):
        trace = t([(0, "R", 0), (3, "W", 9)])
        assert Trace.from_csv(trace.to_csv()) == trace

    def test_csv_skips_comments_and_blanks(self):
        text = "# header\n\n0,R,64\n"
        trace = Trace.from_csv(text)
        assert len(trace) == 1

    def test_csv_rejects_bad_op(self):
        with pytest.raises(ValueError):
            Trace.from_csv("0,X,64\n")

    def test_csv_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Trace.from_csv("0,R\n")


class TestMergeStats:
    def test_detects_shared_lines(self):
        a = t([(0, "R", 1), (0, "R", 2)])
        b = t([(0, "W", 2), (0, "W", 3)])
        total, shared = merge_stats([a, b], 64)
        assert total == 4
        assert shared == 1

    def test_no_sharing(self):
        a = t([(0, "R", 1)])
        b = t([(0, "R", 2)])
        assert merge_stats([a, b], 64) == (2, 0)


class TestEstimatedMisses:
    """The numpy miss estimate against a plain per-access loop."""

    @staticmethod
    def loop_estimate(trace, line_bytes, num_sets):
        last = {}
        misses = 0
        for access in trace:
            line = access.addr // line_bytes
            if last.get(line % num_sets) != line:
                misses += 1
            last[line % num_sets] = line
        return misses

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("num_sets", [1, 4, 256, 1024])
    def test_matches_loop(self, seed, num_sets):
        rng = np.random.default_rng(seed)
        n = 500
        trace = Trace.from_arrays(
            rng.integers(0, 5, n),
            rng.integers(0, 2, n),
            rng.integers(0, 64 * 3 * num_sets, n),
        )
        decoded = decode_trace(trace, 64)
        assert decoded.estimated_misses(num_sets) == self.loop_estimate(
            trace, 64, num_sets
        )

    def test_empty_trace(self):
        assert decode_trace(Trace(), 64).estimated_misses(256) == 0
