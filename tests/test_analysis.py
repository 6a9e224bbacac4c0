import csv
import math
import random

import pytest

from avpipesim.analysis import AnalysisError, compare_runs, compute_stats, export_cdf
from avpipesim.trace import FrameRecord, RunTrace, Span


class TestComputeStats:
    def test_nearest_rank_1_to_100(self):
        st = compute_stats(list(range(1, 101)))
        assert st.p99_us == 99
        assert st.max_us == 100
        assert st.p50_us == 50

    def test_all_equal(self):
        st = compute_stats([7] * 20)
        assert st.mean_us == st.p50_us == st.p99_us == st.max_us == 7

    def test_p50_convention(self):
        # ceil(0.5 * 4) = 2nd order statistic
        assert compute_stats([1, 2, 3, 4]).p50_us == 2

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            compute_stats([])

    def test_matches_sort_oracle_on_random_sets(self):
        rng = random.Random(13)
        for _ in range(10_000 // 10):   # 1000 sets of up to 200 samples
            n = rng.randint(1, 200)
            samples = [rng.randint(0, 10**6) for _ in range(n)]
            st = compute_stats(samples)
            s = sorted(samples)
            for p, got in ((0.50, st.p50_us), (0.95, st.p95_us), (0.99, st.p99_us)):
                assert got == s[max(1, math.ceil(p * n)) - 1]
            assert st.max_us == s[-1]
            assert s[0] <= st.mean_us <= s[-1]
            assert st.p50_us <= st.p95_us <= st.p99_us <= st.max_us


def make_trace(e2es, digest="d"):
    t = RunTrace(scenario_digest=digest, seed=1, duration_us=10**6)
    for i, v in enumerate(e2es):
        t.frames.append(FrameRecord(seq=i, sensor_ts=0, done_ts=v, e2e_us=v,
                                    module_us=v, bubble_us=0, terminal="ctl",
                                    path="normal", has_critical=False,
                                    partial=False))
        t.spans.append(Span(node="ctl", frame_seq=i, start_us=0, end_us=v,
                            worker="g/0", ready_us=0))
    return t


class TestCompareRuns:
    def test_identical_traces_zero_deltas(self):
        a = make_trace([100, 200, 300])
        rep = compare_runs(a, make_trace([100, 200, 300]))
        assert rep["mean_delta_us"] == 0
        assert rep["worst_delta_us"] == 0
        assert rep["violation_delta"] == 0

    def test_faster_treatment_negative_deltas(self):
        rep = compare_runs(make_trace([100, 200, 300]), make_trace([90, 150, 240]))
        assert rep["mean_delta_us"] < 0
        assert rep["worst_delta_us"] == -60

    def test_mismatched_scenarios_rejected(self):
        with pytest.raises(AnalysisError):
            compare_runs(make_trace([1]), make_trace([1], digest="other"))


class TestExportCdf:
    def read(self, path):
        with open(path) as f:
            return list(csv.reader(f))[1:]

    def test_three_samples(self, tmp_path):
        p = tmp_path / "cdf.csv"
        export_cdf([10, 20, 30], p)
        rows = self.read(p)
        assert rows == [["10", "0.333333"], ["20", "0.666667"], ["30", "1.000000"]]

    def test_single_sample(self, tmp_path):
        p = tmp_path / "cdf.csv"
        export_cdf([42], p)
        assert self.read(p) == [["42", "1.000000"]]

    def test_duplicates_collapse_to_higher_fraction(self, tmp_path):
        p = tmp_path / "cdf.csv"
        export_cdf([10, 10, 20], p)
        assert self.read(p) == [["10", "0.666667"], ["20", "1.000000"]]

    def test_columns_non_decreasing_terminal_one(self, tmp_path):
        rng = random.Random(5)
        p = tmp_path / "cdf.csv"
        export_cdf([rng.randint(0, 1000) for _ in range(500)], p)
        rows = self.read(p)
        lats = [int(r[0]) for r in rows]
        fracs = [float(r[1]) for r in rows]
        assert lats == sorted(lats)
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0
