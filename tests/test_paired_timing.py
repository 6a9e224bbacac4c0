"""The gain rule that tools/paired_timing.py prints per metric, on
synthetic runs: the change must win at least nine tenths of the pairs,
ties counting for neither, and the medians must differ by more than the
base's interquartile range. Also, each pass gets its own empty bytecode
cache."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "paired_timing.py"
_SPEC = importlib.util.spec_from_file_location("paired_timing", _PATH)
paired_timing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_timing)


def runs(base, change):
    """One run per side per pair, pair k holding base[k] and change[k]."""
    return [{"side": side, "pair": k, "sim_s": v}
            for side, values in (("base", base), ("change", change))
            for k, v in enumerate(values)]


def verdict(base, change):
    return paired_timing.verdict(paired_timing.compared(runs(base, change), "sim_s"))


BASE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]    # IQR 0.045


def test_met_with_nine_of_ten_pairs_won_and_a_gap_beyond_the_iqr():
    change = [b - 0.1 for b in BASE[:9]] + [BASE[9]]    # the last pair ties
    v = verdict(BASE, change)
    assert v["pairs_won"] and v["gap_beyond_iqr"] and v["met"]
    assert v["gap"] == pytest.approx(0.1)


def test_not_met_with_too_few_pairs_won():
    # eight wins, one loss, one tie: the gap alone would pass
    change = [b - 0.1 for b in BASE[:8]] + [BASE[8] + 0.01, BASE[9]]
    v = verdict(BASE, change)
    assert v["gap_beyond_iqr"]
    assert not v["pairs_won"] and not v["met"]


def test_not_met_with_the_gap_inside_the_base_iqr():
    change = [b - 0.02 for b in BASE]       # every pair won, by less than the IQR
    v = verdict(BASE, change)
    assert v["pairs_won"]
    assert v["gap"] == pytest.approx(0.02)
    assert paired_timing.summary(BASE)["iqr"] == pytest.approx(0.045)
    assert not v["gap_beyond_iqr"] and not v["met"]


def test_report_prints_and_returns_each_verdict(capsys):
    change = [b - 0.1 for b in BASE]
    rows = [{**r, "wall_s": r["sim_s"], "setup_s": 1.0, "rss_mb": 40.0}
            for r in runs(BASE, change)]
    case = paired_timing.report("dag_stress", 0, rows)
    out = capsys.readouterr().out
    assert "dag_stress seed 0 sim_s gain rule: met" in out
    assert "dag_stress seed 0 setup_s gain rule: not met" in out
    assert case["verdicts"]["wall_s"]["met"] and not case["verdicts"]["rss_mb"]["met"]


def test_each_pass_gets_its_own_empty_bytecode_cache(monkeypatch, tmp_path):
    seen = []

    def fake_run(cmd, cwd, env, **kw):
        workdir = cmd[cmd.index("--workdir") + 1]
        pycache = env["PYTHONPYCACHEPREFIX"]
        seen.append(pycache)
        assert os.path.dirname(pycache) == workdir and os.listdir(pycache) == []
        with open(os.path.join(pycache, "written.pyc"), "w") as fh:    # as a pass would
            fh.write("")
        with open(os.path.join(workdir, "result.json"), "w") as fh:
            json.dump({"failed": False}, fh)
        return paired_timing.subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(paired_timing.subprocess, "run", fake_run)
    for side in ("base", "change", "base"):
        assert paired_timing.one_pass(side, "dag_stress", 0, str(tmp_path), None) == {
            "failed": False}
    assert len(set(seen)) == 3
    assert not any(os.path.exists(d) for d in seen)
    assert os.listdir(tmp_path) == []
