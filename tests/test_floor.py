"""The per-iteration floor script at a tiny size."""

import importlib.util
import time
from pathlib import Path
from types import SimpleNamespace

import pdsplit.bench

FLOOR = Path(__file__).resolve().parent.parent / "tools" / "floor.py"


def _floor():
    spec = importlib.util.spec_from_file_location("floor", FLOOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_floor_prints_each_method_and_their_sum():
    floor = _floor()
    best = floor.floor(3, 4, 0, 5, 2)
    assert list(best) == list(floor.METHODS) and all(us > 0.0 for us in best.values())
    rows = [line.split() for line in floor.rows("3x4", best)]
    assert [r[:2] for r in rows] == [["3x4", m] for m in (*floor.METHODS, "sum")]
    us = [float(r[2]) for r in rows]
    assert abs(us[-1] - sum(us[:-1])) <= 0.1 * len(floor.METHODS)


def test_main_warms_up_before_its_first_timed_call(monkeypatch, capsys):
    # a fresh process used to time 8x8 first, through the BLAS start-up
    floor = _floor()
    events = []
    monkeypatch.setattr(pdsplit.bench, "_run_method",
                        lambda bundle, method, iters: events.append(("run", method, iters)))
    monkeypatch.setattr(floor, "time", SimpleNamespace(
        perf_counter=lambda: events.append("clock") or time.perf_counter()))
    floor.main()
    assert events[:3] == [("run", floor.METHODS[0], 3), "clock", ("run", floor.METHODS[0], 550)]
    assert events.count(("run", floor.METHODS[0], 3)) == 1
    assert "50x200   sum" in capsys.readouterr().out
