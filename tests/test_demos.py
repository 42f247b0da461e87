"""Each demo script runs to completion from a scratch directory."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _main(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name", ["certified_bounds", "compare_schemes_lad", "continuous_flow"])
def test_demo_runs(name, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    _main(name)()
    out = capsys.readouterr().out
    assert out
    if name == "certified_bounds":
        assert "VIOLATED" not in out
        assert out.count("clean") == 6
