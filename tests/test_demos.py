"""Each demo runs to the end under the warning filters of pyproject.toml: a
numpy overflow that is warned, not flagged, or a complex value cast into a
real buffer fails it, as does a deletion from the public API it calls."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
