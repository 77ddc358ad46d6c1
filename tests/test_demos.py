"""Each script under demos/ runs end to end at desk size."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
DESK_SIZE = {
    "single_rectangle": {"m": 8, "n": 8},
    "composite_cross": {"k_n": 4},
    "preconditioner_study": {"k_n": 4},
}


def test_every_demo_has_a_desk_size():
    assert {path.stem for path in DEMOS.glob("*.py")} == set(DESK_SIZE)


@pytest.mark.parametrize("name", sorted(DESK_SIZE))
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}",
                                                  DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.run(**DESK_SIZE[name])
    out = capsys.readouterr().out
    assert out and "nan" not in out
