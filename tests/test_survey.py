"""``tools/survey.py`` prints one JSON line: per cell, the outcome counts of
its seeded draws and a sha256 over their reports."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import survey  # noqa: E402
from slomod import errors  # noqa: E402

TYPED = {name for name, cls in vars(errors).items()
         if isinstance(cls, type) and issubclass(cls, errors.AlgebraError)}


def _run(capsys, argv):
    assert survey.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_a_slice_fails_only_with_typed_algebra_errors(capsys):
    out = _run(capsys, ["--draws", "3"])
    assert out["draws"] == 3 and len(out["cells"]) == len(survey.cells())
    for name, cell in out["cells"].items():
        kinds = {k: n for k, n in cell.items() if k != "sha256"}
        assert sum(kinds.values()) == 3
        assert set(kinds) <= TYPED | {"ok"}, (name, kinds)


def test_the_digests_are_reproducible(capsys):
    first = _run(capsys, ["--draws", "2"])
    assert first == _run(capsys, ["--draws", "2"])


def test_draws_below_one_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        survey.main(["--draws", "0"])
    assert e.value.code == 2
    assert "0 is below 1" in capsys.readouterr().err
