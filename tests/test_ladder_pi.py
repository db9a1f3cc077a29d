"""``tools/ladder_pi.py`` prints one JSON line: per ring and size, the time of
``hnf_pi`` on the square input and a digest of its T, pivot rows and P."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import ladder_pi  # noqa: E402
from slomod.contfrac import Slope  # noqa: E402
from slomod.localized import hnf_pi  # noqa: E402

from helpers import F2, Z5, square_draw  # noqa: E402


def test_one_json_line_with_a_rung_per_ring_and_size(capsys):
    assert ladder_pi.main(["2", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert (out["prec"], out["slope"]) == (8, "1/2")
    for name, cfg in (("Z5", Z5), ("GF2", F2)):
        assert sorted(out[name]) == ["2", "3"]
        for size in (2, 3):
            ech = hnf_pi(square_draw(cfg, Slope(1, 2), size), 8)
            report = f"T = {ech.T!r}\nrows = {ech.pivot_rows}\nP = {ech.P!r}"
            assert out[name][str(size)]["digest"] == hashlib.sha256(report.encode()).hexdigest()[:20]
            assert out[name][str(size)]["seconds"] >= 0


def test_a_size_below_one_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        ladder_pi.main(["0"])
    assert e.value.code == 2
    assert "0 is below 1" in capsys.readouterr().err
