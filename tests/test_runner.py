"""``tools/runner.py``: one call through the benchmark worker's ``run_op``
under its SIGALRM handler, and the tools that use it put the previous
handler back."""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import check_reference  # noqa: E402
import ladder_pi  # noqa: E402
import profile_pool  # noqa: E402
import runner  # noqa: E402
import survey  # noqa: E402
from slomod.errors import NotInvertible  # noqa: E402


def _raise(exc):
    def call(*args):
        raise exc

    return call


def test_a_call_past_a_short_deadline_is_late():
    with runner.alarm():
        kind, report, seconds = runner.outcome(lambda: time.sleep(5), 0.05)
    assert (kind, report) == ("late", "")
    assert seconds < 1


def test_outcome_kinds():
    with runner.alarm():
        assert runner.outcome(lambda: "T = 1")[:2] == ("ok", "T = 1")
        assert runner.outcome(_raise(NotInvertible("no")))[:2] == ("NotInvertible", "")
        crash = runner.outcome(_raise(ValueError("bad digit")))
    assert crash[:2] == ("crash:ValueError", "ValueError('bad digit')")


def _sentinel(signum, frame):
    raise AssertionError("the sentinel SIGALRM handler ran")


def test_alarm_restores_the_previous_handler_when_its_block_raises():
    previous = signal.signal(signal.SIGALRM, _sentinel)
    try:
        with pytest.raises(ZeroDivisionError), runner.alarm():
            assert signal.getsignal(signal.SIGALRM) is not _sentinel
            1 / 0
        assert signal.getsignal(signal.SIGALRM) is _sentinel
    finally:
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("tool, argv", [
    (survey, ["--draws", "1"]),
    (ladder_pi, ["2"]),
    (profile_pool, ["--workload", "pi_exact", "--limit", "1"]),
    (check_reference, None),
], ids=["survey", "ladder_pi", "profile_pool", "check_reference"])
def test_each_tool_puts_the_previous_handler_back(tool, argv, capsys):
    previous = signal.signal(signal.SIGALRM, _sentinel)
    try:
        assert (tool.main() if argv is None else tool.main(argv)) == 0
        assert signal.getsignal(signal.SIGALRM) is _sentinel
    finally:
        signal.signal(signal.SIGALRM, previous)
    capsys.readouterr()


def test_a_ladder_rung_that_fails_prints_its_kind_for_the_digest(monkeypatch):
    monkeypatch.setattr(ladder_pi, "hnf_pi", _raise(NotInvertible("no")))
    with runner.alarm():
        seconds, digest = ladder_pi.rung(ladder_pi.Z5, 2)
    assert digest == "NotInvertible" and seconds >= 0
