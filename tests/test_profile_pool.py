"""``tools/profile_pool.profile_within`` wraps a function, a method or a
property and puts each original back."""

import cProfile
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import profile_pool  # noqa: E402
from slomod import localized  # noqa: E402
from slomod.localized import SMat, hnf_pi, hnf_u  # noqa: E402

from helpers import NU0, Z5, poly  # noqa: E402


def _matrix():
    return SMat(Z5, NU0, [[poly(Z5, NU0, [(1, 1)]), poly(Z5, NU0, [(0, 5)])],
                          [poly(Z5, NU0, [(0, 5)]), poly(Z5, NU0, [(0, 1), (1, 1)])]])


def test_within_a_property_counts_its_getter_and_restores_it():
    original = vars(localized.Echelon)["P"]
    calls, restore = profile_pool.profile_within("localized.Echelon.P", cProfile.Profile())
    try:
        wrapped = vars(localized.Echelon)["P"]
        assert isinstance(wrapped, property) and wrapped is not original
        assert hnf_pi(_matrix(), 8).P.rows == 2
        assert calls[0] >= 1
    finally:
        restore()
    assert vars(localized.Echelon)["P"] is original


def test_within_a_function_and_a_method_restores_them():
    fn, method = localized.u_invert_unit, vars(SMat)["col"]
    for target in ("localized.u_invert_unit", "localized.SMat.col"):
        calls, restore = profile_pool.profile_within(target, cProfile.Profile())
        try:
            assert localized.u_invert_unit is not fn or vars(SMat)["col"] is not method
            hnf_u(_matrix(), 4).T.col(0)
            assert calls[0] >= 1
        finally:
            restore()
        assert localized.u_invert_unit is fn and vars(SMat)["col"] is method


def test_a_within_target_that_is_never_called_fails_the_run(capsys):
    # the first pi_exact pool input reads no transform P, since hnf_pi
    # builds it only on first read
    original = vars(localized.Echelon)["P"]
    argv = ["--workload", "pi_exact", "--limit", "1", "--within", "localized.Echelon.P"]
    assert profile_pool.main(argv) == 1
    out, err = capsys.readouterr()
    assert "0 calls" in out and "no input called localized.Echelon.P" in err
    assert vars(localized.Echelon)["P"] is original


def test_within_a_static_method_stays_static_and_is_restored():
    # _PiSide.clear is called on an instance: a plain function in its place
    # would take that instance as its first argument
    original = vars(localized._PiSide)["clear"]
    calls, restore = profile_pool.profile_within("localized._PiSide.clear", cProfile.Profile())
    try:
        wrapped = vars(localized._PiSide)["clear"]
        assert isinstance(wrapped, staticmethod) and wrapped is not original
        assert hnf_pi(_matrix(), 8).rank == 2
        assert calls[0] >= 1
    finally:
        restore()
    assert vars(localized._PiSide)["clear"] is original


def test_within_a_static_method_profiles_every_pool_input(capsys):
    argv = ["--workload", "pi_exact", "--limit", "5", "--within", "localized._PiSide.clear"]
    assert profile_pool.main(argv) == 0
    out, _ = capsys.readouterr()
    assert "crash" not in out and "late" not in out
