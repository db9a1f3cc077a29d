import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from slomod.cli import main, parse_session, run_command
from slomod.contfrac import Slope
from slomod.errors import ParseError
from slomod.maxmod import max_module, scalar_extend

MINIMAL = """\
ring zp p=5 prec=20
slope 0/1
matrix A 1 1
1 !
"""

EXAMPLE = """\
ring zp p=5 prec=16
slope 0/1
matrix M 1 2
25 ! ; 5*u^3 !
matrix U 1 1
u !
matrix P 1 1
5 !
series y
u^2 !
series x
u - 5 !
"""

FQ = """\
ring fq q=2 prec=10
slope 1/2
matrix A 1 1
t*u + 1 !
"""


def test_parse_minimal():
    s = parse_session(MINIMAL)
    assert s.cfg.p == 5 and s.cfg.default_prec == 20
    assert s.slope.nu == 0
    assert s.matrix("A").rows == 1


def test_parse_unknown_ring():
    with pytest.raises(ParseError) as e:
        parse_session("ring qq foo=1\nslope 0/1\n")
    assert "ring" in str(e.value) or "qq" in str(e.value)


def test_parse_fq():
    s = parse_session(FQ)
    x = s.matrix("A").a[0][0]
    assert x.coeffs[1].num_val == 1  # the t*u term


def test_max_worked_example_report():
    s = parse_session(EXAMPLE)
    out = run_command(["max", "M"], s)
    lines = out.splitlines()
    assert lines[0] == "M = [pi]"
    assert lines[1] == "L = [0]"


def test_cf_report():
    s = parse_session(MINIMAL)
    out = run_command(["cf", "10/7"], s)
    assert "[1;2,3]" in out
    assert "1/1 3/2 10/7" in out


def test_divmod_report():
    s = parse_session(EXAMPLE)
    out = run_command(["divmod", "y", "x", "--prec", "8"], s)
    assert "q = pi + u" in out
    assert "r = pi^2" in out
    for level in ("0", "-1/2"):
        with pytest.raises(ParseError, match=f"--prec {level} is not above 0"):
            run_command(["divmod", "y", "x", "--prec", level], s)


# saturate below full rank: stdout recorded from the Smith-form saturation
SATURATE_GOLDEN = [
    (
        "ring zp p=5 prec=8\nslope 0/1\nmatrix B 2 1\n5 !\n1 + u !\n",
        (
            'A = [1; (pi^-1) + (pi^-1)*u]\n'
            'B = [pi; 1 + u + -1*u^23 + -1*u^24 + O(u^44)]\n'
            'pivots_u = [1]\n'
        ),
    ),
    (
        "ring zp p=5 prec=8\nslope 0/1\nmatrix B 3 2\n5 ! ; u !\nu ! ; 5 !\n1 ! ; 1 !\n",
        (
            'A = [1, 0; (pi^-1)*u, -pi^2 + u^2; (pi^-1), -pi + u]\n'
            'B = [1, 0; 0, 1; pi^8*u^-9 + -pi^7*u^-8 + pi^6*u^-7 + -pi^5*u^-6 + pi^4*u^-5'
            ' + -pi^3*u^-4 + pi^2*u^-3 + -pi*u^-2 + u^-1, -pi^7*u^-8 + pi^6*u^-7 + -pi^5*u^-6'
            ' + pi^4*u^-5 + -pi^3*u^-4 + pi^2*u^-3 + -pi*u^-2 + u^-1]\n'
            'pivots_u = [0 0]\n'
        ),
    ),
]


@pytest.mark.parametrize("session, expected", SATURATE_GOLDEN, ids=["2x1", "3x2"])
def test_saturate_golden_session(tmp_path, capsys, session, expected):
    f = tmp_path / "s.txt"
    f.write_text(session)
    assert main(["saturate", str(f), "B"]) == 0
    assert capsys.readouterr().out == expected


def test_main_divmod_takes_a_fractional_prec(tmp_path, capsys):
    """divmod's --prec is the level of its remainder, so 1/2 reaches it
    from the shell, with the output of the same call through run_command."""
    f = tmp_path / "s.txt"
    f.write_text(EXAMPLE)
    for level in ("1/2", "8"):
        assert main(["divmod", str(f), "y", "x", "--prec", level]) == 0
        expected = run_command(["divmod", "y", "x", "--prec", level], parse_session(EXAMPLE))
        assert capsys.readouterr().out == expected + "\n"
    for level in ("0", "-1/2"):
        assert main(["divmod", str(f), "y", "x", f"--prec={level}"]) == 1
        assert capsys.readouterr().err == f"ParseError: --prec {level} is not above 0\n"


EXTEND = """\
ring zp p=5 prec=12
slope 1/3
matrix M 2 2
25 ! ; 5*u^3 !
u ! ; 1 + u^2 !
"""


@pytest.mark.parametrize("target", ["1/3", "1/2", "2/3", "1/1"])
def test_main_extend_prints_the_scalar_extension_of_the_maximal_module(tmp_path, capsys, target):
    f = tmp_path / "s.txt"
    f.write_text(EXTEND)
    assert main(["extend", str(f), "M", "--to", target]) == 0
    nu2 = Slope(*map(int, target.split("/")))
    ml = scalar_extend(max_module(parse_session(EXTEND).matrix("M"), 12), nu2)
    assert ml.slope == nu2
    lines = [f"M = {ml.as_matrix()!r}", f"L = {ml.L}"]
    lines += [f"schedule[{j}] = " + " ".join(f"({f},{d},{n})" for f, d, n in sched.sequences)
              for j, sched in enumerate(ml.schedules())]
    out = capsys.readouterr().out
    assert out == "\n".join(lines) + "\n"
    assert out.startswith("M = [pi^2, pi*u^3; u, 1 + u^2]\nL = [0, 0]\n")


def test_main_extend_below_the_session_slope_is_slope_order(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text(EXTEND)
    assert main(["extend", str(f), "M", "--to", "1/5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "SlopeOrder: target slope 1/5 below 1/3\n"


def test_sum_and_eq_reports():
    s = parse_session(EXAMPLE)
    assert "M = [1]" in run_command(["sum", "U", "P"], s)
    assert run_command(["eq", "M", "M"], s) == "EQUAL"
    assert run_command(["eq", "M", "U"], s) == "DIFFERENT"


def test_eq_via_pair_roundtrip():
    s = parse_session(EXAMPLE)
    out = run_command(["pair", "M"], s)
    assert "A = [1]" in out
    assert "B = [pi]" in out


def test_determinism():
    s1 = parse_session(EXAMPLE)
    s2 = parse_session(EXAMPLE)
    assert run_command(["max", "M"], s1) == run_command(["max", "M"], s2)
    assert run_command(["intersect", "U", "P"], s1) == run_command(["intersect", "U", "P"], s2)


def test_main_exit_codes(tmp_path):
    f = tmp_path / "s.txt"
    f.write_text(EXAMPLE)
    assert main(["max", str(f), "M"]) == 0
    # a working precision below 1 certifies no digit: usage error, exit 1
    assert main(["pair", str(f), "M", "--prec", "0"]) == 1
    z = tmp_path / "prec0.txt"
    z.write_text(PREC0)
    assert main(["saturate", str(z), "B"]) == 1
    # inexact gcd operands: certified-precision failure, exit 2
    g = tmp_path / "inexact.txt"
    g.write_text("ring zp p=5 prec=6\nslope 0/1\nseries a\nu - 1\nseries b\nu - 1\n")
    assert main(["gcd", str(g), "a", "b"]) == 2
    assert main(["max", str(f), "NOPE"]) == 1


def test_cli_entrypoint_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "slomod.cli", "cf", "2/5"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "[0;2,2]" in out.stdout


def test_main_help_and_option_spellings(tmp_path, capsys):
    for flag in ("-h", "--help"):
        assert main([flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: slomod ") and out.count("\n") == 1
    f = tmp_path / "s.txt"
    f.write_text(EXAMPLE)
    # --opt value and --opt=value are one option; cf needs no session file
    expected = run_command(["max", "M", "--prec", "12"], parse_session(EXAMPLE)) + "\n"
    for argv in (["max", str(f), "M", "--prec", "12"], ["max", str(f), "--prec=12", "M"]):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
    assert main(["cf", "10/7", "--gamma=3"]) == 0
    assert capsys.readouterr().out == run_command(["cf", "10/7", "--gamma", "3"], None) + "\n"


HEAD = "ring zp p=5 prec=8\nslope 1/2\n"
PREC0 = "ring zp p=5 prec=0\nslope 1/2\nmatrix B 2 1\n5 + u !\n1 + u !\n"
FQ_HEAD = "ring fq q=3 prec=8\nslope 0/1\n"
DIVMOD = "series y\nu^2 !\nseries x\nu - 5 !\n"


@pytest.mark.parametrize(
    "session, argv, message",
    [
        (HEAD + "series f\n", ["max", "A"], "line 3: unexpected end of series block"),
        (HEAD + "vector v\n", ["max", "A"], "line 3: unexpected end of vector block"),
        (HEAD + "matrix A\n1 !\n", ["max", "A"], "line 3: matrix block needs"),
        (HEAD + "matrix A 1 x\n1 !\n", ["max", "A"], "line 3: expected an integer"),
        ("ring zp p=5 prec=8\nslope 1\n", ["max", "A"], "line 2: expected num/den"),
        ("ring zp p=5 prec=8\nslope 1/0\n", ["max", "A"], "line 2: expected num/den"),
        ("ring zp prec=8\nslope 1/2\n", ["max", "A"], "line 1: ring zp needs p="),
        ("ring zp p=4\nslope 1/2\n", ["max", "A"], "line 1: p = 4 is not prime"),
        (HEAD + "series f\n1/0 !\n", ["max", "A"], "line 4: zero denominator"),
        (HEAD + "matrix A 1 1\n1 !\n", ["extend", "A"], "extend needs --to"),
        (HEAD + "matrix A 1 1\n1 !\n", ["extend", "A", "--to"], "option --to needs a value"),
        (HEAD + "matrix A 1 1\n1 !\n", ["sum", "A"], "sum needs 2 arguments"),
        (None, ["cf", "10/0"], "expected num/den with den != 0, found '10/0'"),
        (None, ["cf"], "cf needs 1 argument"),
        (FQ_HEAD + "series f\n(t^x) + u !\n", ["max", "A"], "line 4: bad coefficient 't^x'"),
        (FQ_HEAD + "series f\n(2*) + u !\n", ["max", "A"], "line 4: bad coefficient '2*'"),
        (HEAD + "matrix A -3 2\n", ["hnf", "A"], "line 3: matrix dimensions below 1: -3 x 2"),
        (HEAD + "matrix A 0 2\n", ["pair", "A"], "line 3: matrix dimensions below 1: 0 x 2"),
        (PREC0, ["saturate", "B"], "line 1: prec = 0 is below 1"),
        (PREC0, ["pair", "B"], "line 1: prec = 0 is below 1"),
        (PREC0.replace("prec=0", "prec=8"), ["saturate", "B", "--prec", "0"], "--prec 0 is below 1"),
        (PREC0.replace("prec=0", "prec=8"), ["pair", "B", "--prec", "-2"], "--prec -2 is below 1"),
        # only divmod takes a fractional level
        (PREC0.replace("prec=0", "prec=8"), ["pair", "B", "--prec", "1/2"], "expected an integer, found '1/2'"),
        (None, ["cf", "10/7", "--prec", "1/2"], "expected an integer, found '1/2'"),
        # a malformed command line exits 1 too, not 2
        (None, ["cf", "10/7", "--prec"], "option --prec needs a value"),
        (None, [], "no command given"),
        (None, ["cf", "10/7", "--prec=0"], "--prec 0 is below 1"),
        # divmod's level may be written with a leading minus after a space
        (HEAD + DIVMOD, ["divmod", "y", "x", "--prec", "-1/2"], "--prec -1/2 is not above 0"),
        (HEAD + DIVMOD, ["divmod", "y", "x", "--prec", "abc"], "--prec abc is not a number"),
        (HEAD + DIVMOD, ["divmod", "y", "x", "--prec=1/0"], "--prec 1/0 is not a number"),
        (None, ["max"], "max needs a session file"),
        (None, ["nope", "s.txt"], "unknown command 'nope'"),
    ],
)
def test_malformed_input_is_a_parse_error(tmp_path, capsys, session, argv, message):
    if session is not None:
        f = tmp_path / "s.txt"
        f.write_text(session)
        argv = [argv[0], str(f)] + argv[1:]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ParseError: ")
    assert message in captured.err


def _readme_session():
    """The demo.txt of README.md's CLI session and its transcript: a list of
    (argv, expected output lines, exit code)."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if "Saved as `demo.txt`" in line) + 2
    end = lines.index("", start)
    demo = "".join(line[4:] + "\n" for line in lines[start:end])
    runs = []
    for line in lines[end:]:
        if line.startswith("    $ slomod "):
            command, _, comment = line[6:].partition("#")
            code = re.fullmatch(r" exit (\d)", comment)
            runs.append((shlex.split(command)[1:], [], int(code.group(1)) if code else 0))
        elif runs and line.startswith("    "):
            runs[-1][1].append(line[4:])
        elif runs and not line:
            break
    return demo, runs


def test_readme_library_snippet():
    """README's "Library use" snippet runs and does what its comments say."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("## Library use")
    start = next(i for i in range(start, len(lines)) if lines[i].startswith("    "))
    end = next(i for i in range(start, len(lines)) if lines[i] and not lines[i].startswith("    "))
    snippet = "".join(line[4:] + "\n" for line in lines[start:end])
    assert "# ml.as_matrix() is [pi], ml.L is [0]" in snippet
    names = {}
    exec(snippet, names)
    ml = names["ml"]
    assert repr(ml.as_matrix()) == "[pi]"
    assert ml.L == [0]


def test_readme_cli_session(tmp_path, capsys):
    demo, runs = _readme_session()
    assert len(runs) == 5
    (tmp_path / "demo.txt").write_text(demo)
    for argv, expected, code in runs:
        argv = [str(tmp_path / a) if a == "demo.txt" else a for a in argv]
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        out, err = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
        assert out.splitlines() == expected, argv
        assert err == ""
