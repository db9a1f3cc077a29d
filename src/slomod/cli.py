"""Command-line front end: session files, command dispatch, deterministic
text reports.

A session file declares the ring, the slope and named blocks::

    ring zp p=5 prec=20
    slope 0/1
    matrix A 1 2
    25 ; 5*u^3
    series f
    1 - u !
    vector v
    5 ; u

Series literals are polynomials ``c*u^k + ...`` with integer coefficients
(zp backend) or polynomials in t (fq backend, parenthesized inside
products).  An fq literal's digits are integers read mod p, so they lie in
the prime field F_p: digits of GF(p^m) outside F_p are reachable only from
the library (``gfq.GF`` elements are ints in [0, q)).  A trailing ``!``
marks the literal as exactly known, otherwise coefficients carry the header
pi-precision.  Commands print canonical forms only, so reports are
byte-stable across runs; failures print the structured error name.  Exit
codes: 0 success, 2 certified-precision failure, 1 usage error.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .coeffs import CoeffElem, FqConfig, ZpConfig
from .contfrac import Slope, best_approx_denominators, cf_expand
from .errors import AlgebraError, ParseError, PrecisionExhausted, RequiresExactInput
from .localized import SMat, hnf_pi, hnf_u
from .maxmod import MLModule, max_module, max_sum_ml, scalar_extend
from .pairrep import pair_intersect, psi, saturate
from .precise_sum import GapCertificate, approx_max_sum
from .series import SnuSeries, euclid_div, gcd_extended


class SessionFile:
    def __init__(self, cfg, slope, blocks, block_order):
        self.cfg = cfg
        self.slope = slope
        self.blocks = blocks
        self.block_order = block_order

    def matrix(self, name) -> SMat:
        return self._get(name, "matrix")

    def series(self, name) -> SnuSeries:
        return self._get(name, "series")

    def tag(self, name):
        return self._block(name)[2]

    def _block(self, name):
        if name not in self.blocks:
            raise ParseError(f"no block named '{name}'")
        return self.blocks[name]

    def _get(self, name, kind):
        have, value, _ = self._block(name)
        if have != kind:
            raise ParseError(f"block '{name}' is a {have}, not a {kind}")
        return value


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(?P<coef>\([^()]*\)|[^*\s]+)\s*\*\s*)?u(?:\^(?P<exp>-?\d+))?$")


def _parse_coef(cfg, text, lineno):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    if cfg.kind == "zp":
        m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", text)
        if not m:
            raise ParseError(f"bad coefficient '{text}'", lineno)
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ParseError(f"zero denominator in '{text}'", lineno)
        return Fraction(int(m.group(1)), den)
    # fq backend: polynomial in t
    value = cfg.exa_zero()
    for part in re.split(r"(?=[+-])", text.replace(" ", "")):
        if not part or part in "+-":
            continue
        sign = -1 if part.startswith("-") else 1
        part = part.lstrip("+-")
        # c, t^k or c*t^k (the * only between a digit and t)
        m = re.fullmatch(r"(\d+)?(?:(?<=\d)\*(?=t))?(?:t(?:\^(\d+))?)?", part)
        if not m:
            raise ParseError(f"bad coefficient '{text}'", lineno)
        c = int(m.group(1)) if m.group(1) else 1
        k = 0
        if "t" in part:
            k = int(m.group(2)) if m.group(2) else 1
        mono = cfg.exa_shift_pi(cfg.exa_from_int(sign * c), k)
        value = value + mono
    return value


def parse_series_literal(cfg, slope, text, prec, lineno=None) -> SnuSeries:
    """The series of one literal; without a trailing ``!`` its digits are
    known below level ``prec``."""
    text = text.strip()
    exact = text.endswith("!")
    if exact:
        text = text[:-1].strip()
    # split into signed terms at top-level +/- (minus binds to the next term)
    chunks = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch == "+":
            chunks.append(cur)
            cur = ""
        elif (
            depth == 0
            and ch == "-"
            and cur.strip()
            and not cur.rstrip().endswith(("^", "*", "(", "+", "-"))
        ):
            chunks.append(cur)
            cur = "-"
        else:
            cur += ch
    chunks.append(cur)
    coeffs = {}
    for chunk in chunks:
        chunk = chunk.replace(" ", "")
        if not chunk or chunk == "0":
            continue
        negate = False
        body = chunk
        m = _TERM_RE.match(body)
        if m is None and body.startswith("-"):
            m = _TERM_RE.match(body[1:].strip())
            if m:
                negate = True
        if m:
            exp = int(m.group("exp")) if m.group("exp") else 1
            coef_text = m.group("coef") or "1"
        else:
            exp = 0
            coef_text = body
        val = _parse_coef(cfg, coef_text, lineno)
        if negate:
            val = -val
        if cfg.exa_is_zero(val):
            continue
        c = CoeffElem.from_exact(cfg, val)
        coeffs[exp] = coeffs[exp] + c if exp in coeffs else c
    x = SnuSeries(cfg, slope, coeffs)
    if not exact:
        x = x.reduce_levels(Fraction(prec))
    return x


def _int(text, lineno=None) -> int:
    if not re.fullmatch(r"[+-]?\d+", text):
        raise ParseError(f"expected an integer, found '{text}'", lineno)
    return int(text)


def _ratio(text, lineno=None) -> tuple[int, int]:
    """(num, den) of a literal num/den with den != 0."""
    m = re.fullmatch(r"([+-]?\d+)/([+-]?\d+)", text)
    if m is None or int(m.group(2)) == 0:
        raise ParseError(f"expected num/den with den != 0, found '{text}'", lineno)
    return int(m.group(1)), int(m.group(2))


def _slope(text, lineno=None) -> Slope:
    try:
        return Slope(*_ratio(text, lineno))
    except ValueError as e:
        raise ParseError(f"slope {text}: {e}", lineno) from None


def parse_session(text: str) -> SessionFile:
    cfg = None
    slope = None
    blocks = {}
    order = []
    lines = text.splitlines()
    i = 0

    def strip(line):
        return line.split("#", 1)[0].strip()

    def body_line(kind, lineno):
        """The next line of a block opened on line ``lineno``."""
        nonlocal i
        if i >= len(lines):
            raise ParseError(f"unexpected end of {kind} block", lineno)
        i += 1
        return strip(lines[i - 1])

    while i < len(lines):
        line = strip(lines[i])
        lineno = i + 1
        i += 1
        if not line:
            continue
        words = line.split()
        head = words[0]
        if head == "ring":
            if len(words) < 2 or words[1] not in ("zp", "fq"):
                raise ParseError(f"unknown ring kind '{' '.join(words[1:2])}'", lineno)
            params = dict(w.split("=", 1) for w in words[2:] if "=" in w)
            key = "p" if words[1] == "zp" else "q"
            if key not in params:
                raise ParseError(f"ring {words[1]} needs {key}=", lineno)
            prec = _int(params.get("prec", "20"), lineno)
            if prec < 1:
                raise ParseError(f"prec = {prec} is below 1", lineno)
            make = ZpConfig if words[1] == "zp" else FqConfig
            try:
                cfg = make(_int(params[key], lineno), prec)
            except ValueError as e:
                raise ParseError(str(e), lineno) from None
        elif head == "slope":
            if len(words) < 2:
                raise ParseError("slope needs beta/alpha", lineno)
            slope = _slope(words[1], lineno)
        elif head in ("matrix", "vector", "series"):
            if cfg is None or slope is None:
                raise ParseError("header (ring, slope) must precede blocks", lineno)
            if len(words) < (4 if head == "matrix" else 2):
                need = "a name and its rows and columns" if head == "matrix" else "a name"
                raise ParseError(f"{head} block needs {need}", lineno)
            name = words[1]
            if name in blocks:
                raise ParseError(f"duplicate block name '{name}'", lineno)
            tag = None
            for w in words[2:]:
                if w.startswith("@"):
                    tag = w[1:]
            if head == "matrix":
                rows, cols = _int(words[2], lineno), _int(words[3], lineno)
                if rows < 1 or cols < 1:
                    raise ParseError(f"matrix dimensions below 1: {rows} x {cols}", lineno)
                entries = []
                for r in range(rows):
                    cells = body_line(head, lineno).split(";")
                    if len(cells) != cols:
                        raise ParseError(
                            f"expected {cols} entries, found {len(cells)}", i
                        )
                    entries.append([parse_series_literal(cfg, slope, c, prec, i) for c in cells])
                blocks[name] = ("matrix", SMat(cfg, slope, entries), tag)
            elif head == "vector":
                cells = body_line(head, lineno).split(";")
                blocks[name] = (
                    "vector",
                    [parse_series_literal(cfg, slope, c, prec, i) for c in cells],
                    tag,
                )
            else:
                body = body_line(head, lineno)
                blocks[name] = ("series", parse_series_literal(cfg, slope, body, prec, i), tag)
            order.append(name)
        else:
            raise ParseError(f"unknown directive '{head}'", lineno)
    if cfg is None or slope is None:
        raise ParseError("session must declare ring and slope")
    return SessionFile(cfg, slope, blocks, order)


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------


def _fmt_ml(ml: MLModule) -> str:
    lines = [f"M = {ml.as_matrix()!r}", f"L = {ml.L}"]
    for j, sched in enumerate(ml.schedules()):
        seqs = " ".join(f"({f},{d},{n})" for f, d, n in sched.sequences)
        lines.append(f"schedule[{j}] = {seqs}")
    return "\n".join(lines)


def _fmt_pair(P) -> str:
    vals = " ".join(str(v) for v in P.b_vals)
    return f"A = {P.A!r}\nB = {P.B!r}\npivots_u = [{vals}]"


# command -> (number of positional arguments, required options)
_COMMANDS = {
    "hnf": (1, ()), "max": (1, ()), "sum": (2, ()), "intersect": (2, ()),
    "pair": (1, ()), "eq": (2, ()), "saturate": (1, ()), "extend": (1, ("to",)),
    "approx-sum": (2, ("c", "pu", "ppi")), "cf": (1, ()), "divmod": (2, ()), "gcd": (2, ()),
}


_USAGE = (
    "usage: slomod COMMAND SESSION NAME... [--OPTION VALUE | --OPTION=VALUE]...,"
    " or slomod cf NUM/DEN; COMMAND is one of " + " ".join(_COMMANDS)
)


def _split_args(args):
    """(positional arguments, {option: value}) of a command line; an option
    is ``--opt value`` or ``--opt=value``."""
    names, opts = [], {}
    rest = iter(args)
    for a in rest:
        if a.startswith("--"):
            key, eq, value = a[2:].partition("=")
            if not eq:
                value = next(rest, None)
                if value is None:
                    raise ParseError(f"option {a} needs a value")
            opts[key] = value
        else:
            names.append(a)
    return names, opts


def _prec(name, text):
    """A command's ``--prec``: for divmod the level of its remainder, a
    number above 0; for every other command the working precision, an
    integer of at least 1."""
    if name != "divmod":
        prec = _int(text)
        if prec < 1:
            raise ParseError(f"--prec {prec} is below 1")
        return prec
    try:
        level = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--prec {text} is not a number") from None
    if level <= 0:
        raise ParseError(f"--prec {level} is not above 0")
    return level


def run_command(cmd, session: SessionFile | None) -> str:
    """Execute one command against a parsed session (none for cf),
    returning the report."""
    name = cmd[0]
    if name not in _COMMANDS:
        raise ParseError(f"unknown command '{name}'")
    args, opts = _split_args(cmd[1:])
    arity, required = _COMMANDS[name]
    if len(args) < arity:
        raise ParseError(f"{name} needs {arity} argument{'s' if arity > 1 else ''}")
    for key in required:
        if key not in opts:
            raise ParseError(f"{name} needs --{key}")
    if "prec" in opts:
        prec = _prec(name, opts["prec"])
    elif session is not None:
        prec = session.cfg.default_prec
    if name == "hnf":
        M = session.matrix(args[0])
        tag = session.tag(args[0]) or "pi"
        if tag == "pi":
            ech = hnf_pi(M, prec)
            piv = ", ".join(p.render() for p in ech.pivots)
            return f"T = {ech.T!r}\nrows = {ech.pivot_rows}\npivots = [{piv}]"
        ech = hnf_u(M, prec)
        vals = ", ".join(str(v) for v in ech.pivot_vals)
        return f"T = {ech.T!r}\nrows = {ech.pivot_rows}\npivots_u = [{vals}]"
    if name == "max":
        return _fmt_ml(max_module(session.matrix(args[0]), prec))
    if name == "sum":
        a = max_module(session.matrix(args[0]), prec)
        b = max_module(session.matrix(args[1]), prec)
        return _fmt_ml(max_sum_ml(a, b, prec))
    if name == "intersect":
        Pa = psi(session.matrix(args[0]), prec)
        Pb = psi(session.matrix(args[1]), prec)
        return _fmt_pair(pair_intersect(Pa, Pb, prec))
    if name == "pair":
        return _fmt_pair(psi(session.matrix(args[0]), prec))
    if name == "eq":
        Pa = psi(session.matrix(args[0]), prec)
        Pb = psi(session.matrix(args[1]), prec)
        return "EQUAL" if Pa.equal(Pb) else "DIFFERENT"
    if name == "saturate":
        P = psi(session.matrix(args[0]), prec)
        return _fmt_pair(saturate(P, prec))
    if name == "extend":
        ml = max_module(session.matrix(args[0]), prec)
        return _fmt_ml(scalar_extend(ml, _slope(opts["to"])))
    if name == "approx-sum":
        cert = GapCertificate(_int(opts["c"]), _int(opts["pu"]), _int(opts["ppi"]))
        ml = approx_max_sum(
            session.matrix(args[0]), session.matrix(args[1]), cert, prec
        )
        return f"slope = {ml.slope}\n" + _fmt_ml(ml)
    if name == "cf":
        x = Fraction(*_ratio(args[0]))
        cf = cf_expand(x)
        out = [f"cf = {cf!r}"]
        out.append("convergents = " + " ".join(f"{p}/{q}" for p, q in zip(cf.p, cf.q)))
        if "gamma" in opts:
            sched = best_approx_denominators(x, _int(opts["gamma"]))
            out.append(
                "schedule = " + " ".join(f"({f},{d},{n})" for f, d, n in sched.sequences)
            )
        return "\n".join(out)
    if name == "divmod":
        q, r = euclid_div(session.series(args[0]), session.series(args[1]), Fraction(prec))
        return f"q = {q.render()}\nr = {r.render()}"
    # gcd, the last of _COMMANDS
    g, k, l, m, n = gcd_extended(session.series(args[0]), session.series(args[1]))
    return f"g = {g.render()}\nk = {k.render()}\nl = {l.render()}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(_USAGE)
        return 0
    try:
        if not argv:
            raise ParseError("no command given; " + _USAGE)
        name, rest = argv[0], argv[1:]
        session = None
        if name in _COMMANDS and name != "cf":
            names, opts = _split_args(rest)
            if not names:
                raise ParseError(f"{name} needs a session file")
            with open(names[0], encoding="utf-8") as fh:
                session = parse_session(fh.read())
            rest = names[1:] + [f"--{k}={v}" for k, v in opts.items()]
        print(run_command([name] + rest, session))
        return 0
    except (PrecisionExhausted, RequiresExactInput) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except AlgebraError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, IndexError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
