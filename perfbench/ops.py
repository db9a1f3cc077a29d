"""Turn a generated operation into a timed callable and digest its report.

A CLI operation is ``cli.parse_session`` plus ``cli.run_command`` on the
generated session: the ``slomod`` command path without interpreter start.
A library operation builds its inputs from the session first, untimed, and
times one top-level library call.
"""

from __future__ import annotations

import hashlib

from slomod import cli, pairrep, series
from slomod.contfrac import Slope


def _slope(text):
    b, a = text.split("/")
    return Slope(int(b), int(a))


def _fmt_matrix(M):
    return "[" + "; ".join(", ".join(e.render() for e in row) for row in M.a) + "]"


def _lib_call(op):
    s = cli.parse_session(op["session"])
    params = op["call"]
    fn = params["fn"]
    if fn == "psi_inverse":
        P = pairrep.psi(s.matrix("A"), s.cfg.default_prec)

        def call():
            gens, ml = pairrep.psi_inverse(P, s.cfg.default_prec)
            return f"gens = {_fmt_matrix(gens)}\nL = {ml.L}"

        return call
    target = _slope(params["slope"])
    if fn == "invert_unit":
        x = series.slope_transport(s.series("x"), target)
        return lambda: f"y = {series.invert_unit(x, params['n']).render()}"
    if fn == "weierstrass_prep":
        x = series.slope_transport(s.series("x"), target)

        def call():
            q, h = series.weierstrass_prep(x, params["prec"])
            return f"q = {q.render()}\nh = {h.render()}"

        return call
    y = series.slope_transport(s.series("y"), target)
    x = series.slope_transport(s.series("x"), target)

    def call():
        q, r = series.euclid_div(y, x, params["prec"])
        return f"q = {q.render()}\nr = {r.render()}"

    return call


def prepare(op):
    """A zero-argument callable returning the operation's report text."""
    if op["kind"] == "cli":
        text, cmd = op["session"], op["cmd"]
        return lambda: cli.run_command(cmd, cli.parse_session(text))
    return _lib_call(op)


def digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()[:20]
