"""Per-layer spans and counts, recorded from outside ``src``.

``Tracer`` wraps every public module-level function and every method of every
class defined in the layer modules, and rebinds each wrapper wherever a
``slomod`` module imported the original by name (``from .series import
euclid_div_full``).  A wrapper counts calls and times its span; a span's self
time is its duration minus the time of the spans nested in it, so the self
times of all layers add up to the traced time.  Nothing is installed until
``install`` runs, and ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# layer module -> layer number, as in ROADMAP.md
LAYERS = {
    "coeffs": 0, "gfq": 0,
    "series": 1, "precision": 1,
    "localized": 2,
    "maxmod": 3, "pairrep": 3, "precise_sum": 3,
    "cli": 4,
}

# methods left unwrapped: construction and printing, not arithmetic
_SKIP = {"__init__", "__new__", "__repr__", "__str__", "__hash__", "__init_subclass__"}


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0  # time of outermost spans only: recursion counted once
        self.self_s = 0.0
        self.depth = 0
        self.extra = 0  # hook-specific count: product terms, division loops


def _mul_terms(args, result):
    return len(args[0].coeffs) * len(args[1].coeffs)


def _loops(args, result):
    return result.loops


# (module, qualified name) -> function adding to _Stat.extra
_HOOKS = {
    ("series", "SnuSeries.__mul__"): _mul_terms,
    ("series", "euclid_div_full"): _loops,
}


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str], _Stat] = {}
        self._stack = [0.0]
        self._undo = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, key):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    stat.extra += hook(args, result)
                return result
            finally:
                dt = clock() - t0
                stat.depth -= 1
                stat.self_s += dt - stack.pop()
                if stat.depth == 0:
                    stat.incl += dt
                stack[-1] += dt

        span.__perfbench_span__ = key
        return span

    def _targets(self):
        """(owner, attribute, original, key) for everything to wrap."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"slomod.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    out.append((mod, name, obj, (layer, name)))
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if attr in _SKIP:
                            continue
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                            out.append((obj, attr, raw, (layer, f"{name}.{attr}")))
        return out

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "slomod" or n.startswith("slomod.")]
        for owner, attr, raw, key in self._targets():
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, key))
            else:
                new = self._wrap(raw, key)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
            if inspect.isclass(owner):
                continue
            # rebind by-name imports of module-level functions
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw and mod is not owner:
                        setattr(mod, name, new)
                        self._undo.append((mod, name, raw))
        return self

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------

    def stat(self, layer, name) -> _Stat:
        return self.stats.get((layer, name)) or _Stat()

    def layer_self(self, layer) -> float:
        return sum(s.self_s for (lay, _), s in self.stats.items() if lay == layer)


def is_span(fn) -> bool:
    """True when ``fn`` (or the function behind a class/static method) is a
    tracer wrapper."""
    fn = getattr(fn, "__func__", fn)
    return hasattr(fn, "__perfbench_span__")


def per_layer(tracer: Tracer, max_bits: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    st = tracer.stat
    mul = st("series", "SnuSeries.__mul__")
    euclid = st("series", "euclid_div_full")
    return {
        "coeffs.mul_calls": st("coeffs", "CoeffElem.__mul__").calls,
        "coeffs.add_calls": st("coeffs", "CoeffElem.__add__").calls,
        "coeffs.inv_calls": st("coeffs", "CoeffElem.inv").calls,
        "coeffs.self_s": tracer.layer_self("coeffs"),
        "coeffs.max_bits": max_bits,
        "gfq.ratfunc_ops": sum(st("gfq", f"RatFunc.{m}").calls for m in ("__add__", "__mul__", "__neg__", "inv_any")),
        "gfq.self_s": tracer.layer_self("gfq"),
        "series.mul_calls": mul.calls,
        "series.mul_terms": mul.extra,
        "series.mul_s": mul.incl,
        "series.mul_self_s": mul.self_s,
        "series.newton_calls": st("series", "invert_unit").calls,
        "series.euclid_calls": euclid.calls,
        "series.euclid_loops": euclid.extra,
        "series.gcd_calls": st("series", "gcd_extended").calls,
        "series.div_unit_calls": st("series", "divide_by_unit").calls,
        "series.self_s": tracer.layer_self("series"),
        "precision.reduce_calls": st("precision", "reduce_series").calls,
        "precision.self_s": tracer.layer_self("precision"),
        "localized.hnf_pi_s": st("localized", "hnf_pi").incl,
        "localized.kernel_pi_s": st("localized", "kernel_pi").incl,
        "localized.hnf_u_s": st("localized", "hnf_u").incl,
        "localized.smith_u_s": st("localized", "smith_u").incl,
        "localized.u_divide_calls": st("localized", "u_divide").calls,
        "localized.u_invert_calls": st("localized", "u_invert_unit").calls,
        "localized.self_s": tracer.layer_self("localized"),
        "maxmod.max_module_s": st("maxmod", "max_module").incl,
        "maxmod.self_s": tracer.layer_self("maxmod"),
        "pairrep.psi_s": st("pairrep", "psi").incl,
        "pairrep.pair_to_ml_s": st("pairrep", "pair_to_ml").incl,
        "precise_sum.approx_max_sum_s": st("precise_sum", "approx_max_sum").incl,
        "cli.parse_s": st("cli", "parse_session").incl,
        "cli.self_s": tracer.layer_self("cli"),
    }
