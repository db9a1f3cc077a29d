"""Self-test of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import gen  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from slomod import localized, maxmod, pairrep, precise_sum, series  # noqa: E402

SMALL = """\
ring zp p=5 prec=6
slope 1/2
matrix A 2 2 @u
5 + u ! ; 2*u !
1 + 5*u ! ; 25 !
"""


def _all_bindings():
    """Every function reachable by name from a slomod module or class."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "slomod" or name.startswith("slomod."):
            for attr, value in vars(mod).items():
                out.append((f"{name}.{attr}", value))
                if isinstance(value, type) and value.__module__ == name:
                    out += [(f"{name}.{attr}.{m}", v) for m, v in vars(value).items()]
    return out


def test_rebinds_by_name_imports():
    originals = {
        mod: mod.euclid_div_full for mod in (localized, maxmod, precise_sum)
    }
    originals[pairrep] = pairrep.hnf_u
    with spans.Tracer():
        for mod in (localized, maxmod, precise_sum):
            assert mod.euclid_div_full is series.euclid_div_full
            assert spans.is_span(mod.euclid_div_full)
        assert pairrep.hnf_u is localized.hnf_u and spans.is_span(pairrep.hnf_u)
        assert spans.is_span(series.SnuSeries.__mul__)
        assert spans.is_span(vars(series.SnuSeries)["one"])  # a classmethod
    for mod, fn in originals.items():
        assert not spans.is_span(fn)
    assert localized.euclid_div_full is originals[localized]
    assert pairrep.hnf_u is originals[pairrep]
    assert not any(spans.is_span(v) for _, v in _all_bindings())


def test_counts_match_setprofile():
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = {}
        for key in tracer.stats:
            layer, name = key
            owner = sys.modules[f"slomod.{layer}"]
            for part in name.split("."):
                owner = vars(owner)[part] if isinstance(owner, type) else getattr(owner, part)
            fn = getattr(owner, "__func__", owner)
            codes[fn.__wrapped__.__code__] = key
        seen = dict.fromkeys(tracer.stats, 0)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                seen[codes[frame.f_code]] += 1

        call = ops.prepare({"kind": "cli", "session": SMALL, "cmd": ["pair", "A"]})
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
    finally:
        tracer.uninstall()
    counted = {k: s.calls for k, s in tracer.stats.items()}
    assert counted == seen
    assert counted[("localized", "hnf_u")] >= 1
    assert counted[("coeffs", "CoeffElem.__mul__")] > 100


def test_self_times_add_up():
    tracer = spans.Tracer()
    res = worker.run_pass(
        [{"id": "x", "kind": "cli", "session": SMALL, "cmd": ["hnf", "A"]}], {}, tracer=tracer
    )
    total = sum(tracer.layer_self(layer) for layer in spans.LAYERS)
    assert 0 < total <= res["raw_wall_s"]
    assert tracer.stat("localized", "hnf_u").incl <= total


def test_untraced_pass_installs_nothing(monkeypatch):
    seen = []

    def watch(call, deadline_s):
        seen.append(any(spans.is_span(v) for _, v in _all_bindings()))
        return real(call, deadline_s)

    real = worker.run_op
    monkeypatch.setattr(worker, "run_op", watch)
    op_list = gen.operations("pi_exact", 0)[:3]
    res = worker.run_pass(op_list, {})
    assert res["attempted"] == 3 and seen == [False, False, False]


def test_operations_are_seeded_and_deterministic():
    a = gen.operations("u_local", 5)
    assert a == gen.operations("u_local", 5)
    assert a != gen.operations("u_local", 6)
    assert sorted(op["id"].split("/")[0] for op in a) == sorted(
        op["id"].split("/")[0] for op in gen.operations("u_local", 6)
    )
