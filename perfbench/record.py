"""Record ``reference.json``: the outcome of every input any seed can pick.

    PYTHONPATH=src python3 perfbench/record.py

Run it once at the commit whose outputs are the reference.  For every
operation of every workload's pool it stores ``ok:<digest of the report>``
or ``error:<AlgebraError class>``, the slowest operation per workload (the
per-operation deadline must stay well above it), and the input properties
the workload was designed to have.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
from collections import Counter

import gen
import ops
import worker
from slomod import cli
from slomod.errors import AlgebraError


def _entries(session):
    for name in session.block_order:
        kind, value, tag = session.blocks[name]
        if kind == "matrix":
            yield from (e for row in value.a for e in row)
        else:
            yield value


def _u_pivot_degree(session):
    """Weierstrass degrees of the first-row u-pivot candidates (the entry of
    least Gauss valuation) of the session's matrices; None if uncertified."""
    out = []
    for name in session.block_order:
        kind, value, tag = session.blocks[name]
        if kind != "matrix":
            continue
        best = None
        for e in value.a[0]:
            if e.is_exact_zero():
                continue
            try:
                v, d = e.certified_val_deg()
            except AlgebraError:
                continue
            if best is None or v < best[0]:
                best = (v, d)
        out.append(None if best is None else best[1])
    return out


def properties(pool):
    sizes, slopes, commands, precs = Counter(), Counter(), Counter(), Counter()
    exact = degs = 0
    n_entries = 0
    deg_max, val_lo, val_hi = 0, None, None
    u_piv = []
    for op in pool:
        s = cli.parse_session(op["session"])
        commands[op["cmd"][0] if op["kind"] == "cli" else op["call"]["fn"]] += 1
        slopes[f"{s.slope.beta}/{s.slope.alpha}"] += 1
        precs[s.cfg.default_prec] += 1
        for name in s.block_order:
            kind, value, tag = s.blocks[name]
            if kind == "matrix":
                sizes[f"{value.rows}x{value.cols}"] += 1
        entries = [e for e in _entries(s) if not e.is_exact_zero()]
        exact += all(e.is_exact() for e in entries)
        for e in entries:
            n_entries += 1
            d = e.max_deg() or 0
            degs += d
            deg_max = max(deg_max, d)
            for c in e.coeffs.values():
                if c.has_witness():
                    v = c.val()
                    val_lo = v if val_lo is None else min(val_lo, v)
                    val_hi = v if val_hi is None else max(val_hi, v)
        if op["kind"] == "cli" and (op["cmd"][0] in ("pair", "eq", "saturate", "intersect") or "@u" in op["session"]):
            u_piv += _u_pivot_degree(s)
    certified = [d for d in u_piv if d is not None]
    return {
        "operations": len(pool),
        "commands": dict(sorted(commands.items())),
        "matrix_sizes": dict(sorted(sizes.items())),
        "slopes": dict(sorted(slopes.items())),
        "precisions": {str(k): v for k, v in sorted(precs.items())},
        "exact_share": round(exact / len(pool), 4),
        "entry_degree_mean": round(degs / max(1, n_entries), 3),
        "entry_degree_max": deg_max,
        "digit_pi_valuation_range": [str(val_lo), str(val_hi)],
        "u_pivots": len(u_piv),
        "u_pivot_nonzero_weierstrass_share": round(sum(d > 0 for d in certified) / len(u_piv), 4) if u_piv else None,
    }


def main():
    signal.signal(signal.SIGALRM, worker._on_alarm)
    out = {"outcomes": {}, "slowest_s": {}, "properties": {}}
    for workload in gen.WORKLOADS:
        pool = gen.pool(workload)
        outcomes, times = {}, []
        for op in pool:
            kind, detail, dt = worker.run_op(ops.prepare(op), worker.DEADLINE_S)
            if kind not in ("ok", "error"):
                sys.exit(f"{workload} {op['id']}: {kind} {detail}: not a usable reference")
            outcomes[op["id"]] = f"ok:{ops.digest(detail)}" if kind == "ok" else f"error:{detail}"
            times.append(dt)
        out["outcomes"][workload] = outcomes
        out["slowest_s"][workload] = round(max(times), 3)
        out["properties"][workload] = properties(pool)
        errors = Counter(v for v in outcomes.values() if v.startswith("error:"))
        print(
            f"{workload}: {len(pool)} ops, {sum(times):.1f} s, slowest {max(times):.2f} s, "
            f"median {statistics.median(times) * 1e3:.1f} ms, errors {dict(errors)}",
            file=sys.stderr,
        )
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
