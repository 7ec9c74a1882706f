"""The paper's claims: every registered experiment, run once and gated.

Two cases per id in :func:`repro.experiments.list_experiments`, one in
quick mode (``<id>-quick``) and one in full mode (``<id>-full``).  Each
case runs the experiment once under ``pytest-benchmark`` (``pedantic``
mode — these are end-to-end simulations, not microbenchmarks), prints
the paper-style table, then asserts that every boolean summary key is
True and that every numeric bound in :data:`BOUNDS` holds.  A quick
case also writes its table to ``results/<id>.txt``.  Registering an
experiment is enough to gate it; a numeric check is one more row in the
table.

CI runs this module with ``--benchmark-disable -k quick`` and then, on
Python 3.11, ``git diff --exit-code results/``, so a change to any
committed table fails even when every shape check still passes.  The
3.11 entry also runs ``-k full`` (about 36 s on a 2-core VM), so the
claims are gated on the full grids as well.
"""

from __future__ import annotations

import operator
import pathlib

import pytest

from repro.experiments import get_experiment, list_experiments

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


class Key(str):
    """A bound that is another key of the same summary."""


#: Numeric shape checks: experiment id -> [(summary key, operator,
#: bound)].  ``between`` is the closed interval ``lo <= value <= hi``.
BOUNDS = {
    "e1": [
        ("d_ave exponent (paper: ~1)", "between", (0.4, 1.3)),
        ("n exponent (paper: polylog, i.e. << 1)", "<", 0.5),
    ],
    "e2": [("efficiency gain (max block / load-1)", ">", 5)],
    "e3": [("log-log exponent (paper: 0.5)", "between", (0.35, 0.7))],
    "e4": [
        ("composed exponent (paper: ~0.5)", "<", Key("plain exponent (paper: ~1)")),
        ("composed exponent (paper: ~0.5)", "<=", 0.8),
    ],
    "e7": [("redundancy starts winning at n", "is not", None)],
    "e9": [
        ("1-copy exponent in d_max (~1)", ">", 0.8),
        ("blocked OVERLAP exponent (<< 1)", "<", 0.5),
        ("who wins at the largest F", "==", "OVERLAP"),
        ("OVERLAP starts winning at F", "is not", None),
    ],
    "e10": [("max killed fraction (<= ~2/c = 0.5)", "<=", 0.5)],
    "f2": [
        ("killed stage1", ">=", 1),  # the long links bite
        ("root label n'", ">", 0),
    ],
    "f3": [("k_max", ">=", 2), ("slowdown bound", ">", 0)],
    "a1": [("1-D streams: bw=1 penalty (thin traffic, ~1.0)", "<", 1.3)],
    "a3": [("dataflow exponent (~0.5)", "between", (0.35, 0.7))],
    "x1": [("ring overhead vs array (paper: <= 2)", "<=", 2.2)],
    "x4": [("worst regret (planned vs best)", "<=", 1.6)],
}

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "is not": operator.is_not,
    "between": lambda value, bound: bound[0] <= value <= bound[1],
}


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize("exp_id", list_experiments())
def test_claims(benchmark, exp_id, quick):
    assert BOUNDS.keys() <= set(list_experiments()), "bound for an unknown id"
    run = get_experiment(exp_id)
    result = benchmark.pedantic(run, kwargs={"quick": quick}, rounds=1, iterations=1)
    summary = result.summary
    benchmark.extra_info.update({k: str(v) for k, v in summary.items()})
    if quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{exp_id}.txt").write_text(result.render() + "\n")
    print()
    result.print()
    for key, value in summary.items():
        if isinstance(value, bool):
            assert value, f"{exp_id}: shape check failed: {key}"
    for key, op, bound in BOUNDS.get(exp_id, []):
        rhs = summary[bound] if isinstance(bound, Key) else bound
        assert _OPS[op](summary[key], rhs), (
            f"{exp_id}: {key} = {summary[key]!r}, expected {op} {rhs!r}"
        )
