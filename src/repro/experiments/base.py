"""Experiment registry and result container."""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.report import format_table

#: The experiment index, in ``repro list`` order: id -> title.  Each id
#: names the module ``repro.experiments.<id>`` that implements it.
_EXPERIMENTS = {
    "e1": "Theorem 2  - OVERLAP slowdown O(d_ave log^3 n)",
    "e2": "Theorem 3  - work-efficient blocked variant",
    "e3": "Theorem 4  - sqrt(d) on uniform-delay hosts",
    "e4": "Theorem 5  - composed sqrt(d_ave) polylog",
    "e5": "Theorem 6  - general hosts + Sec.4 clique chain",
    "e6": "Theorems 7-8 - 2-D guests on linear hosts",
    "e7": "Theorem 9  - one-copy lower bound (H1)",
    "e8": "Theorem 10 - two-copy lower bound (H2)",
    "e9": "Section 1  - baselines vs OVERLAP crossover",
    "e10": "Lemmas 1-4 - killing/labelling invariants",
    "f1": "Figure 1   - pebble dependencies",
    "f2": "Figure 2   - interval tree and kill pattern",
    "f3": "Figure 3   - recursive box structure",
    "f4": "Figure 4   - trapezium phase accounting",
    "f5": "Figure 5   - H2 box census",
    "f6": "Figure 6   - zigzag dependency path",
    "a1": "Ablation   - host bandwidth (the log n assumption)",
    "a2": "Ablation   - the constant c of killing/labelling",
    "a3": "Ablation   - dataflow vs database redundancy",
    "a4": "Ablation   - multicast boundary streams",
    "r1": "Robustness - slowdown vs mid-run fault rate",
    "w1": "Tail latency - execution policy vs link-jitter intensity",
    "x1": "Section 7  - open questions: delay variance, rings",
    "x2": "Section 5  - Theorem 8 in D dimensions",
    "x3": "Calibration - measured constants of the bounds",
    "x4": "Planner    - block-factor recommendation vs measured",
    "x5": "Delta      - incremental re-simulation after one-knob edits",
}


@dataclass
class ExperimentResult:
    """Rows + shape summary of one experiment run."""

    experiment: str
    title: str
    rows: list[dict]
    summary: dict = field(default_factory=dict)
    columns: list[str] | None = None
    #: Sweep wall-time attribution (``SweepProfile.as_dict()``), filled
    #: only when run_experiment(profile=True) / `repro run --telemetry`.
    profile: dict | None = None

    def render(self) -> str:
        """Paper-style text block: title, table, summary lines."""
        out = [f"== {self.experiment}: {self.title} =="]
        out.append(format_table(self.rows, self.columns))
        if self.summary:
            out.append("")
            for k, v in self.summary.items():
                out.append(f"  {k}: {v}")
        return "\n".join(out)

    def print(self) -> None:
        """Print :meth:`render` (bench/CLI convenience)."""
        print("\n" + self.render())

    def to_json(self) -> str:
        """Machine-readable form (rows + summary) for downstream
        tooling — plotting, regression tracking across commits."""

        def _clean(value):
            if isinstance(value, bool) or value is None:
                return value
            if isinstance(value, (int, float, str)):
                return value
            return str(value)

        payload = {
            "experiment": self.experiment,
            "title": self.title,
            "rows": [{k: _clean(v) for k, v in r.items()} for r in self.rows],
            "summary": {str(k): _clean(v) for k, v in self.summary.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def list_experiments() -> list[str]:
    """All registered experiment ids."""
    return list(_EXPERIMENTS)


def experiment_titles() -> dict[str, str]:
    """Every registered experiment id, in index order, with its title."""
    return dict(_EXPERIMENTS)


def get_experiment(exp_id: str) -> Callable[..., ExperimentResult]:
    """Resolve ``run`` for an experiment id (lazy import)."""
    exp_id = exp_id.lower()
    if exp_id not in _EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {list_experiments()}"
        )
    mod = importlib.import_module(f"repro.experiments.{exp_id}")
    return mod.run


def run_experiment(
    exp_id: str,
    quick: bool = True,
    workers: int | None = None,
    cache_dir: str | None = None,
    progress: bool = False,
    profile: bool = False,
    delta: bool = True,
    cache_limit: int | None = None,
    **kwargs,
) -> ExperimentResult:
    """Run one experiment through the sweep engine.

    Every experiment executes inside an ambient
    :class:`~repro.runner.SweepRunner` configured here, so parameter
    grids routed through :func:`repro.runner.sweep` fan out across
    ``workers`` processes and reuse the content-hash cache at
    ``cache_dir`` (``None`` disables caching).  The result table is
    bit-for-bit identical at every worker count.

    ``delta=False`` (the CLI's ``--no-delta``) disables checkpoint
    suffix-replay for near-miss cached configs; ``cache_limit`` bounds
    the cache directory to that many entries (oldest evicted first).

    ``profile=True`` (the CLI's ``--telemetry``) attaches a
    :class:`~repro.telemetry.profile.SweepProfile` to the runner and
    returns its dict form on :attr:`ExperimentResult.profile` — wall
    time per worker/chunk plus the cache-hit vs recompute split,
    accumulated over every sweep the experiment issues.
    """
    import inspect

    from repro.runner import SweepRunner, using

    run = get_experiment(exp_id)
    # Cross-cutting knobs (e.g. the CLI's --engine) are forwarded only
    # to experiments whose run() declares them; the rest are unaffected.
    params = inspect.signature(run).parameters
    kwargs = {k: v for k, v in kwargs.items() if k in params}
    runner = SweepRunner(
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        profile=profile,
        delta=delta,
        cache_limit=cache_limit,
    )
    with using(runner):
        result = run(quick=quick, **kwargs)
    if runner.profile is not None:
        result.profile = runner.profile.as_dict()
    return result
