"""The benchmark's three workloads: what one sweep runs and renders.

Every workload reaches the program through ``repro.eval.api`` only, and
selects the record + batch-price path without naming a backend or pool
wherever the API no longer offers the choice (:func:`record_price`).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from dataclasses import dataclass
from pathlib import Path

#: Simulation seeds with expected outputs under ``expected/``.  The
#: benchmark's ``--seed n`` selects ``1 + (n - 1) % EXPECTED_SEEDS``,
#: so ``--seed 1`` is the seed ``tests/golden`` pins.
EXPECTED_SEEDS = 16

#: The §4.3 geometries the switch-wide workload prices under both
#: switch strategies and both SNC schemes (2 tasks x 8 lanes).
SWITCH_GEOMETRIES = ("lru32", "lru64", "lru128", "lru64_32way")
SWITCH_MIX = ("equake", "mcf")
SWITCH_QUANTUM = 2_000


def sim_seed(seed: int) -> int:
    return 1 + (seed - 1) % EXPECTED_SEEDS


def child_env(src: Path) -> dict[str, str]:
    """The environment of a sweep process: ours, minus every ``REPRO_*``
    knob, with ``src`` first on the import path.  Bytecode caching is
    on whatever ours says, as in a user's Python, so sweeps load the
    sources compiled rather than compiling them in every process."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "_REPRO_"))
           and key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def record_price(fn) -> dict:
    """Keyword arguments that select the record + batch-price path on
    ``fn``: ``backend="replay"`` while the API still offers a backend
    choice, nothing once it does not."""
    if "backend" in inspect.signature(fn).parameters:
        return {"backend": "replay"}
    return {}


def digest(api, events) -> str:
    """The sha256 of a task's events in the result cache's wire form."""
    wire = json.dumps(api.events_to_dict(events), sort_keys=True)
    return hashlib.sha256(wire.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    n_jobs: int

    def tasks(self, api, seed: int) -> list:
        if self.name == "figures":
            return api.merge_jobs(api.plan_jobs(
                list(api.FIGURES_BY_ID), scale=api.QUICK_SCALE, seed=seed
            ))
        if self.name == "record-full":
            return api.merge_jobs(api.plan_jobs(
                ["figure3"], scale=api.SimulationScale(), seed=seed
            ))
        return api.merge_scenario_jobs(api.scenario_jobs(
            SWITCH_MIX, quantum=SWITCH_QUANTUM,
            snc_keys=SWITCH_GEOMETRIES, scale=api.QUICK_SCALE, seed=seed,
        ))

    def run(self, api, tasks: list, cache, trace_store) -> list:
        return api.run_tasks(tasks, n_jobs=self.n_jobs, cache=cache,
                             trace_store=trace_store,
                             **record_price(api.run_tasks))

    def render(self, api, results: list) -> tuple[dict[str, str], list]:
        """The tables a user reads, by name, plus the figure results
        (empty for the scenario workload)."""
        if self.name == "switch-wide":
            indexed = api.index_scenario_results(results)
            return {
                f"scenarios-{key}": api.format_scenario_table(
                    indexed, snc_key=key) + "\n"
                for key in SWITCH_GEOMETRIES
            }, []
        events = {result.task.workload: result.events
                  for result in results}
        names = (list(api.FIGURES_BY_ID) if self.name == "figures"
                 else ["figure3"])
        figures = [api.FIGURES_BY_ID[name](events) for name in names]
        tables = {figure.figure_id: api.format_figure(figure) + "\n"
                  for figure in figures}
        if self.name == "figures":
            tables["summary"] = api.format_summary(figures) + "\n"
        return tables, figures


WORKLOADS = {
    workload.name: workload for workload in (
        # Why each exists: perfbench/README.md and BENCHMARK.json.
        Workload("figures", 1),
        Workload("record-full", 1),
        Workload("switch-wide", 2),
    )
}


def paper_mae_pct(figures: list) -> float | None:
    """Mean |ours - paper| over the SNC cells of the percent-valued
    Figures 5-10.  Figure 3 and every XOM series are calibrated to the
    paper (they read 0 by construction) and Figure 8 is in normalized
    time, not percent, so all three are left out."""
    errors = [
        abs(series.measured[bench] - paper)
        for figure in figures
        if figure.figure_id != "figure3" and "%" in figure.unit
        for series in figure.series
        if not series.label.startswith("XOM")
        for bench, paper in series.paper.items()
        if bench in series.measured
    ]
    return sum(errors) / len(errors) if errors else None
