"""The figure-sweep benchmark: one workload, one seed, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 60 \\
        --trace 0

A run is a closed loop of *cycles*, one sweep process at a time.  A
cycle runs three fresh sweep processes in lockstep — cold (empty trace
store and result cache), warm (the cold sweep's trace store, an empty
result cache) and hit (every result cached) — so host drift hits every
state alike.  Cycles repeat while another fits in ``--seconds``; every
time metric is the median over the run's cycles (``hit_s`` over every
hit batch of the run, ``setup_s`` over every sweep process).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` follows
every sweep with a traced twin and prints the per-layer metrics of the
traced sweeps plus the tracing overhead.  Every sweep's task event
digests and tables are compared with ``expected/``; the tasks of a sweep
that mismatches, raises, times out or leaves a shared-memory segment
behind count as failed.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from sweep import SPANS_ENV  # noqa: E402
from workloads import WORKLOADS, child_env, sim_seed  # noqa: E402

STATES = ("cold", "warm", "hit")
#: A hit sweep process times this many batches of back-to-back hit
#: sweeps, each at least ``HIT_BATCH_S`` long; ``hit_s`` is their median.
HIT_BATCHES = 4
HIT_BATCH_S = 0.5
#: A sweep still running this long after ``--seconds`` has passed is
#: killed and its tasks count as failed.  No cycle starts unless the
#: longest so far would end within ``--seconds``, so only a hung sweep
#: reaches it.
RUN_MARGIN_S = 90.0

END_TO_END = (
    ("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"), ("hit_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metric -> (unit, state whose sweep reports it, how).
PER_LAYER = {
    "draw.s": ("s", "cold", lambda x: x.get("draw_s", 0.0)),
    "draw.refs_per_s": ("refs/s", "cold",
                        lambda x: _ratio(x, "draw_refs", "draw_s")),
    "record.s": ("s", "cold", lambda x: x.get("record_s", 0.0)),
    "record.refs_per_s": ("refs/s", "cold",
                          lambda x: _ratio(x, "record_refs", "record_s")),
    "record.events_per_kref": (
        "events/kref", "cold",
        lambda x: 1000 * _ratio(x, "record_events", "record_refs")),
    "store.get_s": ("s", "warm", lambda x: x.get("store_get_s", 0.0)),
    "store.put_s": ("s", "cold", lambda x: x.get("store_put_s", 0.0)),
    "decode.mb_per_s": ("MB/s", "warm",
                        lambda x: _ratio(x, "decode_bytes", "decode_s")
                        / 1e6),
    "encode.mb_per_s": ("MB/s", "cold",
                        lambda x: _ratio(x, "encode_bytes", "encode_s")
                        / 1e6),
    "store.mb": ("MB", "cold", lambda x: x.get("store_mb", 0.0)),
    "store.hits": ("count", "warm", lambda x: x.get("store_get_hits", 0)),
    "store.misses": ("count", "cold",
                     lambda x: x.get("store_get_n", 0)
                     - x.get("store_get_hits", 0)),
    "price.s": ("s", "warm", lambda x: x.get("price_s", 0.0)),
    "price.event_lanes": ("count", "warm",
                          lambda x: x.get("event_lanes", 0)),
    "price.ns_per_event_lane": (
        "ns", "warm", lambda x: 1e9 * _ratio(x, "price_s", "event_lanes")),
    "pool.spawn_s": ("s", "warm", lambda x: x.get("pool_spawn_s", 0.0)),
    "pool.ship_s": ("s", "warm", lambda x: x.get("pool_ship_s", 0.0)),
    "pool.ship_mb": ("MB", "warm",
                     lambda x: x.get("pool_ship_bytes", 0) / 1e6),
    "pool.wait_s": ("s", "warm", lambda x: x.get("wait_s", 0.0)),
    "pool.busy_frac": ("fraction", "warm",
                       lambda x: _ratio(x, "busy_s", "worker_s")),
    "pool.dispatched": ("count", "warm", lambda x: x.get("dispatched", 0)),
    "pool.retried": ("count", "warm", lambda x: x.get("retried", 0)),
    "pool.respawned": ("count", "warm", lambda x: x.get("respawned", 0)),
    "scheduler.shards": ("count", "warm", lambda x: x.get("shards", 0)),
    "scheduler.self_s": ("s", "warm",
                         lambda x: x.get("scheduler_self_s", 0.0)),
    "merge.s": ("s", "warm", lambda x: x.get("merge_s", 0.0)),
    "result.get_s": ("s", "hit", lambda x: x.get("result_get_s", 0.0)),
    "result.put_s": ("s", "cold", lambda x: x.get("result_put_s", 0.0)),
    "result.hits": ("count", "hit", lambda x: x.get("result_get_hits", 0)),
    "render.s": ("s", "hit", lambda x: x.get("render_s", 0.0)),
}

def _ratio(layers: dict, numerator: str, denominator: str) -> float:
    """``numerator / denominator``, 0 where the layer did no work."""
    bottom = layers.get(denominator, 0)
    return layers.get(numerator, 0) / bottom if bottom else 0.0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Failure(Exception):
    """A sweep whose tasks count as failed."""


def check(expected: dict, state: str, out: dict) -> None:
    """Raise :class:`Failure` unless a sweep's task digests and table
    digests equal the expected ones."""
    tables = {name: _sha(text) for name, text in out["tables"].items()}
    for kind, got in (("tasks", out["digests"]), ("tables", tables)):
        want = expected[kind]
        if got != want:
            wrong = sorted(key for key in set(got) | set(want)
                           if got.get(key) != want.get(key))
            raise Failure(f"{state} sweep: {kind} differ from "
                          f"expected: {', '.join(wrong)}")


class Bench:
    """One run's state: where it works, what it expects, what it saw."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = sim_seed(seed)
        self.trace = trace
        self.expected = json.loads(
            (HERE / "expected" / workload / f"seed-{self.seed}.json")
            .read_text()
        )
        self.work = Path.cwd() / ".perfbench" / str(os.getpid())
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setups: list[float] = []
        self.imports: list[float] = []
        self.calibs: list[float] = []
        self.paper_mae: float | None = None
        self.missing: set[str] = set()
        self.invalid: dict[str, str] = {}
        self.notes: list[str] = []
        self.env = child_env(Path.cwd() / "src")
        self.env.pop(SPANS_ENV, None)
        self.env["TMPDIR"] = str(self.work / "tmp")
        self.env["REPRO_EVAL_CACHE_DIR"] = str(self.work / "default-cache")

    def sweep(self, state: str, store: Path, cache: Path,
              deadline: float, spans_dir: Path | None = None) -> dict:
        """Run one sweep process and check what it produced."""
        spec = {"workload": self.workload.name, "seed": self.seed,
                "state": state, "store": str(store), "cache": str(cache),
                "hit_batches": HIT_BATCHES, "hit_batch_s": HIT_BATCH_S,
                "trace": spans_dir is not None}
        env = self.env
        if spans_dir is not None:
            spans_dir.mkdir(parents=True)
            env = {**env, SPANS_ENV: str(spans_dir)}
        tasks = len(self.expected["tasks"])
        self.attempted += tasks
        spawned = time.monotonic()
        # Its own process group, so a timeout stops its pool workers too.
        process = subprocess.Popen(
            [sys.executable, str(HERE / "sweep.py"), json.dumps(spec)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            try:
                stdout, stderr = process.communicate(
                    timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
                _remove_shm(process.pid)
                raise Failure(f"{state} sweep timed out") from None
            leaked = _remove_shm(process.pid)
            if process.returncode != 0:
                tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
                raise Failure(f"{state} sweep exited "
                              f"{process.returncode}: {tail[0]}")
            if leaked:
                raise Failure(f"{state} sweep left shm segments {leaked}")
            try:
                out = json.loads(stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                raise Failure(f"{state} sweep printed no result") from None
            check(self.expected, state, out)
        except Failure as failure:
            self.failed += tasks
            self.failures.append(str(failure))
            raise
        self.setups.append(out["ready"] - spawned)
        self.imports.append(out["import_s"])
        self.calibs.append(out["calib_s"])
        if out["paper_mae_pct"] is not None:
            self.paper_mae = out["paper_mae_pct"]
        self.missing.update(out.get("missing", []))
        for layer, problem in out.get("span_errors", []):
            self.invalid.setdefault(layer, f"{state} sweep: {problem}")
        return out

    def cycle(self, index: int, deadline: float) -> tuple[dict, dict]:
        """Cold, warm and hit sweeps over one fresh trace store.  A
        traced run follows each untraced sweep at once with its traced
        twin over a second store, so both see the same host."""
        modes = ("plain", "traced") if self.trace else ("plain",)
        roots = {mode: self.work / f"cycle-{index}-{mode}" for mode in modes}
        outs: dict[str, dict] = {mode: {} for mode in modes}
        for state in STATES:
            for mode, root in roots.items():
                cache = root / ("cache-warm" if state == "warm" else "cache")
                spans_dir = root / f"spans-{state}" if mode == "traced" \
                    else None
                outs[mode][state] = self.sweep(state, root / "store", cache,
                                               deadline, spans_dir)
                if state == "cold" and mode == "traced":
                    outs[mode]["store_mb"] = _tree_bytes(root / "store") / 1e6
        for root in roots.values():
            shutil.rmtree(root, ignore_errors=True)
        return outs["plain"], outs.get("traced")


def _remove_shm(pid: int) -> list[str]:
    """Unlink the pool segments process ``pid`` left behind; returns
    their names (a sweep that ends cleanly leaves none)."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    leaked = [name for name in names
              if name.startswith(f"repro_pool_{pid}_")]
    for name in leaked:
        try:
            os.unlink(f"/dev/shm/{name}")
        except OSError:
            pass
    return leaked


def _tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Cycles until the next would overrun ``seconds``; returns the
    metrics and each metric's sample count."""
    started = time.monotonic()
    deadline = started + seconds + RUN_MARGIN_S
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        cycle_started = time.monotonic()
        try:
            untraced, traced_twin = bench.cycle(len(plain), deadline)
        except Failure:
            break
        plain.append(untraced)
        if traced_twin is not None:
            traced.append(traced_twin)
        longest = max(longest, time.monotonic() - cycle_started)
        last = plain[-1]
        hits = " ".join(f"{sample * 1e3:.3f}"
                        for sample in last["hit"]["hit_samples"])
        print(f"cycle {len(plain)}: cold {last['cold']['wall']:.3f}s "
              f"warm {last['warm']['wall']:.3f}s hit {hits} ms "
              f"({last['hit']['sweeps']} sweeps)", file=sys.stderr)
        if time.monotonic() - started + longest > seconds:
            break
    if bench.trace:
        return per_layer(bench, plain, traced)
    return end_to_end(bench, plain)


def end_to_end(bench: Bench, cycles: list[dict]) -> tuple[dict, dict]:
    samples = {
        "setup_s": bench.setups,
        "cold_s": [c["cold"]["wall"] for c in cycles],
        "warm_s": [c["warm"]["wall"] for c in cycles],
        "hit_s": [sample for c in cycles
                  for sample in c["hit"]["hit_samples"]],
        "peak_rss_mb": [max(c[state]["rss_mb"] for state in STATES)
                        for c in cycles],
    }
    return ({name: _median(values) for name, values in samples.items()},
            {name: len(values) for name, values in samples.items()})


def per_layer(bench: Bench, plain: list[dict],
              traced: list[dict]) -> tuple[dict, dict]:
    samples: dict[str, list[float]] = {}
    for name, (_unit, state, derive) in PER_LAYER.items():
        samples[name] = [
            derive({**c[state]["layers"], "store_mb": c["store_mb"]})
            for c in traced
        ]
    for cycle in traced:
        cold, warm = cycle["cold"]["layers"], cycle["warm"]["layers"]
        record = (_ratio(cold, "record_s", "wall_s")
                  + _ratio(cold, "draw_s", "wall_s"))
        bench.notes.append(
            f"draw+record self {record:.0%} "
            f"of traced cold; pricing (summed over processes) "
            f"{_ratio(warm, 'price_s', 'wall_s'):.0%} of traced warm"
        )
    bench.notes.append(
        "span trees: " + ("; ".join(f"INVALID {layer}: {problem}"
                                    for layer, problem
                                    in sorted(bench.invalid.items()))
                          or "every span inside its parent, self times "
                             "sum to each sweep's separately timed wall")
    )
    samples["import.s"] = bench.imports
    samples["host.calib_s"] = bench.calibs
    samples["trace.overhead_frac"] = [
        sum(t[s]["wall"] for s in ("cold", "warm"))
        / sum(p[s]["wall"] for s in ("cold", "warm")) - 1
        for p, t in zip(plain, traced)
    ]
    return ({name: _median(values) for name, values in samples.items()},
            {name: len(values) for name, values in samples.items()})


def units() -> dict[str, str]:
    out = dict(END_TO_END)
    out.update({name: unit for name, (unit, _s, _d) in PER_LAYER.items()})
    out.update({"import.s": "s", "host.calib_s": "s",
                "trace.overhead_frac": "fraction"})
    return out


def report(bench: Bench, metrics: dict, counts: dict) -> None:
    """The human-readable table that precedes the JSON line."""
    unit_of = units()
    print(f"workload {bench.workload.name}, simulation seed {bench.seed}, "
          f"{bench.attempted} tasks checked, {bench.failed} failed")
    for failure in bench.failures:
        print(f"  FAILED: {failure}")
    for name, value in metrics.items():
        layer = name.split(".")[0]
        if layer in ("decode", "encode"):
            layer = "store"
        note = ""
        if layer in bench.missing:
            note = "  (layer missing)"
        elif layer in bench.invalid or "sweep" in bench.invalid:
            note = "  (span tree invalid)"
        print(f"  {name:<26} {value:>16.6g} {unit_of[name]:<12} "
              f"n={counts[name]}{note}")
    for note in bench.notes:
        print(f"  {note}")
    if bench.paper_mae is not None:
        print(f"  {'paper_mae_pct':<26} {bench.paper_mae:>16.6g} "
              f"{'%':<12} (simulated; SNC cells of Figures 5-10)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "repro" / "eval" / "api.py").is_file():
        print("perfbench: run from the root of a checkout that holds "
              "src/repro", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, bool(args.trace))
    try:
        (bench.work / "tmp").mkdir(parents=True)
        # Compile the sources once, untimed, so no timed process pays it.
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                        str(HERE)], env=bench.env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        metrics, counts = run(bench, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    report(bench, metrics, counts)
    unit_of = units()
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
