"""One sweep process of the figure-sweep benchmark.

``run.py`` starts one of these per sweep, as a user starts
``python -m repro.eval``, and reads one JSON object from its last
stdout line::

    python3 perfbench/sweep.py '{"workload": "figures", "seed": 1,
        "state": "cold", "store": DIR, "cache": DIR}'

``state`` is ``cold`` (empty trace store and result cache), ``warm``
(the cold sweep's trace store, an empty result cache) or ``hit``
(every result cached: one checked sweep, then ``hit_batches`` batches
of back-to-back sweeps, each at least ``hit_batch_s`` long; the last
sweep is checked against the first, and the batches must leave the
result cache and trace store untouched).  With ``"trace": true`` the layer
wrappers of ``spans.py`` are installed and the span tree comes back
summarised per layer; pool workers find ``PERFBENCH_SPANS_DIR`` in
their environment and record their pricing spans there.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from pathlib import Path

SPANS_ENV = "PERFBENCH_SPANS_DIR"

#: Iterations of the host calibration loop (~0.05 s of pure Python).
CALIB_LOOPS = 400_000


def calibrate() -> float:
    """A fixed pure-Python loop, timed beside every sample so host
    drift shows; comparisons stay on raw times."""
    started = time.monotonic()
    total = 0
    for i in range(CALIB_LOOPS):
        total += i * i % 7
    return time.monotonic() - started


def peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of ``pid`` plus every live
    descendant, e.g. the pool's workers."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            parents[int(entry)] = int(fields[1])
    family, frontier = [pid], [pid]
    while frontier:
        parent = frontier.pop()
        kids = [child for child, ppid in parents.items() if ppid == parent]
        family.extend(kids)
        frontier.extend(kids)
    total_kb = 0
    for member in family:
        try:
            with open(f"/proc/{member}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def timed_batch(sweep, min_seconds: float, clock=time.monotonic):
    """Run ``sweep`` back to back until ``min_seconds`` have passed:
    the wall time of the whole batch, how many sweeps it held and what
    the last one returned."""
    started = clock()
    count = 0
    while True:
        out = sweep()
        count += 1
        wall = clock() - started
        if wall >= min_seconds:
            return wall, count, out


def snapshot(*roots: Path) -> dict[str, tuple[int, int, int]]:
    """Every file under ``roots`` with its inode, mtime and size: a
    sweep that writes a result or a recording changes it."""
    files = {}
    for root in roots:
        for path in root.rglob("*"):
            if path.is_file():
                stat = path.stat()
                files[str(path)] = (stat.st_ino, stat.st_mtime_ns,
                                    stat.st_size)
    return files


def outputs(api, results, tables) -> dict:
    """What a sweep is checked on: task event digests and tables."""
    from workloads import digest

    return {"digests": {result.task.describe(): digest(api, result.events)
                        for result in results},
            "tables": tables}


def sweep_once(api, workload, seed: int, store: Path, cache: Path, span):
    """One sweep as the CLI runs it: fresh store and cache handles,
    run every task, render every table."""
    tasks = workload.tasks(api, seed)
    results = workload.run(api, tasks, api.ResultCache(cache),
                           api.TraceStore(store))
    with span("render"):
        tables, figures = workload.render(api, results)
    return results, tables, figures


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    started = time.monotonic()
    import repro.eval.api as api
    import_s = time.monotonic() - started

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, paper_mae_pct

    recorder = None
    if spec.get("trace"):
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    workload = WORKLOADS[spec["workload"]]
    if workload.n_jobs > 1:
        api.get_worker_pool(workload.n_jobs).warm()
    ready = time.monotonic()
    calib_s = calibrate()

    seed, store, cache = spec["seed"], Path(spec["store"]), Path(spec["cache"])
    roots = []

    def timed_sweep():
        if recorder is None:
            return sweep_once(api, workload, seed, store, cache,
                              lambda _name: contextlib.nullcontext())
        with recorder.span("sweep") as root:
            out = sweep_once(api, workload, seed, store, cache,
                             recorder.span)
        roots.append(root)
        return out

    t0 = time.monotonic()
    results, tables, figures = timed_sweep()
    wall = time.monotonic() - t0
    sweeps = 1
    checked = outputs(api, results, tables)
    hit_samples = []
    if spec["state"] == "hit":
        # The first hit sweep is the checked one; the batches that
        # follow are timed whole, so no sample is milliseconds long.
        roots.clear()
        before = snapshot(store, cache)
        wall, sweeps = 0.0, 0
        for _ in range(spec["hit_batches"]):
            batch_wall, count, last = timed_batch(timed_sweep,
                                                  spec["hit_batch_s"])
            hit_samples.append(batch_wall / count)
            wall += batch_wall
            sweeps += count
        if outputs(api, last[0], last[1]) != checked:
            raise SystemExit("hit batch: the last sweep's digests or "
                             "tables differ from the first's")
        if snapshot(store, cache) != before:
            raise SystemExit("hit batch: wrote to the result cache or "
                             "trace store, so results were recomputed")

    out = {
        "ready": ready,
        "import_s": import_s,
        "calib_s": calib_s,
        "wall": wall,
        "sweeps": sweeps,
        "hit_samples": hit_samples,
        "rss_mb": peak_rss_mb(os.getpid()),
        **checked,
        "paper_mae_pct": paper_mae_pct(figures),
    }
    if workload.n_jobs > 1:
        api.shutdown_worker_pool()
    if recorder is not None:
        spans_dir = Path(os.environ[SPANS_ENV])
        worker_spans = spans.read_sink_dir(spans_dir, os.getpid())
        out["layers"] = spans.summarise(recorder, roots, worker_spans)
        out["missing"] = sorted(set(recorder.missing))
        # The independently timed wall, not the roots' own durations.
        out["span_errors"] = spans.validate(recorder, roots, wall)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

if __name__ == "__mp_main__" and os.environ.get(SPANS_ENV):
    # A pool worker of a traced sweep: the spawn start method re-imports
    # this file as ``__mp_main__``, which is the one hook into a worker
    # that leaves the program untouched.
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans as _spans

    _spans.install_worker(Path(os.environ[SPANS_ENV]))
