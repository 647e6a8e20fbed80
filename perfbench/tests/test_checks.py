"""The benchmark's own arithmetic: output checks, seeds, MAE, batching."""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from run import Failure, check, end_to_end
from sweep import snapshot, timed_batch
from workloads import EXPECTED_SEEDS, WORKLOADS, paper_mae_pct, sim_seed

HERE = Path(__file__).resolve().parent.parent
GOLDEN = HERE.parent / "tests" / "golden"


def _expected(workload: str, seed: int) -> dict:
    path = HERE / "expected" / workload / f"seed-{seed}.json"
    return json.loads(path.read_text())


def _series(label, paper, measured):
    return SimpleNamespace(label=label, paper=paper, measured=measured)


def test_mae_counts_only_held_out_snc_cells():
    figures = [
        # Figure 3 and XOM series are calibrated: never counted.
        SimpleNamespace(figure_id="figure3", unit="slowdown [%]", series=[
            _series("XOM", {"a": 10.0}, {"a": 99.0})]),
        SimpleNamespace(figure_id="figure5", unit="slowdown [%]", series=[
            _series("XOM", {"a": 10.0}, {"a": 99.0}),
            _series("SNC-LRU", {"a": 1.0, "b": 2.0}, {"a": 2.0, "b": 5.0}),
        ]),
        # Figure 8 is normalized time, not percent.
        SimpleNamespace(figure_id="figure8", unit="normalized execution "
                        "time", series=[
                            _series("SNC", {"a": 1.0}, {"a": 9.0})]),
        SimpleNamespace(figure_id="figure9", unit="% of traffic", series=[
            _series("traffic", {"a": 0.5}, {"a": 0.0})]),
    ]
    assert paper_mae_pct(figures) == pytest.approx((1.0 + 3.0 + 0.5) / 3)
    assert paper_mae_pct(figures[:1]) is None


def test_checker_accepts_expected_and_rejects_a_perturbed_digest():
    expected = _expected("switch-wide", 1)
    tables = {name: f"table {name}\n" for name in expected["tables"]}
    expected = {
        "tasks": expected["tasks"],
        "tables": {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in tables.items()},
    }
    out = {"digests": dict(expected["tasks"]), "tables": tables}
    check(expected, "cold", out)

    task = sorted(out["digests"])[0]
    out["digests"][task] = "0" * 64
    with pytest.raises(Failure, match="tasks differ"):
        check(expected, "cold", out)

    out["digests"] = dict(expected["tasks"])
    name = sorted(tables)[0]
    out["tables"] = {**tables, name: tables[name] + " "}
    with pytest.raises(Failure, match=f"tables differ from expected: "
                                      f"{name}"):
        check(expected, "warm", out)


def test_seed_one_figures_equal_the_golden_masters():
    """Seed 1 is the seed ``tests/golden`` pins, byte for byte."""
    assert sim_seed(1) == 1
    tables = _expected("figures", 1)["tables"]
    goldens = sorted(GOLDEN.glob("figure*.txt"))
    assert len(goldens) == 7
    for golden in goldens:
        digest = hashlib.sha256(golden.read_bytes()).hexdigest()
        assert tables[golden.stem] == digest, golden.name


def test_every_seed_maps_onto_an_expected_output():
    for seed in (-3, 0, 1, 2, EXPECTED_SEEDS, EXPECTED_SEEDS + 1, 10**9):
        mapped = sim_seed(seed)
        assert 1 <= mapped <= EXPECTED_SEEDS
        for workload in WORKLOADS:
            assert (HERE / "expected" / workload
                    / f"seed-{mapped}.json").is_file()
    assert sim_seed(EXPECTED_SEEDS + 1) == 1


def test_hit_batch_runs_until_long_enough_and_divides_by_its_sweeps():
    now = [0.0]
    calls = []

    def sweep():
        calls.append(now[0])
        now[0] += 0.003
        return len(calls)

    wall, count, last = timed_batch(sweep, 0.5, clock=lambda: now[0])
    assert wall >= 0.5
    assert count == len(calls) == last == 167
    # hit_s is the median over every batch of every cycle.
    cycles = [{"cold": {"wall": 6.0, "rss_mb": 80.0},
               "warm": {"wall": 5.0, "rss_mb": 90.0},
               "hit": {"hit_samples": [wall / count, 0.009, 0.001],
                       "rss_mb": 30.0}},
              {"cold": {"wall": 8.0, "rss_mb": 80.0},
               "warm": {"wall": 7.0, "rss_mb": 95.0},
               "hit": {"hit_samples": [0.004, 0.002], "rss_mb": 30.0}}]
    bench = SimpleNamespace(setups=[0.2, 0.3, 0.4])
    metrics, counts = end_to_end(bench, cycles)
    assert metrics["hit_s"] == pytest.approx(0.003)
    assert metrics["cold_s"] == 7.0
    assert metrics["setup_s"] == 0.3
    assert metrics["peak_rss_mb"] == 92.5
    assert counts == {"setup_s": 3, "cold_s": 2, "warm_s": 2, "hit_s": 5,
                      "peak_rss_mb": 2}


def test_snapshot_sees_a_rewritten_result(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "a.json").write_text("{}")
    before = snapshot(cache, tmp_path / "absent")
    assert snapshot(cache) == before
    # A recomputed result is written to a scratch file and renamed in.
    (cache / "a.tmp").write_text("{}")
    (cache / "a.tmp").replace(cache / "a.json")
    assert snapshot(cache) != before
