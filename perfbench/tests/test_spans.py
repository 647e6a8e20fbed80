"""Span arithmetic and the wrappers' tolerance of a moved target."""

import time
from types import SimpleNamespace

import pytest

import spans


def _busy(seconds: float) -> None:
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass


def test_self_times_sum_to_the_root_duration():
    recorder = spans.Recorder()
    with recorder.span("sweep") as root:
        _busy(0.002)
        with recorder.span("scheduler"):
            _busy(0.002)
            with recorder.span("record"):
                _busy(0.002)
            with recorder.span("price"):
                _busy(0.003)
        with recorder.span("render"):
            _busy(0.001)
    own = spans.self_times(recorder.spans)
    tree = spans.descendants(spans.children_of(recorder.spans), root)
    assert len(tree) == 5
    assert sum(own[span["id"]] for span in tree) == pytest.approx(
        root["dur"], abs=1e-9)
    by_name = {span["name"]: span for span in recorder.spans}
    scheduler = by_name["scheduler"]
    assert own[scheduler["id"]] == pytest.approx(
        scheduler["dur"] - by_name["record"]["dur"]
        - by_name["price"]["dur"], abs=1e-9)
    assert own[scheduler["id"]] >= 0.002


def test_drawn_time_is_a_child_of_the_record_pass():
    recorder = spans.Recorder()

    def stream(count):
        for _ in range(count):
            _busy(0.001)
            yield ([0] * 4096, [0] * 4096)

    draw = spans._wrap_draw(recorder, stream)
    with recorder.span("sweep") as root:
        with recorder.span("record", refs=3 * 4096, events=10):
            for _block in draw(3):
                _busy(0.001)
    layers = spans.summarise(recorder, [root], [])
    assert layers["draw_refs"] == 3 * 4096
    assert 0.003 <= layers["draw_s"] < layers["wall_s"]
    assert layers["record_s"] == pytest.approx(
        layers["wall_s"] - layers["draw_s"], abs=1e-3)
    assert spans.validate(recorder, [root], root["dur"]) == []


def test_validate_compares_with_the_separately_timed_wall():
    recorder = spans.Recorder()
    started = time.monotonic()
    with recorder.span("sweep") as root:
        with recorder.span("record"):
            _busy(0.002)
    wall = time.monotonic() - started
    assert spans.validate(recorder, [root], wall) == []
    # Time the spans did not see, e.g. a stage run outside the tree.
    [(layer, problem)] = spans.validate(recorder, [root], wall + 0.05)
    assert layer == "sweep" and "self times sum to" in problem


def test_validate_rejects_a_mis_parented_draw_span():
    recorder = spans.Recorder()

    def stream(count):
        for _ in range(count):
            _busy(0.001)
            yield ([0] * 16, [0] * 16)

    draw = spans._wrap_draw(recorder, stream)
    with recorder.span("sweep") as root:
        blocks = draw(3)
        with recorder.span("record"):
            next(blocks)  # the draw span opens under the record pass
        for _block in blocks:  # ... but drawing goes on after it ends
            _busy(0.001)
    problems = spans.validate(recorder, [root], root["dur"])
    assert ("draw", "draw spans: outside their parent record") in problems


def test_validate_rejects_children_that_outlast_their_parent():
    recorder = spans.Recorder()
    with recorder.span("sweep") as root:
        with recorder.span("scheduler") as scheduler:
            with recorder.span("price") as price:
                _busy(0.001)
    price["dur"] = scheduler["dur"] * 2  # a double-counted span
    problems = spans.validate(recorder, [root], root["dur"])
    assert ("scheduler", "scheduler spans: children outlast them") \
        in problems


def test_worker_spans_count_inside_their_sweep_only():
    recorder = spans.Recorder()
    with recorder.span("sweep") as root:
        _busy(0.002)
    inside = {"name": "price", "t0": root["t0"], "dur": 0.5,
              "events": 100, "lanes": 4}
    outside = dict(inside, t0=root["t1"] + 1.0)
    layers = spans.summarise(recorder, [root], [inside, outside])
    assert layers["event_lanes"] == 400
    assert layers["shards"] == 1
    assert layers["busy_s"] == 0.5


def test_a_moved_target_is_reported_missing_not_raised():
    recorder = spans.Recorder()
    spans.install(recorder, api=SimpleNamespace(), sources=SimpleNamespace())
    assert set(recorder.missing) == set(spans.LAYERS)
    assert recorder.spans == []


def test_counts_that_no_longer_fit_mark_the_layer_missing():
    recorder = spans.Recorder()
    wrapped = spans._wrap_function(
        recorder, lambda x: x + 1, "price", "price",
        lambda a, k, r: {"events": a[1].event_count})
    assert wrapped(1) == 2
    assert recorder.missing == ["price"]
    assert [span["name"] for span in recorder.spans] == ["price"]
