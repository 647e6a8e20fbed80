"""Event-major batch replay: many timing sims, one pass over the trace.

:meth:`~repro.timing.model.SNCTimingSim.replay_events` walks a recorded
stream once per configuration — the per-event reference path.  A sweep
prices the *same* stream through many configurations, so the decode work
(column iteration, kind dispatch) repeats per configuration for no
reason.  :func:`replay_events_batch` inverts the loops: one pass over
the shared columns applies each event to every live sim (and every
integrity model), so the per-event decode is paid once for the whole
batch.

Inner-loop Python frames are what actually dominate the reference
path — the Algorithm 1 miss arm alone crosses five of them (hook →
table fetch → install → insert → spill) — so inverting the loops only
wins if the per-lane work sheds those frames instead of adding handler
calls of its own.  This module therefore *generates* the batch loop:
:func:`_compile` renders one specialized function per batch shape (the
``namedtuple``/``dataclasses`` technique), with every lane's event arms
unrolled inline, counters in flat locals and geometry constants
(``ways``, set count, XOM id) baked in as literals.  Each lane gets the
cheapest tier its configuration and the stream allow, chosen from what
the pass observes — the stream's event kinds and writeback owners, each
sim's core, callbacks and SNC — never from a knob:

* **counts-only** — base :class:`~repro.secure.snc_policy.SNCPolicyCore`
  hooks over an LRU SNC (with the sim's own fetch/spill callbacks) or a
  no-replacement SNC, starting empty, on a stream with no context switch
  whose every writeback belongs to the lane's XOM id.  There no count
  depends on a sequence-number *value* — hit or miss, set fullness and
  the event kind fix them all — so the lane keeps only residency keyed
  by the ``line`` int (an ``OrderedDict`` of ``None`` per LRU set, a
  ``set`` per no-replacement set plus a local direct-line set) and
  tallies misses per kind, evictions, direct reads and rejects, with a
  snapshot at the warmup reset.  :func:`_flush_counts` derives every
  ``SNCEventCounts`` and ``snc.stats`` field from those tallies plus
  the per-kind event totals before and after the last reset.
* **deep** — base-hook LRU lanes where values are observable (switch
  streams, whose FLUSH ``drop_task`` and ``_write_detached`` read the
  real SNC and table, or foreign-owner writebacks): Algorithm 1's hit
  and miss arms (table fetch, insert, LRU eviction, victim spill) run
  as inline ``OrderedDict`` / ``dict`` calls on the real state.
* **fast** — base ``read``/``write`` but a variant hook, nonstandard
  callbacks, or a no-replacement lane outside the counts-only rule: the
  hit paths inline, the ``_read_query_miss`` / ``_write_update_hit`` /
  ``_write_update_miss`` hooks dispatch virtually, like the reference.
* **generic** — a core overriding ``read``/``write`` themselves falls
  back to the fully generic calls.

Count-identical to running :meth:`replay_events` per sim by
construction: sims never interact, each sees the identical event
sequence in order, and every arm mirrors the reference loop's — the
same descheduled-owner writeback routing, the same warmup-boundary
reset (classification and traffic counters zeroed, SNC lifetime stats
and warm state kept).  A counts-only lane's ``sim.counts`` and
``snc.stats`` are exact, but its SNC contents, spill table and fallback
state are *not* maintained after the pass (the SNC stays as it started,
empty).  No caller reads them: a replay builds fresh sims and
:meth:`~repro.eval.record.Recording.replay_batch` assembles results
from ``sim.counts`` alone.  ``tests/eval/test_replay_differential.py``
and ``tests/timing/test_batch_counts.py`` pin the equality;
``benchmarks/bench_trace_throughput.py`` tracks the speedup.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from itertools import compress
from typing import NamedTuple

from repro.secure.snc import SNCPolicy
from repro.secure.snc_policy import ReadClass, SNCPolicyCore, WriteClass
from repro.timing.model import (
    EVENT_ALLOC,
    EVENT_READ,
    EVENT_RESET,
    EVENT_SWITCH,
    EVENT_WRITEBACK,
    SNCTimingSim,
)

#: Per-lane counter locals of the deep/fast/generic arms, in flush
#: order (see :func:`_flush`).  The first block mirrors the reference
#: loop's locals and the traffic counts its callbacks bump; the second
#: is the SNC stat increments the inlined paths bypass.
_COUNTERS = ("o", "sm", "dr", "al", "uh", "um", "rj", "tf", "tp",
             "qh", "qm", "sh", "su", "ins", "ev")
#: The subset zeroed at the warmup boundary (the counts-backed ones;
#: SNC stats are lifetime values the reference never resets).
_RESET_COUNTERS = ("o", "sm", "dr", "al", "uh", "um", "rj", "tf", "tp")
#: The tallies a counts-only lane keeps, per tier: misses per event
#: kind (read, allocate, writeback), then evictions (LRU) or direct
#: reads and rejects (no-replacement).  :func:`_flush_counts` derives
#: everything else.
_LEAN_COUNTERS = {
    "lru": ("mr", "ma", "mw", "ev"),
    "norepl": ("mr", "ma", "mw", "dr", "rj"),
}

#: ``bytes.translate`` table turning the kinds column into a writeback
#: selector (1 where the event is a writeback, else 0).
_WRITEBACK_MASK = bytes(kind == EVENT_WRITEBACK for kind in range(256))

#: Compiled batch functions keyed by ``(lane shapes, n_models,
#: has_switch)``.  The key depends only on lane *shapes*, so every
#: shard of a lane-sharded pass whose lanes share a composition reuses
#: one compile — pricing a lane subset never recompiles per shard.
#: Sharding does multiply the distinct shapes a long-lived warm worker
#: sees (one per shard size, not one per sweep), so the cache is
#: LRU-bounded instead of growing without limit.
_COMPILED: OrderedDict[tuple, object] = OrderedDict()
_COMPILED_CAPACITY = 128
_compiled_hits = 0
_compiled_misses = 0


def compiled_batch_info() -> tuple[int, int, int]:
    """``(cached functions, cache hits, compiles)`` for this process —
    observability for the sharding tests and benchmarks (a sharded
    sweep should show shard passes hitting this cache, not compiling
    per shard)."""
    return len(_COMPILED), _compiled_hits, _compiled_misses


class _Shape(NamedTuple):
    """The source-shaping parameters of one lane's generated arms."""

    tier: str  # "lru" / "norepl" (counts-only), "deep" or "hooks"
    fast_read: bool
    fast_write: bool
    base_write_hit: bool
    n_sets: int
    ways: int
    xom: int


def _lane_shape(sim: SNCTimingSim, has_switch: bool,
                owners: set[int]) -> _Shape:
    """Pick one sim's tier; ``owners`` holds the stream's writeback
    owners."""
    core = sim.core
    core_cls = type(core)
    snc = sim.snc
    policy = snc.config.policy
    fast_read = core_cls.read is SNCPolicyCore.read
    fast_write = core_cls.write is SNCPolicyCore.write
    base_write_hit = (core_cls._write_update_hit
                      is SNCPolicyCore._write_update_hit)
    base_hooks = (
        fast_read and fast_write and base_write_hit
        and core_cls._read_query_miss is SNCPolicyCore._read_query_miss
        and core_cls._write_update_miss is SNCPolicyCore._write_update_miss
    )
    # LRU lanes additionally require the timing sim's own fetch/spill
    # callbacks — anything else keeps virtual dispatch.
    # ``_spill_entry`` is passed to cores unwrapped (one shared cycle-
    # free closure), so callback identity proves this core's installs
    # really land in ``sim._table`` with ``sim.counts`` doing the
    # counting.
    own_callbacks = (
        sim.tasks._fetch_entry == getattr(sim, "_fetch_entry", None)
        and core._spill_entry == getattr(sim, "_spill_entry", None)
    )
    lru = policy is SNCPolicy.LRU
    if (base_hooks and (own_callbacks or not lru) and not has_switch
            and owners <= {core.xom_id} and not len(snc)):
        tier = "lru" if lru else "norepl"
    elif base_hooks and own_callbacks and lru:
        tier = "deep"
    else:
        tier = "hooks"
    return _Shape(tier, fast_read, fast_write, base_write_hit,
                  snc._n_sets, snc._ways, core.xom_id)


def _lane_binds(sim: SNCTimingSim, shape: _Shape) -> tuple:
    """The runtime objects the generated preamble unpacks for one lane
    (see :func:`_unpack`)."""
    if shape.tier == "lru":
        sets = [OrderedDict() for _ in range(shape.n_sets)]
        entries = sets[0]
        return entries, entries.move_to_end, entries.popitem, sets
    if shape.tier == "norepl":
        sets = [set() for _ in range(shape.n_sets)]
        return sets[0], sets, set(sim.core.direct_lines)
    snc = sim.snc
    entries = snc._sets[0]
    core = sim.core
    deep = shape.tier == "deep"
    return (
        entries.get, entries.move_to_end, entries.__setitem__,
        entries.popitem, entries, snc._sets,
        sim._table.get if deep else None,
        sim._table.__setitem__ if deep else None,
        core.read, core.write, core._read_query_miss,
        core._write_update_hit, core._write_update_miss,
        sim.tasks, sim.counts,
    )


def _unpack(i: int, shape: _Shape) -> str:
    """The preamble line unpacking lane ``i``'s binds."""
    if shape.tier == "lru":
        names = ("e", "m", "p", "st")
    elif shape.tier == "norepl":
        names = ("e", "st", "dl")
    else:
        names = ("g", "m", "s", "p", "e", "st", "tg", "ts", "cr", "cw",
                 "rq", "wh", "wm", "tk", "cn")
    return ", ".join(f"{name}{i}" for name in names) + f" = lanes[{i}]"


def _counters(shape: _Shape) -> tuple[str, ...]:
    return _LEAN_COUNTERS.get(shape.tier, _COUNTERS)


# ------------------------------------------------------- counts-only arms


def _lean_arm(i: int, shape: _Shape, kind: int) -> list[str]:
    """One event kind's arm for a counts-only lane: residency by line,
    misses tallied per kind."""
    n_sets, ways = shape.n_sets, shape.ways
    miss = {EVENT_READ: "mr", EVENT_ALLOC: "ma", EVENT_WRITEBACK: "mw"}
    tally = f"{miss[kind]}{i} += 1"
    if n_sets == 1:
        pick, entries = [], f"e{i}"
    else:
        pick, entries = [f"E = st{i}[line % {n_sets}]"], "E"
    if shape.tier == "lru":
        mte = f"m{i}" if n_sets == 1 else "E.move_to_end"
        pop = f"p{i}" if n_sets == 1 else "E.popitem"
        # Hit: refresh recency.  Miss: Algorithm 1's fetch-and-install,
        # evicting the LRU line when the set is full.
        return pick + [
            f"if line in {entries}: {mte}(line)",
            "else:",
            f"    {tally}",
            f"    if len({entries}) >= {ways}:",
            f"        {pop}(False)",
            f"        ev{i} += 1",
            f"    {entries}[line] = None",
        ]
    if kind == EVENT_READ:
        # A query miss is a direct read for a line that fell back to
        # direct encryption, an overlapped version-0 read otherwise.
        return pick + [
            f"if line not in {entries}:",
            f"    {tally}",
            f"    if line in dl{i}: dr{i} += 1",
        ]
    if kind == EVENT_ALLOC:
        return pick + [f"if line not in {entries}: {tally}"]
    # Update miss: a full set rejects the line to direct encryption,
    # otherwise the line is admitted.
    return pick + [
        f"if line not in {entries}:",
        f"    {tally}",
        f"    if len({entries}) >= {ways}:",
        f"        rj{i} += 1",
        f"        dl{i}.add(line)",
        "    else:",
        f"        {entries}.add(line)",
        f"        dl{i}.discard(line)",
    ]


# ---------------------------------------------- value-faithful arms


def _dict_ops(i: int, n_sets: int) -> tuple[list[str], str, str, str,
                                            str, str]:
    """The set-pick preamble and entry-dict operation expressions for
    one lane: fully associative lanes use the prebound single-set
    methods, set-associative lanes resolve the set per line."""
    if n_sets == 1:
        return ([], f"g{i}", f"m{i}", f"s{i}", f"p{i}", f"len(e{i})")
    pick = [f"E = st{i}[line % {n_sets}]"]
    return (pick, "E.get", "E.move_to_end", "E.__setitem__",
            "E.popitem", "len(E)")


def _install_lines(i: int, size: str, pop: str, seti: str, key: str,
                   ways: int) -> list[str]:
    """The inlined ``snc.insert`` + victim spill (Algorithm 1's install
    step): evict the LRU entry to the in-memory table when full, then
    install ``seq`` under ``key``."""
    return [
        f"if {size} >= {ways}:",
        f"    (ol, ox), osq = {pop}(False)",
        f"    ev{i} += 1",
        f"    tp{i} += 1",
        f"    ts{i}((ox, ol), osq)",
        f"{seti}({key}, seq)",
        f"ins{i} += 1",
    ]


def _read_arm(i: int, shape: _Shape) -> list[str]:
    key, xom = f"key{i}", f"x{i}"
    if not shape.fast_read:
        return [
            f"k = cr{i}(line)[0]",
            f"if k is OV: o{i} += 1",
            f"elif k is SQ: sm{i} += 1",
            f"else: dr{i} += 1",
        ]
    pick, get, mte, seti, pop, size = _dict_ops(i, shape.n_sets)
    hit = pick + [
        f"if {get}({key}) is not None:",
        f"    qh{i} += 1",
        f"    {mte}({key})",
        f"    o{i} += 1",
        "else:",
        f"    qm{i} += 1",
    ]
    if shape.tier != "deep":
        return hit + [
            f"    k = rq{i}(line)[0]",
            f"    if k is OV: o{i} += 1",
            f"    elif k is SQ: sm{i} += 1",
            f"    else: dr{i} += 1",
        ]
    # Algorithm 1, query-miss arm: fetch the spilled number, install it
    # (spilling the LRU victim), decrypt with it — a SEQNUM_MISS.
    return hit + [
        f"    tf{i} += 1",
        f"    seq = tg{i}(({xom}, line), 0)",
    ] + ["    " + ln
         for ln in _install_lines(i, size, pop, seti, key, shape.ways)] + [
        f"    sm{i} += 1",
    ]


def _alloc_arm(i: int, shape: _Shape) -> list[str]:
    key, xom = f"key{i}", f"x{i}"
    if not shape.fast_read:
        return [f"al{i} += 1", f"cr{i}(line)"]
    pick, get, mte, seti, pop, size = _dict_ops(i, shape.n_sets)
    hit = [f"al{i} += 1"] + pick + [
        f"if {get}({key}) is not None:",
        f"    qh{i} += 1",
        f"    {mte}({key})",
        "else:",
        f"    qm{i} += 1",
    ]
    if shape.tier != "deep":
        return hit + [f"    rq{i}(line)"]
    return hit + [
        f"    tf{i} += 1",
        f"    seq = tg{i}(({xom}, line), 0)",
    ] + ["    " + ln
         for ln in _install_lines(i, size, pop, seti, key, shape.ways)]


def _write_arm(i: int, shape: _Shape) -> list[str]:
    key, xom = f"key{i}", f"x{i}"
    classify = [
        f"if k is UH: uh{i} += 1",
        "else:",
        f"    um{i} += 1",
        f"    if k is RJ: rj{i} += 1",
    ]
    desched = [
        f"if owner != {xom}:",
        # A descheduled owner's dirty line routes through its own core,
        # exactly as the reference loop does.
        f"    k = tk{i}.core_for(owner).write_descheduled(line)[0]",
    ] + ["    " + ln for ln in classify]
    if not shape.fast_write:
        return desched + [
            "else:",
            f"    k = cw{i}(line)[0]",
        ] + ["    " + ln for ln in classify]
    pick, get, mte, seti, pop, size = _dict_ops(i, shape.n_sets)
    body = desched + ["else:"] + ["    " + ln for ln in pick] + [
        f"    seq = {get}({key})",
        "    if seq is not None:",
        f"        sh{i} += 1",
        "        seq += 1",
        f"        {seti}({key}, seq)",
        f"        {mte}({key})",
    ]
    if shape.base_write_hit:
        body += [f"        uh{i} += 1"]
    else:
        body += [
            f"        k = wh{i}(line, seq)[0]",
        ] + ["        " + ln for ln in classify]
    body += [
        "    else:",
        f"        su{i} += 1",
    ]
    if shape.tier != "deep":
        return body + [
            f"        k = wm{i}(line)[0]",
        ] + ["        " + ln for ln in classify]
    # Algorithm 1, update-miss arm: fetch, increment, install.
    return body + [
        f"        tf{i} += 1",
        f"        seq = tg{i}(({xom}, line), 0) + 1",
    ] + ["        " + ln
         for ln in _install_lines(i, size, pop, seti, key, shape.ways)] + [
        f"        um{i} += 1",
    ]


def _build_source(shapes: Sequence[_Shape], n_models: int,
                  has_switch: bool) -> str:
    """Render the specialized batch function for one batch shape."""
    lean = {i for i, shape in enumerate(shapes)
            if shape.tier in _LEAN_COUNTERS}
    keyed = [i for i in range(len(shapes)) if i not in lean]
    out = ["def _batch(kinds, lines, aux, lanes, models, OV, SQ, UH, RJ):"]

    def emit(depth, lns):
        out.extend("    " * depth + ln for ln in lns)

    for i, shape in enumerate(shapes):
        emit(1, [_unpack(i, shape),
                 " = ".join(f"{name}{i}" for name in _counters(shape))
                 + " = 0"])
        # A keyed lane holds its scheduled xom in a local (rebound at
        # each switch) and builds its own (line, xom) key per event.
        emit(1, [f"b{i} = None" if i in lean else f"x{i} = {shape.xom}"])
    for j in range(n_models):
        emit(1, [f"v{j} = models[{j}].verify",
                 f"w{j} = models[{j}].update"])

    def emit_arms(kind: int, arm, uses_key: str) -> None:
        """Every lane's arm for one event kind; ``uses_key`` names the
        shape flag that says a keyed lane's arm touches the entry
        dict."""
        emit(3, [f"key{i} = (line, x{i})" for i in keyed
                 if getattr(shapes[i], uses_key)])
        for i in range(len(shapes)):
            emit(3, _lean_arm(i, shapes[i], kind) if i in lean
                 else arm(i, shapes[i]))

    emit(1, ["for kind, line, owner in zip(kinds, lines, aux):"])
    emit(2, [f"if kind == {EVENT_READ}:"])
    emit_arms(EVENT_READ, _read_arm, "fast_read")
    for j in range(n_models):
        emit(3, [f"v{j}(line, critical=True)"])
    emit(2, [f"elif kind == {EVENT_WRITEBACK}:"])
    emit_arms(EVENT_WRITEBACK, _write_arm, "fast_write")
    for j in range(n_models):
        emit(3, [f"w{j}(line)"])
    emit(2, [f"elif kind == {EVENT_ALLOC}:"])
    emit_arms(EVENT_ALLOC, _alloc_arm, "fast_read")
    for j in range(n_models):
        emit(3, [f"v{j}(line, critical=False)"])
    emit(2, [f"elif kind == {EVENT_SWITCH}:"])
    if has_switch and keyed:
        for i in keyed:
            emit(3, [
                f"spilled = tk{i}.switch_to(owner)",
                f"cn{i}.switches += 1",
                f"cn{i}.switch_spills += spilled",
                f"C = tk{i}.current",
                f"x{i} = C.xom_id",
                f"cr{i} = C.read",
                f"cw{i} = C.write",
                f"rq{i} = C._read_query_miss",
                f"wh{i} = C._write_update_hit",
                f"wm{i} = C._write_update_miss",
            ])
    else:
        emit(3, ["pass"])
    emit(2, ["else:"])  # EVENT_RESET: the warmup boundary
    for i, shape in enumerate(shapes):
        if i in lean:
            # Counts-only lanes snapshot their tallies; the flush
            # resets the counts and derives the post-boundary values.
            emit(3, [f"b{i} = (" + ", ".join(
                f"{name}{i}" for name in _counters(shape)) + ",)"])
        else:
            emit(3, [f"cn{i}.reset()",
                     " = ".join(f"{name}{i}" for name in _RESET_COUNTERS)
                     + " = 0"])
    for j in range(n_models):
        emit(3, [f"models[{j}].reset_counts()"])
    if not shapes and not n_models:
        emit(3, ["pass"])

    def result(i: int) -> str:
        tallies = "(" + ", ".join(
            f"{name}{i}" for name in _counters(shapes[i])) + ",)"
        return f"({tallies}, b{i})" if i in lean else tallies

    emit(1, ["return (" + "".join(
        result(i) + ", " for i in range(len(shapes))) + ")"])
    return "\n".join(out) + "\n"


def _compile(shapes: tuple, n_models: int, has_switch: bool):
    global _compiled_hits, _compiled_misses
    key = (shapes, n_models, has_switch)
    fn = _COMPILED.get(key)
    if fn is None:
        _compiled_misses += 1
        namespace: dict = {}
        exec(_build_source(shapes, n_models, has_switch), namespace)
        fn = namespace["_batch"]
        _COMPILED[key] = fn
        while len(_COMPILED) > _COMPILED_CAPACITY:
            _COMPILED.popitem(last=False)
    else:
        _compiled_hits += 1
        _COMPILED.move_to_end(key)
    return fn


def _flush(sim: SNCTimingSim, c: tuple) -> None:
    """Fold one deep/fast/generic lane's accumulated counters back into
    its sim."""
    counts = sim.counts
    counts.overlapped_reads += c[0]
    counts.seqnum_miss_reads += c[1]
    counts.direct_reads += c[2]
    counts.allocate_queries += c[3]
    counts.update_hits += c[4]
    counts.update_misses += c[5]
    counts.rejected_updates += c[6]
    counts.table_fetches += c[7]
    counts.table_spills += c[8]
    stats = sim.snc.stats
    stats.query_hits += c[9]
    stats.query_misses += c[10]
    stats.update_hits += c[11]
    stats.update_misses += c[12]
    stats.insertions += c[13]
    stats.evictions += c[14]
    # The reference loop tracks the scheduled core in a local and
    # writes it back; ``tasks.current`` is that same core.
    sim.core = sim.tasks.current


def _kind_totals(kind_bytes: bytes) -> tuple[tuple[int, int, int],
                                             tuple[int, int, int]]:
    """``(read, allocate, writeback)`` event totals over the whole
    stream and after its last warmup reset (the same when there is
    none), counted by ``bytes.count`` over the u8 kinds column."""
    def totals(column):
        return (column.count(EVENT_READ), column.count(EVENT_ALLOC),
                column.count(EVENT_WRITEBACK))

    last_reset = kind_bytes.rfind(EVENT_RESET)
    return totals(kind_bytes), totals(kind_bytes[last_reset + 1:])


def _flush_counts(sim: SNCTimingSim, tier: str, tallies: tuple,
                  at_reset: tuple | None, kind_totals: tuple) -> None:
    """Derive every count of a counts-only lane from its tallies.

    With no context switch and no foreign owner, each event is a hit or
    a miss of its own kind and nothing else: a read hit is overlapped,
    an LRU miss fetches and installs (one insertion, one table fetch),
    a no-replacement read miss is direct exactly when the loop tallied
    it so, and a no-replacement update miss either is rejected or
    inserts.  ``at_reset`` is the tallies' snapshot at the last warmup
    reset (``None`` without one): counts cover the events after it,
    ``snc.stats`` the whole stream.
    """
    (reads, allocs, writes), (reads_after, allocs_after,
                              writes_after) = kind_totals
    counts = sim.counts
    if at_reset is None:
        at_reset = (0,) * len(tallies)
    else:
        counts.reset()
    after = [total - base for total, base in zip(tallies, at_reset)]
    read_misses, alloc_misses, write_misses = tallies[:3]
    counts.allocate_queries += allocs_after
    counts.update_hits += writes_after - after[2]
    counts.update_misses += after[2]
    stats = sim.snc.stats
    stats.query_hits += reads + allocs - read_misses - alloc_misses
    stats.query_misses += read_misses + alloc_misses
    stats.update_hits += writes - write_misses
    stats.update_misses += write_misses
    if tier == "lru":
        counts.overlapped_reads += reads_after - after[0]
        counts.seqnum_miss_reads += after[0]
        counts.table_fetches += after[0] + after[1] + after[2]
        counts.table_spills += after[3]
        stats.insertions += read_misses + alloc_misses + write_misses
        stats.evictions += tallies[3]
    else:
        counts.overlapped_reads += reads_after - after[3]
        counts.direct_reads += after[3]
        counts.rejected_updates += after[4]
        stats.insertions += write_misses - tallies[4]
        stats.rejected += tallies[4]


def replay_events_batch(sims: Sequence[SNCTimingSim],
                        integrity_models: Sequence,
                        kinds, lines, aux) -> None:
    """Apply one recorded column set to every sim and integrity model.

    ``kinds`` / ``lines`` / ``aux`` are the parallel typed columns of a
    :class:`~repro.eval.record.Recording`.  Scenario sims must have had
    :meth:`~repro.timing.model.SNCTimingSim.begin_task` called already
    (the caller owns flavor setup); this function only walks events.
    Every sim's ``counts`` and ``snc.stats`` come out exact; a sim
    priced counts-only (see the module docstring) keeps no SNC contents,
    spill table or fallback state after the pass.
    """
    if not sims and not integrity_models:
        return
    kind_bytes = bytes(kinds)
    if len(kind_bytes) != len(kinds):
        raise ValueError("kinds must be a one-byte-per-event column")
    has_switch = EVENT_SWITCH in kind_bytes
    owners = set(compress(aux, kind_bytes.translate(_WRITEBACK_MASK)))
    shapes = tuple(_lane_shape(sim, has_switch, owners) for sim in sims)
    fn = _compile(shapes, len(integrity_models), has_switch)
    results = fn(
        kinds, lines, aux,
        [_lane_binds(sim, shape) for sim, shape in zip(sims, shapes)],
        integrity_models,
        ReadClass.OVERLAPPED, ReadClass.SEQNUM_MISS,
        WriteClass.UPDATE_HIT, WriteClass.REJECTED,
    )
    kind_totals = None
    for sim, shape, lane in zip(sims, shapes, results):
        if shape.tier in _LEAN_COUNTERS:
            if kind_totals is None:
                kind_totals = _kind_totals(kind_bytes)
            _flush_counts(sim, shape.tier, *lane, kind_totals)
        else:
            _flush(sim, lane)
