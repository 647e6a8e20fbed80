"""Property tests for the batch pricer's counts-only tier.

On a switch-free stream whose writebacks all belong to the lane's own
XOM id, base-hook LRU and no-replacement lanes keep only line residency
and miss tallies; every :class:`~repro.timing.model.SNCEventCounts`
field and every ``snc.stats`` field is *derived* at flush time.  These
tests fuzz that arithmetic against the per-event reference loop
(:meth:`~repro.timing.model.SNCTimingSim.replay_events`) over tiny
geometries, where capacity effects — evictions, rejections, direct
reads — happen within a few dozen events.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secure.schemes import get_scheme
from repro.secure.snc import SNCConfig, SNCPolicy
from repro.timing.batch import replay_events_batch
from repro.timing.model import EVENT_RESET, EVENT_WRITEBACK

_NR = SNCPolicy.NO_REPLACEMENT

#: One batch mixing every tier a switch-free stream can select: fully
#: and set-associative LRU and no-replacement (counts-only) and a
#: split-counter variant (virtual hook dispatch).  8 or 16 entries, so
#: a 24-line footprint overflows all of them.
LANES = (
    (SNCConfig(size_bytes=16), "otp"),
    (SNCConfig(size_bytes=32, assoc=4), "otp"),
    (SNCConfig(size_bytes=16, policy=_NR), "otp"),
    (SNCConfig(size_bytes=32, assoc=4, policy=_NR), "otp"),
    (SNCConfig(size_bytes=16), "otp_split"),
)


def _sims():
    return [get_scheme(scheme).build_timing_sim(config)
            for config, scheme in LANES]


@st.composite
def streams(draw):
    """A switch-free stream of reads, allocates and writebacks (owner
    0) with 0, 1 or 2 warmup resets at arbitrary positions."""
    events = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 23)),
        min_size=50, max_size=300,
    ))
    for position in draw(st.lists(st.integers(0, len(events)),
                                  max_size=2)):
        events.insert(position, (EVENT_RESET, 0))
    return events


def _columns(events, owner_of=lambda index: 0):
    kinds = array("B", (kind for kind, _line in events))
    lines = array("Q", (line for _kind, line in events))
    aux = array("Q", (owner_of(index) if kind == EVENT_WRITEBACK else 0
                      for index, (kind, _line) in enumerate(events)))
    return kinds, lines, aux


def _priced(kinds, lines, aux):
    """(reference sims, batch sims) after pricing the same columns."""
    reference = _sims()
    for sim in reference:
        sim.replay_events(zip(kinds, lines, aux))
    batched = _sims()
    replay_events_batch(batched, [], kinds, lines, aux)
    return reference, batched


def _assert_counts_match(reference, batched):
    for index, (ref, got) in enumerate(zip(reference, batched)):
        assert asdict(got.counts) == asdict(ref.counts), (index, "counts")
        assert asdict(got.snc.stats) == asdict(ref.snc.stats), (
            index, "snc.stats")


@settings(max_examples=150, deadline=None)
@given(streams())
def test_derived_counters_match_reference(events):
    """Every SNCEventCounts and snc.stats field of every lane equals
    the per-event reference's, resets and all."""
    _assert_counts_match(*_priced(*_columns(events)))


@settings(max_examples=60, deadline=None)
@given(streams(), st.integers(0, 400), st.integers(0, 23))
def test_foreign_owner_takes_value_faithful_arms(events, foreign_at,
                                                 foreign_line):
    """One writeback owned by another XOM id routes through that
    owner's core, so the lanes keep their value-faithful arms: counts,
    stats *and* SNC contents match the reference."""
    foreign = foreign_at % (len(events) + 1)
    events.insert(foreign, (EVENT_WRITEBACK, foreign_line))
    columns = _columns(events, lambda index: 1 if index == foreign else 0)
    reference, batched = _priced(*columns)
    _assert_counts_match(reference, batched)
    for ref, got in zip(reference, batched):
        assert ([list(entries.items()) for entries in got.snc._sets]
                == [list(entries.items()) for entries in ref.snc._sets])


def test_counts_only_lanes_leave_the_snc_as_it_started():
    """The counts-only contract: exact counts, no SNC contents kept."""
    events = [(0, line) for line in range(24)] + [(2, 3), (1, 30)]
    reference, batched = _priced(*_columns(events))
    _assert_counts_match(reference, batched)
    assert [len(sim.snc) for sim in batched[:4]] == [0, 0, 0, 0]
    assert len(batched[4].snc) == len(reference[4].snc) > 0
