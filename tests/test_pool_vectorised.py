"""The vectorised daily-batch generator against the scalar loop.

``_BatchGenerator.batch_for`` computes the :class:`Lcg` stream a block of
draws at a time with numpy.  The loop it replaced is kept here as the
oracle: draw labels one by one with ``LabelSpec.draw`` and skip
duplicates.  Both must return the same list for every family, family
seed and date, and on specs small enough that duplicates are common, so
the rejection path (a duplicate uses up its draws) runs.
"""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dga.families import FAMILY_BUILDERS
from repro.dga.pools import _BatchGenerator
from repro.dga.wordgen import BLOCK_DRAWS, LabelSpec, Lcg, LcgBlocks, date_seed

DATES = st.dates(dt.date(1990, 1, 1), dt.date(2040, 12, 31))
SEEDS = st.integers(0, 2**32 - 1)


def scalar_batch(seed: int, size: int, spec: LabelSpec, tld: str, day: dt.date) -> list[str]:
    """The original one-draw-at-a-time loop."""
    rng = Lcg(date_seed(day, seed))
    seen: set[str] = set()
    batch: list[str] = []
    while len(batch) < size:
        domain = f"{spec.draw(rng)}.{tld}"
        if domain not in seen:
            seen.add(domain)
            batch.append(domain)
    return batch


def generators(dga) -> list[_BatchGenerator]:
    pool = dga.pool_model
    if hasattr(pool, "_gen"):
        return [pool._gen]
    return [pool._useful, *pool._noise]


def assert_matches_scalar(gen: _BatchGenerator, day: dt.date) -> None:
    expected = scalar_batch(gen._seed, gen._batch_size, gen._label_spec, gen._tld, day)
    assert gen.batch_for(day) == expected


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(FAMILY_BUILDERS)), seed=SEEDS, day=DATES)
def test_every_family_matches_the_scalar_loop(family, seed, day):
    for gen in generators(FAMILY_BUILDERS[family](seed)):
        assert_matches_scalar(gen, day)


@settings(max_examples=40, deadline=None)
@given(
    spec_and_size=st.sampled_from(
        [
            (LabelSpec("alpha", 1, 1), 20),  # 26 labels: duplicates in every batch
            (LabelSpec("hex", length=1), 16),  # every one of the 16 labels
            (LabelSpec("hex", length=2), 200),
            (LabelSpec("cv", syllables=1), 80),  # 105 labels
            (LabelSpec("alpha", 1, 2), 300),
            (LabelSpec("alpha", 8, 25), 1500),  # labels straddle block edges
            (LabelSpec("hex", length=BLOCK_DRAWS + 5), 2),  # one label > one block
        ]
    ),
    seed=SEEDS,
    day=DATES,
    tld=st.sampled_from(["com", "net", "info"]),
)
def test_forced_duplicates_match_the_scalar_loop(spec_and_size, seed, day, tld):
    spec, size = spec_and_size
    assert_matches_scalar(_BatchGenerator(seed, size, spec, tld), day)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    blocks=st.lists(st.tuples(st.integers(1, 3 * BLOCK_DRAWS), st.floats(0, 1)), max_size=4),
)
def test_lcg_blocks_continue_the_scalar_stream(seed, blocks):
    rng = Lcg(seed)
    stream = LcgBlocks(seed)
    for n, used_frac in blocks:
        draws = stream.draws(n).tolist()
        used = int(used_frac * n)
        expected = [rng.next_u64() for _ in range(used)]
        assert draws[:used] == expected
        stream.consume(used)


@pytest.mark.parametrize(
    "spec",
    [
        LabelSpec("alpha", 5, 3),
        LabelSpec("alpha", 0, 3),
        LabelSpec("hex", length=0),
        LabelSpec("cv", syllables=0),
        LabelSpec("runes"),
    ],
)
def test_invalid_specs_raise_like_the_scalar_draw(spec):
    with pytest.raises(ValueError):
        spec.draw(Lcg(1))
    with pytest.raises(ValueError):
        _BatchGenerator(1, 4, spec, "com").batch_for(dt.date(2014, 5, 1))
