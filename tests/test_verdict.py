"""Verdict merging and the shared exhaustive-or-sampled tuple sweep."""

import itertools
import random

from kitealg.verdict import INCONCLUSIVE, Verdict, merge, sweep


class TestMerge:
    def test_fail_wins_and_keeps_witnesses(self):
        v = merge([Verdict.failure("a", 2), Verdict("INCONCLUSIVE", 3, ("b",))])
        assert v.failed and v.checked == 5 and v.witnesses == ("a", "b")

    def test_inconclusive_keeps_witnesses(self):
        v = merge([Verdict.passed(4), Verdict(INCONCLUSIVE, 1, ("q1", "q2"))], "d")
        assert v.status == INCONCLUSIVE
        assert v.witnesses == ("q1", "q2") and v.checked == 5 and v.detail == "d"

    def test_all_pass(self):
        v = merge([Verdict.passed(1), Verdict.passed(2)])
        assert v.ok and v.checked == 3 and v.witnesses == ()


class TestSweep:
    def test_exhaustive_at_the_cap(self):
        space = [1, 2, 3]
        exhaustive, tuples = sweep(space, 3, 27, 5, random.Random(0))
        assert exhaustive
        assert list(tuples) == list(itertools.product(space, repeat=3))

    def test_sampled_above_the_cap(self):
        space = list(range(10))
        exhaustive, tuples = sweep(space, 3, 999, 50, random.Random(4))
        legacy = random.Random(4)
        expected = [tuple(legacy.choice(space) for _ in range(3)) for _ in range(50)]
        assert not exhaustive
        assert list(tuples) == expected

    def test_stream_continues_after_the_draws(self):
        # a checker that draws again afterwards sees the legacy stream
        space = list(range(10))
        rng, legacy = random.Random(9), random.Random(9)
        list(sweep(space, 2, 0, 7, rng)[1])
        for _ in range(14):
            legacy.choice(space)
        assert rng.random() == legacy.random()

    def test_zero_draws_yield_nothing(self):
        exhaustive, tuples = sweep(list(range(10)), 2, 0, 0, random.Random(0))
        assert not exhaustive and list(tuples) == []
