"""Verdict merging, the shared exhaustive-or-sampled tuple sweep, and the
indexable Box every bounded carrier is built as."""

import itertools
import random

import pytest

from kitealg.indexsys import IndexSystem
from kitealg.kite import KiteAlgebra, quadruple_box, sum_classes
from kitealg.pogroup import IntegerGroup
from kitealg.poloop import PoLoop
from kitealg.verdict import INCONCLUSIVE, Box, Verdict, merge, sweep

EX82 = IndexSystem.from_one_based([1, 3, 2, 4], [2, 3, 1, 4])


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


def _kite_box():
    return KiteAlgebra(IntegerGroup(), EX82).enumerate_box(1)


def _loop_box():
    return PoLoop(IntegerGroup(), EX82).enumerate_box(1)


def _quadruple_box():
    A = KiteAlgebra(IntegerGroup(), EX82)
    return quadruple_box(sum_classes(A, list(A.enumerate_box(1))[::3]))


BOXES = pytest.mark.parametrize("make_box", [_kite_box, _loop_box, _quadruple_box],
                                ids=["kite", "loop", "rdp-sum-classes"])


class TestBox:
    @BOXES
    def test_positions_decode_the_walk(self, make_box):
        box = make_box()
        assert [box[i] for i in range(len(box))] == list(box)

    @BOXES
    def test_index_error_past_the_end(self, make_box):
        box = make_box()
        with pytest.raises(IndexError):
            box[len(box)]

    @BOXES
    @pytest.mark.parametrize("pool", [False, True], ids=["set-draws", "pool-copy"])
    def test_sample_matches_the_list(self, make_box, pool):
        # random.sample copies a population no larger than its set table (21
        # entries for k <= 5, over 3k beyond) into a list and draws from the
        # copy, and indexes a larger one directly
        box = make_box()
        assert len(box) > 21
        k = len(box) // 2 if pool else 3
        for seed in range(3):
            assert random.Random(seed).sample(box, k) == random.Random(seed).sample(list(box), k)

    @BOXES
    def test_choice_and_sweep_match_the_list(self, make_box):
        box = make_box()
        items = list(box)
        rng, legacy = random.Random(5), random.Random(5)
        assert [rng.choice(box) for _ in range(20)] == [legacy.choice(items) for _ in range(20)]
        for cap in (0, len(box) ** 2):
            got = sweep(box, 2, cap, 30, rng)
            want = sweep(items, 2, cap, 30, legacy)
            assert got[0] == want[0] and list(got[1]) == list(want[1])

    def test_blocks_concatenate_in_product_order(self):
        box = Box([(tuple, "ab", 2), (str, [], 3), ("".join, "xyz", 1)])
        assert list(box) == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), "x", "y", "z"]
        assert len(box) == 7 and box[4] == "x"
