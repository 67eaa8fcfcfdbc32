"""Verdict merging, the shared exhaustive-or-sampled tuple sweep, the one
work budget every bounded checker sweeps under, and the indexable Box every
bounded carrier is built as."""

import itertools
import random

import pytest

from kitealg.indexsys import IndexSystem
from kitealg.kite import (LOWER, KiteAlgebra, check_kite_rdp, check_pea_axioms, quadruple_box,
                          sum_classes)
from kitealg.pogroup import IntegerGroup
from kitealg.poloop import GammaInterval, PoLoop, block_subgroup, embed_kite
from kitealg.subdirect import subdirect_embedding_check
from kitealg.verdict import BATCH_WORDS, INCONCLUSIVE, Box, Verdict, choices, merge, sweep

from conftest import EX_8_4, set_budget, system

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
    def test_exhaustive_at_the_cap(self, monkeypatch):
        set_budget(monkeypatch, 27, 5)
        space = [1, 2, 3]
        exhaustive, tuples = sweep(space, 3, random.Random(0))
        assert exhaustive
        assert list(tuples) == list(itertools.product(space, repeat=3))

    def test_sampled_above_the_cap(self, monkeypatch):
        set_budget(monkeypatch, 999, 50)
        space = list(range(10))
        exhaustive, tuples = sweep(space, 3, random.Random(4))
        legacy = random.Random(4)
        expected = [tuple(legacy.choice(space) for _ in range(3)) for _ in range(50)]
        assert not exhaustive
        assert list(tuples) == expected

    def test_stream_continues_after_the_draws(self, monkeypatch):
        # a checker that draws again afterwards sees the legacy stream
        set_budget(monkeypatch, 0, 7)
        space = list(range(10))
        rng, legacy = random.Random(9), random.Random(9)
        list(sweep(space, 2, rng)[1])
        for _ in range(14):
            legacy.choice(space)
        assert rng.random() == legacy.random()

    def test_zero_draws_yield_nothing(self, monkeypatch):
        set_budget(monkeypatch, 0, 0)
        exhaustive, tuples = sweep(list(range(10)), 2, random.Random(0))
        assert not exhaustive and list(tuples) == []


class TestChoices:
    # batched picks rest on CPython's rng.choice: one 32-bit word per try,
    # its top n.bit_length() bits, rejected at n or above; spaces of 2**32
    # or more fall back to rng.choice
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 32, 120, 512, 1000, 2 ** 16 + 3, 2 ** 31 - 1,
                                   2 ** 31, 2 ** 31 + 5, 2 ** 32 - 1, 2 ** 32, 2 ** 40])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_picks_and_state_match_rng_choice(self, n, seed):
        space = range(n)
        for count in (0, 1, 37, BATCH_WORDS + 5):
            rng, legacy = random.Random(seed), random.Random(seed)
            assert list(choices(rng, space, count)) == [legacy.choice(space) for _ in range(count)]
            assert rng.getstate() == legacy.getstate()

    def test_empty_space_raises_as_rng_choice(self):
        with pytest.raises(IndexError):
            next(choices(random.Random(0), [], 1))


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
    def test_choice_and_sweep_match_the_list(self, make_box, monkeypatch):
        box = make_box()
        items = list(box)
        rng, legacy = random.Random(5), random.Random(5)
        assert [rng.choice(box) for _ in range(20)] == [legacy.choice(items) for _ in range(20)]
        for cap in (0, len(box) ** 2):
            set_budget(monkeypatch, cap, 30)
            got = sweep(box, 2, rng)
            want = sweep(items, 2, legacy)
            assert got[0] == want[0] and list(got[1]) == list(want[1])

    def test_blocks_concatenate_in_product_order(self):
        box = Box([(tuple, "ab", 2), (str, [], 3), ("".join, "xyz", 1)])
        assert list(box) == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), "x", "y", "z"]
        assert len(box) == 7 and box[4] == "x"


class TestOneBudget:
    """Each budgeted checker sweeps all of its tuples when there are exactly
    CAP of them and DRAWS drawn ones at CAP + 1; `checked` follows from
    closed forms in both regimes."""

    DRAWS = 7
    REGIMES = pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "over-cap"])

    def swept(self, monkeypatch, population, over):
        """The tuples a sweep of population evaluates with CAP = population - over."""
        set_budget(monkeypatch, population - over, self.DRAWS)
        return self.DRAWS if over else population

    def lower_sample(self):
        # Lower + Lower is always defined, so every swept pair of (iii) counts
        A = KiteAlgebra(IntegerGroup(), EX82)
        return A, [x for x in A.enumerate_box(1) if x.tag == LOWER]

    @REGIMES
    def test_axiom_pairs(self, monkeypatch, over):
        A, sample = self.lower_sample()
        n = len(sample)
        pairs = self.swept(monkeypatch, n ** 2, over)
        v = check_pea_axioms(A, sample)
        # (ii) n + 1 per element, (iv) one each, then the pairs and the drawn triples
        assert v.ok and v.checked == n * (n + 1) + n + pairs + self.DRAWS
        assert v.detail == f"{self.DRAWS} sampled triples"

    @REGIMES
    def test_axiom_triples(self, monkeypatch, over):
        A, sample = self.lower_sample()
        n = len(sample)
        triples = self.swept(monkeypatch, n ** 3, over)
        v = check_pea_axioms(A, sample)
        assert v.ok and v.checked == n * (n + 1) + n + n ** 2 + triples
        assert v.detail == ("exhaustive triples" if not over else f"{self.DRAWS} sampled triples")

    @REGIMES
    def test_rdp_quadruples(self, monkeypatch, over):
        A = KiteAlgebra(IntegerGroup(), EX82)
        sample = list(A.enumerate_box(1))
        quadruples = sum(len(pairs) ** 2 for pairs in sum_classes(A, sample))
        checked = self.swept(monkeypatch, quadruples, over)
        v = check_kite_rdp(A, sample)
        assert v.ok and v.checked == checked and v.detail == f"all {checked} quadruples refined"

    @REGIMES
    def test_embed_pairs(self, monkeypatch, over):
        A = KiteAlgebra(IntegerGroup(), EX82)
        box = len(A.enumerate_box(1))
        pairs = self.swept(monkeypatch, box ** 2, over)
        v = embed_kite(A, 1)
        assert v.ok and v.checked == box + pairs
        assert v.detail == ("" if not over else f"{self.DRAWS} sampled pairs")

    @REGIMES
    def test_subdirect_pair_stream(self, monkeypatch, over):
        # three components; each box element's complements and each pair
        # count once per component
        A = KiteAlgebra(IntegerGroup(), EX82)
        box = len(A.enumerate_box(1))
        pairs = self.swept(monkeypatch, box ** 2, over)
        report = subdirect_embedding_check(A, 1)
        assert len(report.kernels) == 3
        assert report.verdict.ok and report.hom_preservation.checked == 3 * (box + pairs)

    @REGIMES
    def test_block_subgroup_pairs(self, monkeypatch, over):
        W = PoLoop(IntegerGroup(), system(*EX_8_4))
        H, _ = block_subgroup(W, [{0, 3}, {1, 2}], bound=1)
        hbox = list(H.enumerate_box(1))
        interval = sum(map(GammaInterval(W).contains, hbox))
        pairs = self.swept(monkeypatch, len(hbox) ** 2, over)
        _, v = block_subgroup(W, [{0, 3}, {1, 2}], bound=1)
        # the product pairs, one inverse check per element, the 27 generic
        # level triples, and every pair of the interval part
        assert v.ok and v.checked == pairs + len(hbox) + 27 + interval ** 2
