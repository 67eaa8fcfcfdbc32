"""Structured pass/fail results, the tuple sweep and the indexable box shared
by all checkers."""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a bounded check.

    FAIL always carries at least one witness.  INCONCLUSIVE means the bounded
    search was exhausted without settling the question; it is never a
    refutation.
    """

    status: str
    checked: int = 0
    witnesses: tuple = ()
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "checked": self.checked,
            "witnesses": [repr(w) for w in self.witnesses],
            "detail": self.detail,
        }

    @staticmethod
    def passed(checked: int = 0, detail: str = "") -> "Verdict":
        return Verdict(PASS, checked=checked, detail=detail)

    @staticmethod
    def failure(witness, checked: int = 0, detail: str = "") -> "Verdict":
        return Verdict(FAIL, checked=checked, witnesses=(witness,), detail=detail)


def merge(verdicts: list[Verdict], detail: str = "") -> Verdict:
    """Combine sub-verdicts: any FAIL wins, then any INCONCLUSIVE."""
    checked = sum(v.checked for v in verdicts)
    witnesses = tuple(w for v in verdicts for w in v.witnesses)
    if any(v.failed for v in verdicts):
        return Verdict(FAIL, checked=checked, witnesses=witnesses, detail=detail)
    if any(v.status == INCONCLUSIVE for v in verdicts):
        return Verdict(INCONCLUSIVE, checked=checked, witnesses=witnesses, detail=detail)
    return Verdict(PASS, checked=checked, detail=detail)


def sweep(space, arity, cap, draws, rng):
    """The tuples a bounded checker evaluates: (exhaustive, tuples).

    All len(space) ** arity tuples when there are at most cap of them;
    otherwise draws tuples of arity consecutive rng.choice(space) picks, the
    same stream as drawing each tuple with a generator expression.
    """
    if len(space) ** arity <= cap:
        return True, itertools.product(space, repeat=arity)
    picks = map(rng.choice, itertools.repeat(space, draws * arity))
    return False, zip(*[picks] * arity)


class Box(Sequence):
    """The concatenation, over the blocks (make, factors, n), of make(t) for
    t in itertools.product(factors, repeat=n): last coordinate fastest.

    box[i] decodes position i without building the box, so random.sample,
    rng.choice and sweep draw from a Box what they draw from list(box).
    Each factors is a sequence.
    """

    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.starts = list(itertools.accumulate(
            (len(factors) ** n for _, factors, n in self.blocks), initial=0))

    def __len__(self):
        return self.starts[-1]

    def __iter__(self):
        return itertools.chain.from_iterable(
            map(make, itertools.product(factors, repeat=n))
            for make, factors, n in self.blocks)

    def __getitem__(self, i):
        if not 0 <= i < len(self):
            raise IndexError("Box index out of range")
        b = bisect.bisect_right(self.starts, i) - 1
        make, factors, n = self.blocks[b]
        i -= self.starts[b]
        coords = [None] * n
        for k in reversed(range(n)):
            i, r = divmod(i, len(factors))
            coords[k] = factors[r]
        return make(tuple(coords))
