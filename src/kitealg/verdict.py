"""Structured pass/fail results shared by all checkers."""

from __future__ import annotations

import itertools
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
