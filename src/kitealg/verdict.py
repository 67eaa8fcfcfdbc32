"""Structured pass/fail results, the tuple sweep and the indexable box shared
by all checkers."""

from __future__ import annotations

import bisect
import itertools
import struct
from collections.abc import Sequence
from dataclasses import dataclass

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

# the one work budget of every bounded sweep, read by `sweep` at each call
CAP = 600_000
DRAWS = 40_000

# the most 32-bit words `choices` draws at once, which bounds its buffers
BATCH_WORDS = 4096


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
    """Any FAIL wins, then any INCONCLUSIVE; detail defaults to the winners' details joined."""
    checked = sum(v.checked for v in verdicts)
    witnesses = tuple(w for v in verdicts for w in v.witnesses)
    for status in (FAIL, INCONCLUSIVE):
        details = [v.detail for v in verdicts if v.status == status]
        if details:
            return Verdict(status, checked, witnesses, detail or "; ".join(filter(None, details)))
    return Verdict(PASS, checked=checked, detail=detail)


def sweep(space, arity, rng):
    """The tuples a bounded checker evaluates: (exhaustive, tuples).

    All len(space) ** arity tuples when there are at most CAP of them;
    otherwise DRAWS tuples of arity consecutive rng.choice(space) picks, the
    same stream as drawing each tuple with a generator expression.
    """
    if len(space) ** arity <= CAP:
        # product copies space; 1-tuples walk it in place, so a Box stays unbuilt
        return True, zip(space) if arity == 1 else itertools.product(space, repeat=arity)
    picks = choices(rng, space, DRAWS * arity)
    return False, zip(*[picks] * arity)


def choices(rng, space, count):
    """count consecutive rng.choice(space) picks, drawn in batches.

    rng.choice(space) tries the top k = len(space).bit_length() bits of one
    32-bit Mersenne Twister word until they fall below len(space), and
    rng.getrandbits(32 * m) returns m such words, the first least
    significant.  A batch draws one word per pick still missing (at most
    BATCH_WORDS), so the picks and the final state of rng are rng.choice's.  Spaces of 2**32 or more
    elements (and empty ones) fall back to rng.choice.
    """
    n = len(space)
    if not 0 < n < 1 << 32:
        yield from map(rng.choice, itertools.repeat(space, count))
        return
    shift = 32 - n.bit_length()
    while count:
        m = min(count, BATCH_WORDS)
        words = struct.unpack(f"<{m}I", rng.getrandbits(32 * m).to_bytes(4 * m, "little"))
        batch = [space[r] for w in words if (r := w >> shift) < n]
        count -= len(batch)
        yield from batch


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
