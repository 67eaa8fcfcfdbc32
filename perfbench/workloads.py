"""The benchmark's workloads: which index systems, over which group, with
which bound and sample size, drawn from the run's seed.

Each workload yields spec texts in the format `kitealg --spec` reads; the
program sees nothing else.  One job is one suite on one system.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import oracles

SUITES = ("components", "dual-components", "decomposition", "axioms",
          "commutativity", "rdp", "loop", "embed", "subdirect")


@dataclass(frozen=True)
class System:
    name: str
    group: str
    lam: tuple[int, ...]  # 0-based images
    rho: tuple[int, ...]
    bound: int
    samples: int
    seed: int

    @property
    def n(self) -> int:
        return len(self.lam)

    def spec_text(self) -> str:
        one = lambda p: "[" + ",".join(str(i + 1) for i in p) + "]"
        return (f"# {self.name}\n"
                f"group = {self.group}\n"
                f"n = {self.n}\n"
                f"lambda = {one(self.lam)}\n"
                f"rho = {one(self.rho)}\n"
                f"bound = {self.bound}\n"
                f"samples = {self.samples}\n"
                f"seed = {self.seed}\n")


def _zero_based(images):
    return tuple(i - 1 for i in images)


# the paper's example with commuting twists, and the 3-cycle pair (1-based)
EX_3_8 = ([2, 1, 4, 3], [4, 3, 2, 1])
CYCLES_3 = ([2, 3, 1], [3, 1, 2])

# Census quotas per (cycle type of sigma, twists commute) stratum of S4 x S4.
# A fixed quota per stratum fixes the mix of job sizes, so the run's cost does
# not depend on the seed.  Job times form steps: each system brings four jobs
# of about a millisecond (components, dual-components, decomposition,
# commutativity), so the median job is every system's fifth fastest.  That is
# the loop job, a few ms, when the twists do not commute (it stops at its
# first witness), and a subdirect or embed job of 10 to 40 ms otherwise.  With
# three in four systems non-commuting, the median lies inside the loop step
# rather than on the edge between two steps, where it would jump.
CENSUS_QUOTA = {True: 1, False: 4}


def census_strata() -> dict:
    """Every non-empty (cycle type of sigma, twists commute) class of
    S4 x S4, with its pairs (lam, rho); sigma = id forces lam = rho."""
    strata: dict[tuple, list] = {}
    for lam in itertools.permutations(range(4)):
        for rho in itertools.permutations(range(4)):
            key = (oracles.cycle_type(oracles.sigma(lam, rho)),
                   oracles.twists_commute(lam, rho))
            strata.setdefault(key, []).append((lam, rho))
    return dict(sorted(strata.items()))


def census_z(seed: int) -> list[System]:
    """A seeded draw of 21 (lam, rho) from S4 x S4 over Z at bound 1, a fixed
    number from every stratum."""
    rng = random.Random(seed)
    out = []
    for (ctype, commute), pairs in census_strata().items():
        for lam, rho in rng.sample(pairs, CENSUS_QUOTA[commute]):
            name = f"c{''.join(map(str, ctype))}{'c' if commute else 'n'}-{len(out)}"
            out.append(System(name, "Z", lam, rho, bound=1, samples=500, seed=seed))
    return out


# The suites workloads keep the spec's sampling seed at 0: over these boxes
# the axiom and rdp samples are drawn from it, and their cost moves by up to
# 2x from one sampling seed to another, which would hide any change of code.
SUITES_SPEC_SEED = 0


def suites_z2(seed: int) -> list[System]:
    # samples bounds the rdp quadruple list and the axiom sample; embed,
    # loop and subdirect sweep the whole box whatever it is
    return [
        System("ex3.8", "Z^2", _zero_based(EX_3_8[0]), _zero_based(EX_3_8[1]),
               bound=1, samples=120, seed=SUITES_SPEC_SEED),
        System("cycles-3", "Z^2", _zero_based(CYCLES_3[0]), _zero_based(CYCLES_3[1]),
               bound=1, samples=60, seed=SUITES_SPEC_SEED),
    ]


def suites_lex(seed: int) -> list[System]:
    # n = 4 systems are left out: over lex(Z,Z) their box has 1,250 elements
    # and embed checks all 1,562,500 pairs with no cap.  rdp scans the sample
    # for each quadruple (lex has no meet), so samples keeps that job bounded:
    # at 60 a round takes a few seconds, and a run holds several rounds.
    return [
        System("cycles-3", "lex(Z,Z)", _zero_based(CYCLES_3[0]), _zero_based(CYCLES_3[1]),
               bound=1, samples=60, seed=SUITES_SPEC_SEED),
    ]


WORKLOADS = {
    "census-z": census_z,
    "suites-z2": suites_z2,
    "suites-lex": suites_lex,
}


def jobs(systems: list[System], seed: int) -> list[tuple[int, str]]:
    """(system index, suite) for every job of a round, in an order drawn
    from the seed."""
    out = [(k, suite) for k in range(len(systems)) for suite in SUITES]
    random.Random(seed).shuffle(out)
    return out


def repeat_share(systems: list[System], job_list) -> float:
    """Share of jobs whose (group, cycle type of sigma, suite) an earlier job
    of the round already had: the jobs a cache keyed on them could serve."""
    seen, repeats = set(), 0
    for k, suite in job_list:
        s = systems[k]
        key = (s.group, oracles.cycle_type(oracles.sigma(s.lam, s.rho)), suite)
        repeats += key in seen
        seen.add(key)
    return repeats / len(job_list)
