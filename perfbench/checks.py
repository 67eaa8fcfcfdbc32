"""Check each job's JSON report against the reference computations in
`oracles` and against the paper's theorems."""

from __future__ import annotations

import oracles
from workloads import System

# Closed forms are compared only where the sweep is far below every
# exhaustive threshold of the program, so it cannot have been sampled.
EXHAUSTIVE_LIMIT = 100_000


def _one_based(partition):
    return [[i + 1 for i in block] for block in partition]


class Expected:
    """What every suite must report for one system."""

    def __init__(self, system: System):
        lam, rho = system.lam, system.rho
        self.system = system
        self.sigma = oracles.sigma(lam, rho)
        self.components = _one_based(oracles.orbits(self.sigma))
        self.dual_components = _one_based(oracles.orbits(oracles.tau(lam, rho)))
        self.associative = oracles.twists_commute(lam, rho)
        self.commutative = lam == rho
        self.counts = oracles.BoxCounts(system.group, system.n, system.bound)

    def problems(self, suite: str, entry: dict) -> list[str]:
        """Every way the entry of `suite` differs from what it must be."""
        s, c = self.system, self.counts
        out = []

        def want(label, got, expected):
            if got != expected:
                out.append(f"{s.name}/{suite}: {label} is {got!r}, expected {expected!r}")

        status = entry["status"]
        if suite == "rdp":
            # a bounded search may miss a refinement, and does so over
            # lex(Z,Z), which has no meet; on a lattice G the meet refines
            allowed = ("PASS", "INCONCLUSIVE") if s.group == "lex(Z,Z)" else ("PASS",)
            if status not in allowed:
                out.append(f"{s.name}/rdp: status {status}, expected one of {allowed}")
        else:
            want("status", status, "PASS")

        whole_box = c.box <= max(s.samples, 2)
        if suite == "components":
            want("components", entry["components"], self.components)
            want("sigma", entry["sigma"], [i + 1 for i in self.sigma])
        elif suite == "dual-components":
            want("dual components", entry["dual_components"], self.dual_components)
        elif suite == "axioms":
            if whole_box:
                want("sample size", entry["sample_size"], c.box)
                if c.box ** 3 <= EXHAUSTIVE_LIMIT:
                    want("checked", entry["checked"], c.axioms_checked())
        elif suite == "commutativity":
            want("commutative", entry["commutative"], self.commutative)
        elif suite == "rdp":
            if whole_box:
                want("sample size", entry["sample_size"], c.box)
                if c.quadruples <= EXHAUSTIVE_LIMIT:
                    want("checked", entry["checked"], c.quadruples)
        elif suite == "loop":
            want("associative", entry["associative"], self.associative)
        elif suite == "embed":
            want("checked", entry["embedding"]["checked"], c.embed_checked())
        elif suite == "subdirect":
            want("components", entry["report"]["components"], self.components)
            if c.box ** 2 <= EXHAUSTIVE_LIMIT:
                sizes = [len(b) for b in self.components]
                want("checked", entry["checked"], c.subdirect_checked(sizes))
        return out
