"""Property-based fuzzing of the command-line entry point (Hypothesis; MacIver
et al., JOSS 2019): any structured spec text, with junk mixed in, ends with
an exit code in 0-3 and never an exception.

The spec texts are mostly well formed, so that the examples reach the group
parser and the suites, and every part can be replaced by junk.  Only the
index-system suites run, and n stays small: large n and huge boxes need the
bounded-work estimate that the program does not have yet.
"""

import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from kitealg.cli import main

JUNK = st.text(alphabet="abcxyz019 -=,()[]{}#^\t", max_size=12)
SPOILERS = st.sampled_from(["x", ",", " 1.5", " -1", " 9"])

# group descriptors from the grammar Z | Z^k | lex(d,d) | prod(d,d), with
# broken leaves and nesting well past the interpreter's recursion limit
groups = st.one_of(
    st.recursive(
        st.sampled_from(["Z", "Z", "Z^1", "Z^2", "Z^", "Z^x", "Q", ""]),
        lambda inner: st.builds("{}({},{})".format,
                                st.sampled_from(["lex", "prod"]), inner, inner),
        max_leaves=6),
    st.builds(lambda op, depth, closed: op * depth + "Z" + ",Z)" * depth * closed,
              st.sampled_from(["lex(", "prod(", "lex( "]),
              st.sampled_from([10, 900, 1_200, 5_000]), st.booleans()),
)


def chunks(draw, items):
    """items cut into consecutive runs at drawn points."""
    cuts = sorted(draw(st.sets(st.integers(1, max(len(items) - 1, 1)), max_size=3)))
    bounds = [0, *(c for c in cuts if c < len(items)), len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def permutation(draw, n):
    """A permutation of 1..n as an image list or as disjoint cycles, with a
    spoiler appended, or junk."""
    images = [str(i) for i in draw(st.permutations(range(1, max(n, 0) + 1)))]
    spoiler = rarely(draw, SPOILERS, "")
    if draw(st.booleans()):
        text = "[" + ",".join(images) + spoiler + "]"
    else:
        text = "".join("(" + " ".join(c) + ")" for c in chunks(draw, images)) + spoiler
    return rarely(draw, JUNK, text)


def partition(draw, n):
    order = [str(i) for i in draw(st.permutations(range(1, max(n, 0) + 1)))]
    text = ",".join("{" + ",".join(b) + "}" for b in chunks(draw, order))
    return text + rarely(draw, SPOILERS, "")


def rarely(draw, strategy, value):
    """A draw from strategy one time in twelve, else value (the simplest
    example keeps the value)."""
    return draw(strategy) if draw(st.integers(0, 11)) == 11 else value


@st.composite
def spec_texts(draw):
    n = rarely(draw, st.integers(-2, 0), draw(st.integers(1, 8)))
    fields = {
        "group": draw(groups),
        "n": rarely(draw, JUNK, str(n)),
        "lambda": permutation(draw, n),
        "rho": permutation(draw, n),
        "blocks": rarely(draw, JUNK, partition(draw, n)),
        "bound": rarely(draw, JUNK, str(draw(st.integers(-1, 1)))),
        "samples": rarely(draw, JUNK, str(draw(st.integers(-1, 20)))),
        "seed": rarely(draw, JUNK, str(draw(st.integers(-5, 5)))),
    }
    required = ("n", "lambda", "rho")
    keep = [k for k in fields if draw(st.integers(0, 15)) < (15 if k in required else 8)]
    lines = [f"{key} = {fields[key]}" for key in keep]
    for _ in range(draw(st.integers(0, 2))):
        junk = draw(st.sampled_from(["# ", "", "foo = "])) + draw(JUNK)
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(draw(st.permutations(lines)))


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=spec_texts(),
       suite=st.sampled_from(["components", "dual-components", "decomposition"]))
def test_any_spec_ends_with_an_exit_code(text, suite):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.kite")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main([suite, "--spec", path]) in (0, 1, 2, 3)
