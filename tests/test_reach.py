"""Reach: every function src/kitealg defines is called by the suites, the
paper examples or the console entry point, on tiny specs over each kind of
built-in group.  The exceptions are listed in ALLOWED, each with its reason;
any other def that nothing reaches should be deleted, or moved beside the
test oracles in tests/conftest.py."""

import ast
import pathlib
import sys

import kitealg
from kitealg import cli

SRC = pathlib.Path(kitealg.__file__).resolve().parent

SPECS = [
    "group=Z n=3 lambda=(1 2 3) rho=[3,1,2] blocks={1,2,3} bound=1 samples=10",
    "group=Z^2 n=2 lambda=[2,1] rho=[1,2] blocks={1},{2} bound=1 samples=10",
    "group=lex(Z,Z) n=2 lambda=[1,2] rho=[2,1] bound=1 samples=10",
    "group=lex(Z^2,Z) n=1 lambda=[1] rho=[1] bound=1 samples=10",
    "group=prod(Z,Z) n=2 lambda=[1,2] rho=[2,1] blocks={1},{2} bound=0 samples=10",
]

# (module, qualified name) -> why no suite needs to call it
ALLOWED = {
    **{("pogroup", f"PoGroup.{m}"): "abstract stub; every built-in group overrides it"
       for m in ("op", "inv", "identity", "leq", "enumerate_box", "encode", "meet")},
    **{(mod, f"{cls}.__repr__"): "only printing calls it"
       for mod, cls in (("kite", "KiteAlgebra"), ("pogroup", "PoGroup"),
                        ("poloop", "LoopElement"), ("poloop", "PoLoop"))},
    ("kite", "KiteAlgebra.lower"): "the README's usage example and the planted faults build with it",
    ("kite", "KiteAlgebra.upper"): "the README's usage example and the planted faults build with it",
    ("kite", "named.name"): "runs only on a witness, and the suites pass here",
    **{(mod, f): "the block-subgroup check only the acceptance gate runs, until ROADMAP "
                 "item 12 wires it into the decomposition suite"
       for mod, f in (("indexsys", "block_system"), ("poloop", "_lift"),
                      ("poloop", "block_subgroup"), ("poloop", "check_whole_block_lex_agreement"),
                      ("poloop", "check_whole_block_lex_agreement.to_lex"))},
}


def defined():
    """(module, qualified name) -> first line of each def in src/kitealg,
    the decorator's line for a decorated def, as in co_firstlineno."""
    found = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(module, name)] = first
                walk(child, module, name + ".")
    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return found


def reached(tmp_path):
    """(module, first line) of every src function called during the run."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
    spec_file = tmp_path / "ok.kite"
    spec_file.write_text(SPECS[0] + "\n")
    bad_file = tmp_path / "bad.kite"
    bad_file.write_text("group=Z n=2 lambda=[1,1] rho=[1,2]\n")
    sys.setprofile(hook)
    try:
        for text in SPECS:
            cli.run_suite(cli.parse_spec(text), "all")
        cli.paper_examples()
        exits = [cli.main(["loop", "--spec", str(spec_file), "--json", str(tmp_path / "r.json")]),
                 cli.main(["all", "--spec", str(bad_file)])]
    finally:
        sys.setprofile(None)
    paths = {code: pathlib.Path(code.co_filename) for code in codes}
    return {(path.stem, code.co_firstlineno) for code, path in paths.items()
            if path.parent == SRC}, exits


def test_every_def_is_reached(tmp_path):
    # an allowed def that the run reaches leaves ALLOWED
    calls, exits = reached(tmp_path)
    assert exits == [cli.EXIT_PASS, cli.EXIT_USAGE]
    unreached = {key for key, line in defined().items() if (key[0], line) not in calls}
    assert sorted(unreached - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - unreached) == []
