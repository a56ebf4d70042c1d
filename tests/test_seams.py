"""Which test file reaches which module's private names.

`test_M.py` owns module `M` of `ineq`, and `OWNS` names what a file owns besides.
A file reaches a module it does not own through public names only: `ineq.cli.main`,
`run_suite`, `evaluate_file`, `evaluate_instance`, `sample_admissible(..., index=i)`
or a public operation.  Then a change to a module's internals edits its own test
file and no other.  `EXCEPTIONS` lists what still reaches past that rule, each
with its reason.
"""

import ast
from pathlib import Path

import ineq

MODULES = {path.stem for path in Path(ineq.__file__).parent.glob("*.py")} - {"__init__"}

#: Modules a test file owns besides its namesake.
OWNS = {
    "test_groups.py": {"harness"},  # the grouped evaluation of integral rows, in `harness`
}

#: Private names a file reaches in a module it does not own: (file, "module._name") -> why.
EXCEPTIONS = {
    ("conftest.py", "runner._FORK_BREAK_EVEN"):
        "force_workers forks any run: the one place outside test_runner.py that sets it",
    ("conftest.py", "runner._PIECE_FLOOR"):
        "force_workers(n, floor=k) places an instance in the piece a child claims",
    ("conftest.py", "harness._SPECS"):
        "sampled_row reads the row a sampler drew, for every file that needs it typed",
    ("test_cli.py", "harness._SPECS"):
        "a NaN gap or a raise no sampled instance gives, to hold verify's refusal to eval's",
    ("test_cli.py", "harness._rng_for"):
        "a draw would be the only sign that verify sampled before refusing a dimension",
    ("test_cli.py", "integral._DOMAIN_CACHE"):
        "perfbench's cold_start must empty every cache, and no cache is public",
    ("test_cli.py", "integral._DEFAULT_DOMAIN_KEY"):
        "perfbench's cold_start must empty every cache, and no cache is public",
    ("test_cli.py", "space._BASIS_CACHE"):
        "perfbench's cold_start must empty every cache, and no cache is public",
    ("test_cli.py", "sampling._KEY_CACHE"):
        "perfbench's cold_start must empty every cache, and no cache is public",
    ("test_cli.py", "sampling._GENERATOR_CACHE"):
        "perfbench's cold_start must empty every cache, and no cache is public",
    ("test_counts.py", "harness._SPECS"):
        "pins the calls of the typed row each sampler draws, which no public name returns",
    ("test_counts.py", "harness._row_result"):
        "counts a sampled row's report apart from its draw, on run_suite's own path",
    ("test_counts.py", "harness._decode"):
        "counts decodes: a verify row must make none",
    ("test_counts.py", "documents._dec_domain"):
        "counts domain decodes: a verify run must make none",
    ("test_groups.py", "integral._horner"):
        "counts Horner passes: one per function per chunk of a group",
    ("test_groups.py", "integral._poly_values"):
        "the one-row discretization a group is held to, bit for bit",
    ("test_harness.py", "integral._DOMAIN_CACHE"):
        "an eval run's domains are bounded in the cache, which no public name shows",
    ("test_harness.py", "integral._DOMAIN_CACHE_NODES"):
        "an eval run's domains are bounded in the cache, which no public name shows",
    ("test_sampling.py", "harness._rng_for"):
        "the draw-source contract: a sampler's source is handed to it where harness draws",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_references(source: str) -> list:
    """(module, name, line) of each private name of an `ineq` module that `source`
    reaches: `from ineq.M import _x`, `M._x` (or `ineq.M._x`) on an imported module,
    and `monkeypatch.setattr(M, "_x", ...)`."""
    tree = ast.parse(source)
    bound = {}  # local name -> ineq module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ineq":
            bound.update((a.asname or a.name, a.name) for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.Import):
            bound.update(
                (a.asname, a.name[len("ineq."):])
                for a in node.names if a.asname and a.name.startswith("ineq.")
            )

    def module_of(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ineq":
            return node.attr if node.attr in MODULES else None
        return None

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ineq."):
            module = node.module[len("ineq."):]
            found += [(module, a.name, node.lineno) for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr) and module_of(node.value):
            found.append((module_of(node.value), node.attr, node.lineno))
        elif (
            isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setattr"
            and len(node.args) >= 2 and module_of(node.args[0])
            and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)
            and _private(node.args[1].value)
        ):
            found.append((module_of(node.args[0]), node.args[1].value, node.lineno))
    return found


def cross_references(tests: Path) -> list:
    """(file, "module._name", line) of each private reference to a module its file does
    not own, over the test files in `tests`."""
    cross = []
    for path in sorted(tests.glob("*.py")):
        owned = {path.stem.removeprefix("test_")} | OWNS.get(path.name, set())
        for module, name, line in private_references(path.read_text(encoding="utf-8")):
            if module not in owned:
                cross.append((path.name, f"{module}.{name}", line))
    return cross


def test_the_rule_finds_each_form_of_private_reference():
    source = (
        "import ineq\n"
        "import ineq.space as sp\n"
        "from ineq import runner, tally as t\n"
        "from ineq.harness import _SPECS, THEOREM_IDS\n"
        "runner._pieces(1, 2, 3)\n"
        "t._Tally\n"
        "sp.__name__\n"
        "ineq.documents._dec_real\n"
        "def test(monkeypatch):\n"
        "    monkeypatch.setattr(sp, '_vdot', None)\n"
        "    monkeypatch.setattr(runner, 'public', None)\n"
    )
    assert sorted(private_references(source)) == [
        ("documents", "_dec_real", 8),
        ("harness", "_SPECS", 4),
        ("runner", "_pieces", 5),
        ("space", "_vdot", 10),
        ("tally", "_Tally", 6),
    ]


def test_private_names_are_reached_only_from_their_own_test_file():
    cross = cross_references(Path(__file__).parent)
    unexplained = [f"{file}:{line}: {name}" for file, name, line in cross
                   if (file, name) not in EXCEPTIONS]
    assert unexplained == []
    # and no exception outlives the reference it explains
    assert set(EXCEPTIONS) == {(file, name) for file, name, _ in cross}
