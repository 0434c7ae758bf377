"""Source rules: no line over 100 characters; one home each for the digit
check, the CLI's spelling of true and false, the reading of physical memory,
the census's MemoryError and its memory constants; one view of each census
table for the whole pass; only the standard library and the package itself
are imported."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

LIMIT = 100
SOURCE = Path(__file__).resolve().parent.parent / "src" / "zorbit"


def test_no_source_line_longer_than_limit():
    paths = sorted(SOURCE.rglob("*.py"))
    assert paths
    long_lines = [
        f"{path.relative_to(SOURCE)}:{number}: {len(line)} characters"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert not long_lines, "\n".join(long_lines)


def test_digit_domain_error_is_raised_only_by_the_digit_vector():
    def raises(tree: ast.AST) -> int:
        return sum(
            isinstance(node, ast.Raise) and "DigitDomainError(" in ast.unparse(node)
            for node in ast.walk(tree)
        )

    trees = {
        path.relative_to(SOURCE).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in SOURCE.rglob("*.py")
    }
    (vector,) = [
        node
        for node in trees["kadic.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "KAdicDigits"
    ]
    assert raises(vector) == sum(map(raises, trees.values())) == 1


def test_cli_spells_true_and_false_only_in_the_cell_rule():
    def spellings(tree: ast.AST) -> list[str]:
        return sorted(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in ("true", "false")
        )

    cli = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    (cell,) = [
        node for node in cli.body if isinstance(node, ast.FunctionDef) and node.name == "_cell"
    ]
    assert spellings(cell) == spellings(cli) == ["false", "true"]


def test_physical_memory_is_read_on_one_line():
    # the census's memory limit is one policy, so one line reads os.sysconf
    reads = [
        (path.relative_to(SOURCE).as_posix(), node.lineno)
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "sysconf")
        or (isinstance(node, ast.alias) and node.name == "sysconf")
    ]
    assert len(set(reads)) == 1 and reads[0][0] == "dynamics.py", reads


def test_memory_error_is_built_only_by_the_table_rule():
    # the census's memory policy is one rule, so one call builds MemoryError
    def builds(tree: ast.AST) -> int:
        return sum(
            isinstance(node, ast.Call) and ast.unparse(node.func) == "MemoryError"
            for node in ast.walk(tree)
        )

    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.rglob("*.py")]
    dynamics = ast.parse((SOURCE / "dynamics.py").read_text(encoding="utf-8"))
    (rule,) = [
        node
        for node in dynamics.body
        if isinstance(node, ast.FunctionDef) and node.name == "_tables"
    ]
    assert builds(rule) == sum(map(builds, trees)) == 1


def test_memory_constants_are_read_only_by_the_table_rule():
    # the bytes a digit and a distinct digit take are the memory rule's own:
    # defined once each in dynamics.py and read only inside _tables
    names = {"_ENTRY", "_VALUE"}

    def uses(tree: ast.AST) -> list[str]:
        # a name, an attribute, an import alias or a definition's name
        return sorted(
            value
            for node in ast.walk(tree)
            for value in map(vars(node).get, ("id", "attr", "name", "asname"))
            if value in names
        )

    dynamics = ast.parse((SOURCE / "dynamics.py").read_text(encoding="utf-8"))
    (rule,) = [
        node
        for node in dynamics.body
        if isinstance(node, ast.FunctionDef) and node.name == "_tables"
    ]
    definitions = [
        target.id
        for node in dynamics.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in names
    ]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.rglob("*.py")]
    assert sorted(definitions) == uses(rule) == sorted(names)
    assert sorted(name for tree in trees for name in uses(tree)) == sorted(definitions + uses(rule))


def test_census_opens_one_view_per_table_for_the_pass():
    # the id and depth tables are exported once, after their allocation, so a
    # stored block cannot grow them and no block builds a view of its own
    dynamics = ast.parse((SOURCE / "dynamics.py").read_text(encoding="utf-8"))
    (resolve,) = [
        node
        for node in dynamics.body
        if isinstance(node, ast.FunctionDef) and node.name == "_resolve"
    ]
    views = {
        id(node)
        for node in ast.walk(resolve)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "memoryview"
    }
    scoped = {
        id(node)
        for scope in ast.walk(resolve)
        if isinstance(scope, (ast.For, ast.While, ast.With))
        for node in ast.walk(scope)
    }
    assert len(views) == 2 and not views & scoped


def test_imports_are_relative_or_from_the_standard_library():
    foreign = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.relative_to(SOURCE)}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not foreign, "\n".join(foreign)
