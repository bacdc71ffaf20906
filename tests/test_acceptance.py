"""Acceptance gate: the full cross-checking suites at their contract sizes.

Each test runs one suite, prints a single CRITERION line, and fails with
the first offending check's detail if anything disagrees.  Three more
tests keep the package free of assert statements, which `python -O` strips,
of imports that no line of their module uses, and of definitions that no
line of the package reads and `__init__` does not export; three keep its
public names honest: `__all__` lists each name `__init__` imports, once,
each method the bench tracer times is defined on its class, and README's
library example runs and prints what its comments state.
"""

import ast
import contextlib
import importlib
import io
from pathlib import Path

import gpaths
from gpaths.verification import (
    check_ballot,
    check_bijections,
    check_identities,
    check_restricted_stats,
    check_stat_identities,
    check_stat_tables,
    check_weighted_counts,
)


def _report(number: int, results) -> None:
    failed = [r for r in results if not r.ok]
    print(f"CRITERION {number}: {'FAIL' if failed else 'PASS'}")
    assert not failed, "; ".join(r.line() for r in failed)


def test_criterion_1_golden_tables_by_every_route():
    _report(1, check_stat_tables(n_max=6))


def test_criterion_2_weighted_counts_by_every_route():
    _report(2, check_weighted_counts(n_max=10))


def test_criterion_3_bijections_certified_exhaustively():
    _report(3, check_bijections())


def test_criterion_4_polynomial_identities():
    _report(4, check_identities(n_max=8))


def test_criterion_5_statistic_identities():
    _report(5, check_stat_identities(n_max=6))


def test_criterion_6_restricted_statistics_two_routes():
    _report(6, check_restricted_stats(n_max=6))


def test_criterion_7_ballot_coefficient_resolution():
    _report(7, check_ballot(m_max=12, k_max=15))


def test_no_assert_statement_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(gpaths.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_import_in_the_package():
    """Every name a module imports is read somewhere in it, as a name or as
    the base of an attribute; __init__.py only re-exports, so it is skipped."""
    found = []
    for path in sorted(Path(gpaths.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert found == []


# the definitions no line of the package reads, each kept for a reader
# outside it
_READ_OUTSIDE_THE_PACKAGE = {
    # bench/tracer.py names it among the TruncatedSeries methods it times
    "series.py TruncatedSeries.xmul",
}


def test_no_unread_definition_in_the_package():
    """Every module-level function, class and assignment, and every method
    that is not a dunder, is read somewhere in the package (as a name or as
    an attribute) or exported by __init__, except exactly those listed above."""
    modules = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(Path(gpaths.__file__).parent.glob("*.py"))
    }
    read = set(gpaths.__all__)
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = []
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [
                    (f"{name} {t.id}", t.id)
                    for target in targets
                    for t in ast.walk(target)
                    if isinstance(t, ast.Name)
                ]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{name} {node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{name} {node.name}.{f.name}", f.name)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                ]
    unread = {
        where
        for where, ident in defined
        if not (ident.startswith("__") and ident.endswith("__")) and ident not in read
    }
    assert sorted(unread ^ _READ_OUTSIDE_THE_PACKAGE) == []


def test_each_method_the_bench_tracer_times_is_defined_on_its_class():
    """bench/tracer.py reads each method it times from its class's own
    __dict__, so a deleted or inherited one would crash every traced op."""
    path = Path(__file__).parent.parent / "bench" / "tracer.py"
    (methods,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["_METHODS"]
    ]
    missing = [
        f"{layer}.{cls_name}.{method}"
        for (layer, cls_name), names in methods.items()
        for method in names
        if method not in vars(getattr(importlib.import_module(f"gpaths.{layer}"), cls_name))
    ]
    assert missing == []


def test_all_lists_each_import_of_init_once_in_ascii_order():
    names = gpaths.__all__
    assert [n for n in names if not hasattr(gpaths, n)] == []
    assert names == sorted(set(names))
    tree = ast.parse(Path(gpaths.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(imported - set(names)) == []


def test_readme_library_example_prints_what_its_comments_state():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    lines = out.getvalue().splitlines()
    want = {
        0: "a^3 + 6*a^2*b + 7*a*b^2 + 2*b^3 + 3*a*c + 3*b*c",
        1: "22",
        3: "uHd",
        4: "5489",
    }
    assert len(lines) == 5
    for i, value in want.items():
        assert lines[i] == value
        assert f"# {value}" in code
