"""The package's exported names, the README and the demos stay in step, and
each graph type is made in one place."""
import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import sdegraph
from sdegraph import Graph

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def quick_start() -> str:
    """The first ``python`` block under the README's Library quick start."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def imports_from(source: str, module: str) -> list[str]:
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names]


def test_every_exported_name_resolves():
    assert len(sdegraph.__all__) == len(set(sdegraph.__all__))
    for name in sdegraph.__all__:
        assert getattr(sdegraph, name) is not None, name


def test_readme_and_demos_import_only_exported_names():
    sources = {path.name: path.read_text() for path in DEMOS}
    sources["README quick start"] = quick_start()
    assert len(sources) == 5
    for label, source in sources.items():
        names = imports_from(source, "sdegraph")
        assert names, label
        assert set(names) <= set(sdegraph.__all__), (label, set(names) - set(sdegraph.__all__))
        # the command line is reached through `main` only
        assert set(imports_from(source, "sdegraph.cli")) <= {"main"}, label


def test_tests_import_only_main_from_the_cli():
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        assert set(imports_from(path.read_text(), "sdegraph.cli")) <= {"main"}, path.name


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start(), "README quick start", "exec"), {})
    assert capsys.readouterr().out


def test_readme_reprs():
    """The reprs the quick start shows, of a class and of an SdeResult."""
    source = quick_start()
    triangle = repr(sdegraph.classify(sdegraph.parse_graph6("Bw")))
    assert triangle == "Regular(degree=2.0)" and f"# the triangle: {triangle}" in source
    q, method = re.search(r"# SdeResult\(q=([\d.]+)\.\.\., method='(\w+)'\)", source).groups()
    shown = repr(sdegraph.sde(sdegraph.generate("fork:25")))
    assert re.fullmatch(rf"SdeResult\(q={q}\d*, method='{method}', iterations=\d+, "
                        r"residual=[\d.e+-]+, note=''\)", shown), shown


def instantiations() -> dict[str, set[str]]:
    """Where the package makes a ``Graph`` or a ``DegreeSequence``: the
    qualified names (module, class, function) of the functions that call
    the class, ``cls`` inside the class's own methods, or ``__new__`` on
    either."""
    made = {"Graph": set(), "DegreeSequence": set()}

    def visit(node, scope, owner):
        if isinstance(node, ast.ClassDef):
            scope, owner = scope + (node.name,), node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "__new__" and node.args:
                name = getattr(node.args[0], "id", None)
            name = owner if name == "cls" else name
            if name in made:
                made[name].add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, owner)

    for path in sorted((ROOT / "src" / "sdegraph").glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem,), None)
    return made


def test_each_graph_type_is_made_in_one_place():
    """Every constructor makes its Graph in ``Graph._built``, which checks
    what it stores, and every histogram comes from ``degree_sequence``."""
    assert instantiations() == {"Graph": {"graph.Graph._built"},
                                "DegreeSequence": {"graph.degree_sequence"}}


def test_graph_is_not_built_from_raw_arrays():
    csr = (2, np.array([0, 1, 2]), np.array([1, 0]), np.ones(2))
    for call in (lambda: Graph(), lambda: Graph(*csr),
                 lambda: Graph(**dict(zip(("n", "indptr", "indices", "data"), csr)))):
        with pytest.raises(TypeError, match="constructors"):
            call()


def shim_names() -> tuple[dict[str, tuple[str, ...]], tuple[str, ...]]:
    """``TRACED`` and ``COMMANDS`` of ``perfbench/shim.py``, read as literals
    (the shim is neither imported nor installed)."""
    tree = ast.parse((ROOT / "perfbench" / "shim.py").read_text())
    found = {target.id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) for target in node.targets
             if isinstance(target, ast.Name) and target.id in ("TRACED", "COMMANDS")}
    return found["TRACED"], found["COMMANDS"]


def test_every_traced_name_resolves():
    """The benchmark's tracer wraps these functions by name: deleting or
    renaming one breaks every traced benchmark run."""
    traced, commands = shim_names()
    assert traced and commands
    wanted = [(f"sdegraph.{layer}", name) for layer, names in traced.items() for name in names]
    wanted += [("sdegraph.cli", f"cmd_{command}") for command in commands]
    for module, name in wanted:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
