"""The package's exported names, the README and the demos stay in step."""
import ast
import importlib
import re
from pathlib import Path

import sdegraph

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
