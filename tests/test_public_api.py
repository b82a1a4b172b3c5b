"""The package exports what the demos and the README quick start import, plus the error types."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import radkg
from radkg import errors

ROOT = Path(__file__).resolve().parents[1]


def radkg_imports(source: str) -> set[str]:
    """Names a script imports with ``from radkg import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "radkg" and node.level == 0
        for alias in node.names
    }


def quick_start() -> str:
    """The first python block after the README's quick start heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def used_names() -> set[str]:
    names = radkg_imports(quick_start())
    for demo in sorted((ROOT / "demos").glob("*.py")):
        names |= radkg_imports(demo.read_text(encoding="utf-8"))
    return names


ERROR_TYPES = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == errors.__name__
}


def test_every_export_is_used_by_a_demo_or_the_quick_start_or_is_an_error():
    unused = set(radkg.__all__) - used_names() - ERROR_TYPES
    assert not unused, sorted(unused)


def test_every_name_the_demos_and_quick_start_import_is_exported():
    missing = used_names() - set(radkg.__all__)
    assert not missing, sorted(missing)


def test_all_lists_each_name_once_and_every_error_type():
    assert len(radkg.__all__) == len(set(radkg.__all__))
    assert ERROR_TYPES == {"RadkgError", "ParseError", "CheckpointError", "TrainingDivergedError"}
    assert ERROR_TYPES <= set(radkg.__all__)
    for name in radkg.__all__:
        assert hasattr(radkg, name), name


def test_import_leaves_scipy_unloaded():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", "import sys, radkg; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def defined_names(path: Path) -> set[str]:
    """Top-level functions and classes of a module, and their non-dunder methods."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__") and item.name.endswith("__"))}
    return names


def test_every_name_defined_in_the_package_is_used_outside_tests():
    sources = "\n".join(path.read_text(encoding="utf-8")
                        for folder in ("src", "demos", "bench")
                        for path in sorted((ROOT / folder).rglob("*.py")))
    unused = []
    for module in sorted((ROOT / "src" / "radkg").glob("*.py")):
        for name in sorted(defined_names(module)):
            uses = re.sub(rf"\b(?:def|class)\s+{name}\b", "", sources)
            if not re.search(rf"\b{name}\b", uses):
                unused.append(f"{module.stem}.{name}")
    assert not unused, unused
