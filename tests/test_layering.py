"""Layering guards: a module of the package uses only the public names of
its sibling modules. Underscore names (the fading kernel's weights and
Poisson matrix, say) stay inside the module that defines them. Every
memoising cache has a fixed size, so memory stays bounded however long a
sweep runs."""

import ast
from pathlib import Path

import constelsim

PACKAGE = Path(constelsim.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(path: Path) -> list[str]:
    """``module.name`` of every underscore name that the module at ``path``
    imports from, or reads as an attribute of, another package module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # local name -> package module it is bound to
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("constelsim")):
            source = (node.module or "").removeprefix("constelsim").lstrip(".")
            for alias in node.names:
                if not source:  # ``from . import analytic``
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    uses.append(f"{source}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("constelsim.") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix("constelsim.")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            uses.append(f"{modules[node.value.id]}.{node.attr}")
    return uses


def test_no_module_reaches_into_another():
    found = {path.name: private_uses(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_guard_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import analytic\n"
        "from .channel import _series_weights, sr_sf\n"
        "import constelsim.geom as g\n"
        "analytic._hybrid(analytic.evaluate, g._helper, analytic.__name__)\n",
        encoding="utf-8",
    )
    assert sorted(private_uses(probe)) == ["analytic._hybrid", "channel._series_weights", "geom._helper"]


def unbounded_caches(path: Path) -> list[int]:
    """Lines of the ``functools`` caches in the module at ``path`` without an
    explicit integer ``maxsize``: a bare ``cache`` or ``lru_cache``, or an
    ``lru_cache(...)`` whose size is None, missing or not an integer literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {}  # local name -> functools name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update({alias.asname or alias.name: alias.name for alias in node.names})
        elif isinstance(node, ast.Import):
            names.update({alias.asname or alias.name: alias.name for alias in node.names if alias.name == "functools"})

    def functools_name(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.attr if names.get(node.value.id) == "functools" else None
        return None

    sized, lines = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and functools_name(node.func) == "lru_cache":
            sized.add(id(node.func))
            sizes = node.args[:1] + [keyword.value for keyword in node.keywords if keyword.arg == "maxsize"]
            if not any(isinstance(size, ast.Constant) and type(size.value) is int for size in sizes):
                lines.append(node.lineno)
    for node in ast.walk(tree):
        if functools_name(node) in ("cache", "lru_cache") and id(node) not in sized:
            lines.append(node.lineno)
    return sorted(lines)


def test_every_cache_is_bounded():
    found = {path.name: unbounded_caches(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_cache_guard_fires(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import functools\n"
        "from functools import cache, lru_cache as memo\n"
        "@memo(maxsize=32)\n"
        "def sized(): ...\n"
        "@memo\n"
        "def bare(): ...\n"
        "@cache\n"
        "def unbounded(): ...\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def none(): ...\n"
        "positional = functools.lru_cache(64)(len)\n"
        "typed_only = memo(typed=True)(len)\n"
        "named = memo(maxsize=SIZE)(len)\n",
        encoding="utf-8",
    )
    assert unbounded_caches(probe) == [5, 7, 9, 12, 13]


MAX_LINE = 120


def test_lines_fit_the_width():
    roots = [PACKAGE, Path(__file__).resolve().parent]
    long_lines = [f"{path.name}:{number}" for root in roots for path in sorted(root.glob("*.py"))
                  for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
                  if len(line) > MAX_LINE]
    assert long_lines == []
