"""Layering guards: a module of the package uses only the public names of
its sibling modules. Underscore names (the fading kernel's weights and
Poisson matrix, say) stay inside the module that defines them. A module
imports only the package modules below it: the settings layer, ``config``,
needs neither the samplers nor the engine, and the closed forms need no
simulation code. Every
memoising cache has a fixed size, so memory stays bounded however long a
sweep runs. Every package name the benchmark scripts import exists, so a
deletion they still depend on fails here rather than in a benchmark run.
Every module-level name of the package is read somewhere in it, through
the binding that defines it, save its entry points, the few that only the
benchmark still holds and a utility that only the tests use. No two
functions of the package, the tests or the tools share a body: what two
would repeat is written once."""

import ast
import importlib
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import constelsim

PACKAGE = Path(constelsim.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]


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


# The package modules each package module may import, at module level or
# inside a function.
ALLOWED_IMPORTS = {
    "__init__": set(),
    "geom": set(),
    "record": set(),
    "channel": {"geom", "record"},
    "config": {"channel", "geom", "record"},
    "constellation": {"config", "geom"},
    "analytic": {"channel", "config", "geom"},
    "mc": {"analytic", "channel", "config", "constellation", "geom", "record"},
    "cli": {"analytic", "channel", "config", "constellation", "mc"},
}


def package_imports(path: Path) -> set[str]:
    """Package modules that the module at ``path`` imports anywhere in its
    source, function bodies included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "constelsim"):
            source = (node.module or "").removeprefix("constelsim").lstrip(".")
            if source:
                found.add(source.split(".")[0])
            else:  # ``from . import analytic`` or ``from constelsim import analytic``
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("constelsim."))
    return found


def test_modules_import_only_the_layers_below():
    paths = sorted(PACKAGE.glob("*.py"))
    assert sorted(path.stem for path in paths) == sorted(ALLOWED_IMPORTS)
    found = {path.stem: sorted(package_imports(path) - ALLOWED_IMPORTS[path.stem]) for path in paths}
    assert {name: extra for name, extra in found.items() if extra} == {}


def test_layer_guard_fires(tmp_path):
    probe = tmp_path / "config.py"
    probe.write_text(
        "from . import analytic\n"
        "from .channel import sr_sf\n"
        "import constelsim.geom as g\n"
        "from constelsim import mc\n"
        "import numpy.random\n"
        "def build():\n"
        "    from .constellation import derive_rng\n"
        "    import constelsim.cli\n"
        "    return derive_rng\n",
        encoding="utf-8",
    )
    assert package_imports(probe) == {"analytic", "channel", "cli", "constellation", "geom", "mc"}
    assert sorted(package_imports(probe) - ALLOWED_IMPORTS["config"]) == ["analytic", "cli", "constellation", "mc"]


def test_record_types_need_only_the_standard_library():
    # ``record`` sits below every layer: no package module, and not numpy.
    tree = ast.parse((PACKAGE / "record.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported and all(name in sys.stdlib_module_names for name in imported), imported


def test_settings_and_closed_forms_load_no_simulation_code():
    # A fresh interpreter, so nothing this test process has loaded counts.
    # The record types generate no code, so not even the CLI loads
    # ``dataclasses``.
    code = (
        "import sys\n"
        "import constelsim.config\n"
        "print(sorted(sys.modules.keys() & {'constelsim.analytic', 'constelsim.constellation', 'constelsim.mc'}))\n"
        "import constelsim.analytic\n"
        "print(sorted(sys.modules.keys() & {'numpy.random', 'constelsim.constellation', 'constelsim.mc'}))\n"
        "import constelsim.cli\n"
        "print(sorted(sys.modules.keys() & {'dataclasses'}))\n"
    )
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
                          timeout=120)
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]


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


def unresolved_imports(path: Path) -> list[str]:
    """Dotted names that the script at ``path`` imports from ``constelsim``,
    or reads as an attribute of a ``constelsim`` module it binds to a name,
    and that do not exist."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    wanted, modules = [], {}  # (module, name or None); local name -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "constelsim":
            wanted += [(node.module, alias.name) for alias in node.names]
            if node.module == "constelsim":  # ``from constelsim import cli``
                modules.update({alias.asname or alias.name: f"constelsim.{alias.name}" for alias in node.names})
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "constelsim":
                    wanted.append((alias.name, None))
                    if alias.asname:
                        modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            wanted.append((modules[node.value.id], node.attr))

    def exists(dotted: str) -> bool:
        module, _, name = dotted.rpartition(".")
        try:
            if not hasattr(importlib.import_module(module), name):
                importlib.import_module(dotted)  # a submodule not imported yet
        except ImportError:
            return False
        return True

    names = [module if name is None else f"{module}.{name}" for module, name in wanted]
    return sorted(name for name in set(names) if not exists(name))


def test_benchmark_imports_resolve():
    scripts = sorted((REPO / "perfbench").glob("*.py"))
    assert scripts
    found = {path.name: unresolved_imports(path) for path in scripts}
    assert {name: names for name, names in found.items() if names} == {}


def test_import_guard_fires(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from constelsim import analytic, no_module\n"
        "from constelsim.constellation import sample_bpp_cap, gone\n"
        "def f():\n"
        "    import constelsim.cli as cli\n"
        "    import constelsim.nothing\n"
        "    return cli.main, cli.dropped, analytic.missing\n",
        encoding="utf-8",
    )
    assert unresolved_imports(probe) == ["constelsim.analytic.missing", "constelsim.cli.dropped",
                                         "constelsim.constellation.gone", "constelsim.no_module", "constelsim.nothing"]


# Module-level names of the package that nothing in it reads, each with the
# benchmark line that still holds it; ROADMAP item 2 deletes them and
# empties this table. The entry points are read from outside the package.
UNREAD = {
    "channel.sr_cdf": "perfbench/tests/test_bench.py:155, through analytic's noqa import",
    "config.default_config": "perfbench/tests/test_bench.py:150",
    "constellation.central_angle_to_target": "perfbench/child.py:26",
    "constellation.sample_bpp": "perfbench/child.py:26",
}
# Names the package offers its tests as a utility and never reads itself.
TEST_UTILITIES = {
    "record.replace": "only the tests read it, to build changed copies of settings and rows",
}
ENTRY_POINTS = {"cli.main"}


def unread_names(paths) -> set[str]:
    """``module.name`` of each non-dunder name that a module among ``paths``
    defines at module level (by ``def``, ``class`` or assignment) and that
    none of them reads. A read counts only where it resolves to the binding
    that defines the name: the name loaded in its own module, a name bound
    by ``from .module import name`` (through any re-exports) loaded in the
    importing module, or ``alias.name`` with ``alias`` bound to the package
    module. An import is no read, nor is an attribute of any other object."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    # imported: (module, local name) -> (source module, name); aliases:
    # (module, local name) -> the package module it is bound to.
    defined, imported, aliases = set(), {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((module, name.id) for target in targets for name in ast.walk(target)
                               if isinstance(name, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "constelsim"):
                source = (node.module or "").removeprefix("constelsim").lstrip(".")
                for alias in node.names:
                    local = (module, alias.asname or alias.name)
                    if source:
                        imported[local] = (source, alias.name)
                    else:  # ``from . import analytic``
                        aliases[local] = alias.name
            elif isinstance(node, ast.Import):
                aliases.update({(module, alias.asname): alias.name.removeprefix("constelsim.") for alias in node.names
                                if alias.name.startswith("constelsim.") and alias.asname})

    def resolve(ref):
        seen = set()
        while ref in imported and ref not in seen:
            seen.add(ref)
            ref = imported[ref]
        return ref

    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(resolve((module, node.id)))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and (module, node.value.id) in aliases):
                read.add(resolve((aliases[module, node.value.id], node.attr)))
    return {f"{module}.{name}" for module, name in defined - read
            if not (name.startswith("__") and name.endswith("__"))}


def test_every_package_name_is_read():
    assert unread_names(sorted(PACKAGE.glob("*.py"))) - ENTRY_POINTS == set(UNREAD) | set(TEST_UTILITIES)


def test_unread_guard_fires(tmp_path):
    (tmp_path / "low.py").write_text(
        "__all__ = ['used']\n"
        "LIMIT, (_pair, spare) = 3, (1, 2)\n"
        "def used(): return LIMIT + _pair\n"
        "def imported_only(): ...\n"
        "def relayed(): ...\n"
        "def same_spelling(): ...\n"
        "class Unread: ...\n",
        encoding="utf-8",
    )
    (tmp_path / "mid.py").write_text("from .low import relayed\n", encoding="utf-8")
    (tmp_path / "high.py").write_text(
        "from . import low\n"
        "from .low import imported_only, used\n"
        "from .mid import relayed as passed_on\n"
        "table: dict = {}\n"
        "def main(obj): return low.used(), used, passed_on, obj.same_spelling\n",
        encoding="utf-8",
    )
    assert unread_names(sorted(tmp_path.glob("*.py"))) == {"high.main", "high.table", "low.Unread",
                                                           "low.imported_only", "low.same_spelling", "low.spare"}


# Bodies smaller than this many AST nodes (a one-line ``return self.x``,
# say) may repeat.
MIN_REPEATED_NODES = 10


def repeated_bodies(paths) -> list[list[str]]:
    """Groups of ``file:line name`` of the functions among the modules at
    ``paths`` whose bodies, less any docstring, are the same AST of at least
    ``MIN_REPEATED_NODES`` nodes."""
    groups = defaultdict(list)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
            if sum(1 for statement in body for _ in ast.walk(statement)) >= MIN_REPEATED_NODES:
                groups["\n".join(map(ast.dump, body))].append(f"{path.name}:{node.lineno} {node.name}")
    return sorted(group for group in groups.values() if len(group) > 1)


def source_modules() -> list[Path]:
    """Every module of the package, the tests and the tools."""
    return [path for root in (PACKAGE, Path(__file__).resolve().parent, REPO / "tools")
            for path in sorted(root.glob("*.py"))]


def test_no_function_body_is_repeated():
    # A helper that two test modules need is defined once, in ``conftest.py``.
    paths = source_modules()
    assert {path.parent.name for path in paths} == {"constelsim", "tests", "tools"}
    assert repeated_bodies(paths) == []


def test_repeat_guard_fires(tmp_path):
    # A copied check fires, across modules, in a method and in an async
    # function, docstring or none; a changed constant or a small body does not.
    (tmp_path / "low.py").write_text(
        "def check(value):\n"
        "    \"\"\"One docstring.\"\"\"\n"
        "    if value < 1:\n"
        "        raise ValueError('value must be at least 1')\n"
        "class Pattern:\n"
        "    def validate(value):\n"
        "        if value < 1:\n"
        "            raise ValueError('value must be at least 1')\n"
        "    def small(self): return self.x\n"
        "def other(value):\n"
        "    if value < 2:\n"
        "        raise ValueError('value must be at least 1')\n",
        encoding="utf-8",
    )
    (tmp_path / "high.py").write_text(
        "async def copied(value):\n"
        "    \"\"\"Another docstring.\"\"\"\n"
        "    if value < 1:\n"
        "        raise ValueError('value must be at least 1')\n"
        "def small(self): return self.x\n",
        encoding="utf-8",
    )
    assert repeated_bodies(sorted(tmp_path.glob("*.py"))) == [
        ["high.py:1 copied", "low.py:1 check", "low.py:6 validate"]]


MAX_LINE = 120


def test_lines_fit_the_width():
    long_lines = [f"{path.name}:{number}" for path in source_modules()
                  for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
                  if len(line) > MAX_LINE]
    assert long_lines == []
