"""The package's import graph and its public names."""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import pkgutil
import re
from pathlib import Path

import pytest

import txndpor
from fixtures import run_fresh


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(txndpor.__path__))
)
def test_submodule_imports_first_and_every_export_resolves(module):
    """A fresh interpreter imports the submodule without an import cycle,
    and every name in ``__all__`` exists."""
    code = (
        f"import txndpor.{module}, txndpor\n"
        "missing = [n for n in txndpor.__all__ if not hasattr(txndpor, n)]\n"
        "assert not missing, missing\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_finds_every_binding_it_wraps():
    """The benchmark's traced mode looks up the names it wraps in
    ``explorer``, ``program`` and ``model``; each must exist for the tracer
    to install in a fresh interpreter with ``bench/`` importable."""
    code = (
        "import tracing\n"
        "with tracing.Tracer('ce-cc').installed():\n"
        "    pass\n"
    )
    proc = run_fresh(code, BENCH)
    assert proc.returncode == 0, proc.stderr


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_identity_record_matches_itself_and_names_a_planted_change(tmp_path):
    """``tools/identity.py`` finds a checkout identical to its own record,
    exit 0, and names the one counter planted in a copy of it, exit 1."""
    record, planted = tmp_path / "record.json", tmp_path / "planted.json"
    code = (
        "import contextlib, io, json, identity\n"
        f"assert identity.main(['--record', {str(record)!r}]) == 0\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert identity.main(['--against', {str(record)!r}]) == 0\n"
        "print(out.getvalue(), end='')\n"
        f"data = json.loads(open({str(record)!r}).read())\n"
        "data['api']['pair_reader/dfs/cc']['recursive_calls'] += 1\n"
        f"open({str(planted)!r}, 'w').write(json.dumps(data))\n"
        f"print(identity.main(['--against', {str(planted)!r}]))\n"
    )
    proc = run_fresh(code, TOOLS)
    assert proc.returncode == 0, proc.stderr
    same, differs, code = proc.stdout.splitlines()
    assert re.fullmatch(r"identical: \d+ entries", same)
    assert differs == "differs: api/pair_reader/dfs/cc/recursive_calls: recorded 21, now 20"
    assert code == "1"


CODE_LINES_SNIPPET = '''"""A module docstring,
on two lines."""

import os  # a trailing comment


def f(a):
    """A function docstring."""
    # a comment-only line
    x = max(
        a,
        1)
    "a bare string statement"
    return os.sep, x
'''


def test_code_lines_counts_the_lines_that_hold_code():
    """``tools/code_lines.py`` counts, in a snippet, the import, the
    ``def``, the three lines of the call and the ``return``: six lines by
    hand, skipping docstrings, the comment-only line, blank lines and the
    bare string statement.  ``main()`` prints one row per module of the
    package and a total equal to their sum."""
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    assert code_lines.code_lines(CODE_LINES_SNIPPET) == 6
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code_lines.main()
    header, *rows, total = [line.split() for line in out.getvalue().splitlines()]
    assert header == ["module", "physical", "code"]
    modules = sorted(path.name for path in Path(txndpor.__file__).parent.glob("*.py"))
    assert [name for name, _, _ in rows] == modules
    sums = [sum(int(row[i].replace(",", "")) for row in rows) for i in (1, 2)]
    assert total == ["total", *(f"{n:,}" for n in sums)]


def test_library_never_changes_the_recursion_limit():
    """The searches keep their own stack; no module may raise the
    interpreter-wide recursion limit."""
    offenders = [
        path.name
        for path in Path(txndpor.__file__).parent.rglob("*.py")
        if "setrecursionlimit" in path.read_text()
    ]
    assert offenders == []


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.parametrize(
    "path", sorted(Path(txndpor.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_module_parses_at_the_supported_python_floor(path):
    """Each module parses with the grammar of the oldest Python that
    ``requires-python`` admits, so syntax from a later release fails here
    even when the suite runs on that later release."""
    floor = re.search(r'requires-python = ">=3\.(\d+)"', PYPROJECT.read_text())
    assert floor is not None
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, int(floor[1])))


def _unbounded_memos(source: str) -> list[int]:
    """Lines of ``source`` that use ``functools.cache``, or an ``lru_cache``
    whose ``maxsize`` is not written as a positive int literal: ``None``, a
    name, an expression, zero, a bool, or left to its default."""
    lines, tree = [], ast.parse(source)
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found = any(alias.name == "cache" for alias in node.names)
        elif isinstance(node, ast.Attribute) and name == "cache":
            found = isinstance(node.value, ast.Name) and node.value.id == "functools"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            found = name == "lru_cache" and not (
                len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                and type(sizes[0].value) is int and sizes[0].value > 0
            )
        else:  # a bare ``@lru_cache`` takes the default size
            found = name == "lru_cache" and id(node) not in calls
        if found:
            lines.append(node.lineno)
    return lines


def test_library_memos_are_bounded():
    """No memo in the library can grow without bound over a long run, such as
    a ``txndpor verify`` of a large program: no ``functools.cache``, and every
    ``lru_cache`` states its bound as a positive int literal, which a reader
    can see and no setting can lift."""
    for unbounded in (
        "from functools import cache",
        "import functools\n@functools.cache\ndef f(x): pass",
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass",
        "import functools\n@functools.lru_cache(None)\ndef f(x): pass",
        "SIZE = 64\n@lru_cache(maxsize=SIZE)\ndef f(x): pass",
        "@lru_cache(maxsize=2 ** 10)\ndef f(x): pass",
        "@lru_cache(maxsize=0)\ndef f(x): pass",
        "@lru_cache(maxsize=-1)\ndef f(x): pass",
        "@lru_cache(maxsize=True)\ndef f(x): pass",
        "@lru_cache(maxsize=1.5)\ndef f(x): pass",
        "@lru_cache()\ndef f(x): pass",
        "@lru_cache\ndef f(x): pass",
        "import functools\n@functools.lru_cache\ndef f(x): pass",
    ):
        assert _unbounded_memos(unbounded), unbounded
    for bounded in (
        "cache = {}\n@lru_cache(maxsize=64)\ndef f(x): pass",
        "import functools\n@functools.lru_cache(1_024)\ndef f(x): pass",
        "@lru_cache(maxsize=8, typed=True)\ndef f(x): pass",
    ):
        assert _unbounded_memos(bounded) == [], bounded
    offenders = {
        path.name: lines
        for path in sorted(Path(txndpor.__file__).parent.glob("*.py"))
        if (lines := _unbounded_memos(path.read_text()))
    }
    assert offenders == {}


def _unused_imports(source: str) -> list[str]:
    """Names ``source`` imports (``__future__`` features aside) that no
    name in it reads."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_library_leaves_no_unused_import():
    """Every module but ``__init__.py``, whose imports are re-exports, reads
    each name it imports, so code that is deleted takes its imports along."""
    seeded = (
        "from __future__ import annotations\n"
        "import os.path, re\n"
        "from json import dumps, loads as ld\n"
        "os.path.join(ld('1'))\n"
    )
    assert _unused_imports(seeded) == ["dumps", "re"]
    offenders = {
        path.name: names
        for path in sorted(Path(txndpor.__file__).parent.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert offenders == {}


def _locked_fills(source: str) -> list[int]:
    """Lines of ``source`` that use ``functools.cached_property``, which up to
    Python 3.11 takes a class-wide lock on every first fill."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found = any(alias.name == "cached_property" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found = (node.attr == "cached_property" and isinstance(node.value, ast.Name)
                     and node.value.id == "functools")
        else:
            found = False
        if found:
            lines.append(node.lineno)
    return lines


def test_library_fills_lazy_relations_without_a_lock():
    """The library's lazy relations use ``model.lazy_property``, not
    ``functools.cached_property``."""
    for locked in (
        "from functools import cached_property",
        "from functools import lru_cache, cached_property as cp",
        "import functools\nclass A:\n    @functools.cached_property\n    def f(self): pass",
    ):
        assert _locked_fills(locked), locked
    assert _locked_fills("from .model import lazy_property\ncached_property = 1") == []
    offenders = {
        path.name: lines
        for path in sorted(Path(txndpor.__file__).parent.glob("*.py"))
        if (lines := _locked_fills(path.read_text()))
    }
    assert offenders == {}


def _call_sites(source: str, accept) -> list[tuple[str, int]]:
    """(enclosing ``Class.function``, line) of every call in ``source`` that
    ``accept(call, enclosing class name)`` accepts."""
    found = []

    def visit(node: ast.AST, cls: str, func: str) -> None:
        if isinstance(node, ast.ClassDef):
            cls, func = node.name, ""
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not func:
            func = node.name
        elif isinstance(node, ast.Call) and accept(node, cls):
            found.append((f"{cls}.{func}" if cls else func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    visit(ast.parse(source), "", "")
    return found


def _history_allocations(source: str) -> list[tuple[str, int]]:
    """(enclosing ``Class.function``, line) of every ``History`` that
    ``source`` makes without its constructor: ``object.__new__(History)``,
    or ``object.__new__(cls)`` in a method of ``History``."""

    def allocates(call: ast.Call, cls: str) -> bool:
        if ast.unparse(call.func) != "object.__new__":
            return False
        target = ast.unparse(call.args[0]) if call.args else ""
        return target.split(".")[-1] == "History" or (target == "cls" and cls == "History")

    return _call_sites(source, allocates)


def test_histories_are_allocated_only_in_the_derived_constructor():
    """``History._derived`` is the one place the library makes a history
    without ``__post_init__``, so the retention accounting that wraps it
    and ``__post_init__`` sees every history a lean edit makes."""
    seeded = (
        "from txndpor import model\n"
        "def lean(logs):\n"
        "    return object.__new__(model.History)\n"
        "class History:\n"
        "    @classmethod\n"
        "    def _derived(cls, logs):\n"
        "        return object.__new__(cls)\n"
        "    def with_x(self):\n"
        "        return object.__new__(History)\n"
        "class OrderedHistory:\n"
        "    @classmethod\n"
        "    def lean(cls):\n"
        "        return object.__new__(cls), object.__new__(OrderedHistory)\n"
    )
    assert _history_allocations(seeded) == [
        ("lean", 3), ("History._derived", 7), ("History.with_x", 9),
    ]
    found = {
        path.name: sites
        for path in sorted(Path(txndpor.__file__).parent.glob("*.py"))
        if (sites := _history_allocations(path.read_text()))
    }
    assert [site for site, _ in found.pop("model.py")] == ["History._derived"]
    assert found == {}


def _derived_calls(source: str) -> list[tuple[str, int]]:
    """(enclosing ``Class.function``, line) of every ``…._derived(...)`` call."""
    return _call_sites(
        source, lambda call, _: isinstance(call.func, ast.Attribute) and call.func.attr == "_derived"
    )


def test_only_the_trace_and_prev_build_unvalidated_histories():
    """``History._derived`` skips validation, so it is called only where the
    caller vouches for the history: the walk's snapshots (``_Trace.state``)
    and ``oracles.prev``'s removal of the last event of the last
    transaction to enter.  ``drop_events`` and the one-event edits build
    theirs by the validating constructors."""
    seeded = (
        "def cut(h):\n"
        "    return model.History._derived(h.logs, h.wr)\n"
        "class History:\n"
        "    def edit(self):\n"
        "        return type(self)(self.logs, self.wr), self._derived((), ())\n"
    )
    assert _derived_calls(seeded) == [("cut", 2), ("History.edit", 5)]
    found = {
        path.name: [site for site, _ in sites]
        for path in sorted(Path(txndpor.__file__).parent.glob("*.py"))
        if (sites := _derived_calls(path.read_text()))
    }
    assert found == {"explorer.py": ["_Trace.state"], "oracles.py": ["prev"]}
