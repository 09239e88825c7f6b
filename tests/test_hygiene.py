"""Every module of the package (bar ``__init__``, which re-exports) and of
the tests uses every name it imports, no function of the package imports
(its dependencies stand at the top of each module) or takes a parameter it
never reads, and no module of the package reads the environment: the
library's behaviour is set by its arguments alone.  No module of the package
names a long-double type: networks evaluate in float64, and exactly through
``network.eval_exact``.  Every cache of the package is a ``functools`` cache
on a module-level function, which the benchmark's ``clear_caches`` finds
among the module's attributes and empties, so that each timed compile
starts cold.  The package imports no third-party module but those that
``pyproject.toml`` declares, and ``import refinet`` loads no scipy."""
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "refinet").glob("*.py"))
MODULES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}
CACHES = {"cache", "lru_cache", "cached_property"}
STORES = {"__setitem__", "add", "setdefault", "update"}
LONG_DOUBLE = {"longdouble", "longfloat", "float96", "float128", "clongdouble",
               "complex192", "complex256"}


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_found():
    src = "import os\nimport numpy as np\nfrom a import b, c\nnp.zeros(c)\n"
    assert unused_imports(src) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source: str) -> list:
    """Lines of imports inside a function body."""
    funcs = [n for n in ast.walk(ast.parse(source))
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted({n.lineno for f in funcs for n in ast.walk(f)
                   if isinstance(n, (ast.Import, ast.ImportFrom))})


def test_function_imports_found():
    src = ("import os\n\ndef f():\n    import sys\n"
           "    def g():\n        from a import b\n    return os\n")
    assert function_imports(src) == [4, 6]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_package_imports_at_module_level(path):
    assert function_imports(path.read_text()) == []


def unused_parameters(source: str) -> list:
    """``function.parameter`` for each parameter of a ``def`` (bar ``self``
    and ``cls``) that its body, nested functions included, never reads."""
    out = []
    for f in ast.walk(ast.parse(source)):
        if not isinstance(f, ast.FunctionDef):
            continue
        a = f.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(v for v in (a.vararg, a.kwarg) if v)]
        read = {n.id for stmt in f.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        out += [f"{f.name}.{p.arg}" for p in params
                if p.arg not in read and p.arg not in ("self", "cls")]
    return sorted(out)


def test_unused_parameters_found():
    src = ("def f(a, b, *c, d, **e):\n    return a + d\n\n"
           "class K:\n    def m(self, x):\n        def g(y):\n"
           "            return x\n        return g\n\n"
           "h = lambda z: 0\n")
    assert unused_parameters(src) == ["f.b", "f.c", "f.e", "g.y"]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_package_functions_read_every_parameter(path):
    assert unused_parameters(path.read_text()) == []


def environment_reads(source: str) -> list:
    """Lines that read ``os.environ`` or call ``os.getenv``, directly or
    through names imported from ``os``."""
    tree = ast.parse(source)
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in ENV_READERS for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_environment_reads_found():
    src = ("import os\nfrom os import getenv\nx = os.environ.get('A')\n"
           "y = os.getenv('B')\nz = os.path.join('a', 'b')\n")
    assert environment_reads(src) == [2, 3, 4]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_package_reads_no_environment(path):
    assert environment_reads(path.read_text()) == []


def long_double_mentions(source: str) -> list:
    """Lines that name a long-double type: as a name, an attribute (such as
    ``np.longdouble``), an imported name or a dtype string."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.Constant):
            names.add(node.value)
        if isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        if names & LONG_DOUBLE:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_long_double_mentions_found():
    src = ("import numpy as np\nfrom numpy import longdouble\n"
           "x = np.longdouble(1)\ny = np.asarray(x, dtype='float128')\n"
           "z = longdouble\n'''no long double here'''\n")
    assert long_double_mentions(src) == [2, 3, 4, 5]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_package_evaluates_in_float64_only(path):
    assert long_double_mentions(path.read_text()) == []


def misplaced_caches(source: str) -> list:
    """Lines that cache other than through a ``functools`` decorator on a
    module-level function: a cache on a nested function or a method, a
    cache made by a call, a ``global`` statement, or a store into a
    module-level dict or set from inside a function."""
    tree = ast.parse(source)
    allowed = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef)
               for d in f.decorator_list for n in ast.walk(d)}
    lines = [n.lineno for n in ast.walk(tree)
             if (getattr(n, "id", None) in CACHES or getattr(n, "attr", None) in CACHES)
             and id(n) not in allowed]
    tables = {t.id for a in tree.body if isinstance(a, ast.Assign)
              and isinstance(a.value, (ast.Dict, ast.Set)) for t in a.targets
              if isinstance(t, ast.Name)}
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for n in ast.walk(f):
            target = (n.value if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
                      else n.func.value if isinstance(n, ast.Call)
                      and getattr(n.func, "attr", None) in STORES else None)
            if isinstance(n, ast.Global) or getattr(target, "id", None) in tables:
                lines.append(n.lineno)
    return sorted(set(lines))


def test_misplaced_caches_found():
    src = ("import functools\nfrom functools import lru_cache, cache\n"
           "_MEMO = {}\nNAMES = {'a': 1}\n\n"
           "@lru_cache(maxsize=None)\ndef f(x):\n    return NAMES[x]\n\n"
           "@functools.cache\ndef g(x):\n    _MEMO[x] = x\n"
           "    @cache\n    def h(y):\n        return y\n    return h\n\n"
           "class K:\n    @functools.cached_property\n    def p(self):\n        return 1\n\n"
           "def s(x):\n    global NAMES\n    _MEMO.setdefault(x, x)\n"
           "    return lru_cache()(s) if NAMES.get(x) else {}.update(a=x)\n")
    assert misplaced_caches(src) == [12, 13, 19, 24, 25, 26]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_package_caches_are_module_level_functools(path):
    assert misplaced_caches(path.read_text()) == []


def third_party_imports(source: str) -> set:
    """Top-level names of the absolute imports that are not of the standard
    library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_third_party_imports_found():
    src = ("import os.path\nimport numpy as np\nfrom scipy import sparse\n"
           "from . import network\nfrom json import dumps\n")
    assert third_party_imports(src) == {"numpy", "scipy"}


def test_package_imports_its_dependencies_only():
    deps = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(),
                     re.M | re.S).group(1)
    declared = {d.lower().replace("-", "_") for d in re.findall(r'"([\w.-]+)', deps)}
    used = set().union(*(third_party_imports(p.read_text()) for p in PACKAGE))
    assert used == declared == {"numpy"}


def test_import_loads_no_scipy():
    code = "import sys, refinet; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "src", check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
