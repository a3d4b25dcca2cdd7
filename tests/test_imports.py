"""No dead imports or private definitions in the package, no import against its layers,
no step loads scipy's packages, no except clause catches a bad argument's raw
error outside the input gate, no public name without a written purpose, and
no package name that the benchmark reads left undefined.

A dead import outlives the code that needed it and hides which layer a
module really depends on.  Names re-exported through `__all__` count as
used; `from __future__` imports are exempt.  Likewise every module-level
private function, class or assigned name must be referenced somewhere in the
package, outside its own definition.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

import radshock
from conftest import run_python

MODULES = sorted(Path(radshock.__file__).resolve().parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PURPOSES = {"paper object", "CLI path", "verify's reference route", "benchmark"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_dead_import():
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep\nsep\n"
    assert unused_imports(source) == ["math (line 2)", "path (line 3)"]


# The package's layers, lowest first: errors <- model <- equilibria <-
# {classification, shooting} <- {scan, verify} <- {cli, the package}.  A
# module imports only from layers below its own, so the two modules of one
# layer never import each other.
LAYERS = [
    {"errors"}, {"model"}, {"equilibria"}, {"classification", "shooting"},
    {"scan", "verify"}, {"cli", "__init__"},
]


def package_imports(source: str) -> set[str]:
    """The package modules `source` imports, by `from .x import ...` or `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.partition(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_each_module_imports_only_from_lower_layers():
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    assert sorted(rank) == sorted(path.stem for path in MODULES)
    against = [
        f"{path.stem} imports {dep}"
        for path in MODULES
        for dep in sorted(package_imports(path.read_text(encoding="utf-8")))
        if rank[dep] >= rank[path.stem]
    ]
    assert against == []


def test_checker_reads_both_relative_import_forms():
    source = "from . import a as b\nfrom .c.d import e\nfrom .. import f\nimport g\nfrom h import i\n"
    assert package_imports(source) == {"a", "c"}


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and assigned names that nothing else references."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                stores = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                targets = {
                    node.id for target in stores
                    for node in ast.walk(target) if isinstance(node, ast.Name)
                }
            else:
                targets = set()
            for name in sorted(targets):
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, name, stmt.lineno))
                    names.discard(name)
            used |= names
    return [f"{module}:{name} (line {line})" for module, name, line in defined if name not in used]


def test_package_references_every_private_definition():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_private_defs(sources) == []


def test_checker_flags_a_dead_private_definition():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\n"
                "class _Dead:\n    pass\n\ndef __getattr__(name):\n    pass\n\n"
                "_LIMIT = 3\n_CACHE: dict = {}\n_SELF = [_SELF]\n_pair, __all__ = _LIMIT, []\n",
        "b.py": "import a\nfrom a import _Other\na._used()\n",
        "c.py": "class _Other:\n    pass\n",
    }
    assert unreferenced_private_defs(sources) == [
        "a.py:_dead (line 4)", "a.py:_Dead (line 7)", "a.py:_CACHE (line 14)",
        "a.py:_SELF (line 15)", "a.py:_pair (line 16)",
    ]


# Exceptions a bad argument raises inside the library.  Only the input gate
# and the places that handle outside input catch them: the gate in errors.py,
# run_identity_suite's default_rng call and the CLI's grid parser and main.
_RAW_ERRORS = {"TypeError", "ValueError", "OverflowError", "ArithmeticError", "Exception"}
RAW_ERROR_HANDLERS = [
    "cli.py:main", "cli.py:parse_grid", "errors.py:_reals", "verify.py:run_identity_suite"
]


def raw_error_handlers(sources: dict[str, str]) -> list[str]:
    """`module:scope` of each except clause that is bare or names one of `_RAW_ERRORS`."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.ExceptHandler) and (
                child.type is None
                or _RAW_ERRORS & {n.id for n in ast.walk(child.type) if isinstance(n, ast.Name)}
            ):
                found.append(f"{module}:{scope}")
            visit(child, module, inner)

    for module, source in sources.items():
        visit(ast.parse(source), module, "")
    return sorted(found)


def test_only_the_input_gate_catches_raw_errors():
    # A per-site try block around a range check would bring back what the
    # gate states once.
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert raw_error_handlers(sources) == RAW_ERROR_HANDLERS


def test_checker_flags_a_caught_type_error():
    source = (
        "def check(x):\n    try:\n        return 0.0 < x\n    except TypeError:\n        pass\n\n"
        "class Options:\n    def check(self):\n        try:\n            pass\n"
        "        except (KeyError, ValueError):\n            pass\n"
        "        except KeyError:\n            pass\n        except:\n            pass\n"
    )
    assert raw_error_handlers({"m.py": source}) == [
        "m.py:Options.check", "m.py:Options.check", "m.py:check"
    ]


# Each step runs in turn in one fresh interpreter, which then prints which
# of scipy's heavy subpackages are loaded, and how many compiled modules
# the shot loaded.  A shot loads only the one compiled module it calls,
# not the packages around it.
_LAZY_SCIPY_STEPS = """
import json, sys
steps = [
    ("import radshock", "import radshock"),
    ("classify", "radshock.classify(0.5, 0.9)"),
    ("run_scan", "from radshock.scan import ScanConfig, run_scan; "
                 "run_scan(ScanConfig(eps_count=4, q_count=4))"),
    ("run_identity_suite", "from radshock.verify import run_identity_suite; "
                           "run_identity_suite()"),
    ("shoot", "radshock.shoot(1.0, 0.8)"),
]
loaded = {}
for name, code in steps:
    exec(code)
    loaded[name] = [m for m in ("scipy.integrate", "scipy.optimize", "scipy.special",
                                "scipy.sparse", "scipy.linalg", "sympy", "mpmath")
                    if m in sys.modules]
print(json.dumps([loaded, radshock.shooting._lsoda.cache_info().currsize]))
"""


def test_only_a_shot_loads_scipy():
    # Only a shot loads anything of scipy: one compiled module, and none of these packages;
    # no step loads sympy or mpmath, which only the tests' references use.
    proc = run_python("-c", _LAZY_SCIPY_STEPS, timeout=120, check=True)
    loaded, compiled = json.loads(proc.stdout)
    assert loaded == {
        "import radshock": [],
        "classify": [],
        "run_scan": [],
        "run_identity_suite": [],
        "shoot": [],
    }
    assert compiled == 1


# The input gate's functions: `errors`'s and the range checks built on them.
GATES = {"_real", "_reals", "_count", "check_eps", "_closed_eps", "_scalar_eps", "check_omega",
         "_check_q"}
# Each use of a gate function, as `module:scope -> gate`.  An entry point
# gates each argument once and hands the gated values to bodies that gate
# nothing (`_rest_v_sq`, `_pair`, `_roots`, `_separatrices`, `_labels`); a
# shot's `_setup` gates for the entry points that call it, the public types
# validate their own fields, and `q_of_vplus`, an entry point, is also the
# cubic solver's post-condition on the roots it is handed.
# The CLI's classify command gates its point once and calls the bodies.
GATE_CALLERS = [
    "classification.py:_closed_eps -> _reals",
    "classification.py:_scalar_eps -> _real",
    "classification.py:classify -> check_omega",
    "classification.py:cubic_roots -> _scalar_eps",
    "classification.py:local_spectrum -> _scalar_eps",
    "classification.py:p_coefficients -> _closed_eps",
    "classification.py:p_eval -> _reals",
    "classification.py:separatrix_q1 -> _scalar_eps",
    "classification.py:separatrix_q2 -> _scalar_eps",
    "cli.py:cmd_classify -> check_omega",
    "equilibria.py:EquilibriumPair.__post_init__ -> _real",
    "equilibria.py:EquilibriumPair.__post_init__ -> _real",
    "equilibria.py:_check_q -> _reals",
    "equilibria.py:admissible -> _real",
    "equilibria.py:admissible -> _real",
    "equilibria.py:check_omega -> _real",
    "equilibria.py:check_omega -> _real",
    "equilibria.py:q_of_vplus -> _reals",
    "equilibria.py:rest_points -> _real",
    "equilibria.py:state_from_v -> _real",
    "equilibria.py:v_minus_squared -> _check_q",
    "equilibria.py:v_plus_squared -> _check_q",
    "errors.py:_real -> _reals",
    "model.py:GodunovState.__post_init__ -> _real",
    "model.py:GodunovState.__post_init__ -> _real",
    "model.py:b_sharp -> check_eps",
    "model.py:causality_check -> _real",
    "model.py:check_eps -> _reals",
    "model.py:flux_residual -> _real",
    "model.py:flux_residual -> _real",
    "scan.py:ScanConfig.__post_init__ -> _count",
    "scan.py:ScanConfig.__post_init__ -> _real",
    "scan.py:ScanConfig.__post_init__ -> _real",
    "shooting.py:ShootOptions.__post_init__ -> _real",
    "shooting.py:_setup -> check_omega",
    "shooting.py:oscillation_report -> _reals",
    "verify.py:run_identity_suite -> _count",
]


def gate_uses(sources: dict[str, str]) -> list[str]:
    """`module:scope -> gate` of each reference to one of `GATES` inside a function or class."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Name) and child.id in GATES and scope:
                found.append(f"{module}:{scope} -> {child.id}")
            visit(child, module, inner)

    for module, source in sources.items():
        visit(ast.parse(source), module, "")
    return sorted(found)


def test_each_gate_use_is_pinned():
    # A body that starts to gate a value its entry point has gated shows up
    # as a new entry here.
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert gate_uses(sources) == GATE_CALLERS


def module_level_imports(source: str) -> set[str]:
    """The top-level package of each import that runs when the module is imported."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                found.add(child.module.partition(".")[0])
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child)

    visit(ast.parse(source))
    return found


def test_cli_module_imports_no_numpy_or_scipy():
    # The CLI module itself stays free of numpy and scipy, so that a
    # one-point command can be made to run without them (ROADMAP item 24).
    source = (Path(radshock.__file__).resolve().parent / "cli.py").read_text(encoding="utf-8")
    assert not module_level_imports(source) & {"numpy", "scipy"}


def test_checker_reads_module_level_imports():
    source = (
        "import numpy.linalg as la\nfrom . import model\nfrom .x import y\n"
        "class A:\n    from scipy import integrate\n"
        "def f():\n    import sympy\n"
        "if True:\n    import math\n"
    )
    assert module_level_imports(source) == {"numpy", "scipy", "math"}


def test_checker_finds_each_gate_use():
    source = (
        "from errors import _real\n\ndef gate(x):\n    return _real(x), _real(x)\n\n"
        "class Options:\n    def check(self):\n        return list(map(_reals, self))\n\n"
        "def body(x):\n    _unrelated(x)\n"
    )
    assert gate_uses({"m.py": source}) == [
        "m.py:Options.check -> _reals", "m.py:gate -> _real", "m.py:gate -> _real"
    ]


def test_readme_gives_each_public_name_one_purpose():
    # The README's Library table has one row per name of `radshock.__all__`,
    # and no other, each with one of the four purposes.
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in library.splitlines() if line.startswith("| `")]
    assert sorted(name.strip().strip("`") for name, _ in rows) == sorted(radshock.__all__)
    assert {purpose.strip() for _, purpose in rows} <= PURPOSES


def radshock_names(source: str) -> set[str]:
    """Each name imported `from radshock...` and each `radshock.<name>`, as `module.name`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and not node.level and (
                node.module == "radshock" or node.module.startswith("radshock.")):
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "radshock"):
            found.add(f"radshock.{node.attr}")
    return found


def test_every_package_name_the_benchmark_reads_resolves():
    # The benchmark's harness changes only with the benchmark, so a name it
    # reads that the package drops would first show as a failed benchmark run.
    names = set().union(*(radshock_names(path.read_text(encoding="utf-8"))
                          for path in PERFBENCH.rglob("*.py")))
    assert names
    missing = [f"{module}.{name}" for module, _, name in (n.rpartition(".") for n in sorted(names))
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_checker_reads_package_names():
    source = (
        "import radshock\nfrom radshock import a, b as c\nfrom radshock.scan import d\n"
        "from . import e\nfrom radshockx import f\nradshock.g(radshock.h.i, other.j)\n"
    )
    assert radshock_names(source) == {"radshock.a", "radshock.b", "radshock.scan.d",
                                      "radshock.g", "radshock.h"}
