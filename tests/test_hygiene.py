import ast
import pathlib
import sys
import textwrap

import pytest
import yaml

from dualsniff import _kernels, configio
from dualsniff.configio import parse_setup

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dualsniff"
PERFBENCH = TESTS.parent / "perfbench"


def _unused_imports(path):
    """Names ``path`` imports and never reads, unless marked ``# noqa: F401``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _defined_names(path):
    """The functions, classes and constants ``path`` defines at module level, dunders aside."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _read_names(path):
    """Every name ``path`` loads, reads as an attribute, imports from a module or
    spells as an identifier string (as ``cli._LAZY`` and the benchmark tracer do)."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            read.add(node.value)
    return read


def test_every_package_name_is_read():
    """A module-level name of the package that nothing in the package, the tests
    or the benchmark reads is dead code."""
    files = [*PACKAGE.glob("*.py"), *TESTS.glob("*.py"), *PERFBENCH.glob("*.py")]
    read = set().union(*map(_read_names, files))
    unread = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _defined_names(path) if name not in read]
    assert unread == []


def test_the_package_issues_no_warnings():
    """Outcomes travel in ``Solutions.status`` and typed exceptions: the package
    calls no ``warnings.warn`` and defines no ``Warning`` subclass."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "warn" or \
                    isinstance(node, ast.ImportFrom) and node.module == "warnings" and \
                    any(alias.name == "warn" for alias in node.names):
                found.append(f"{path.name}:{node.lineno}: warn")
            elif isinstance(node, ast.ClassDef) and \
                    any(ast.unparse(base).endswith("Warning") for base in node.bases):
                found.append(f"{path.name}:{node.lineno}: class {node.name}")
    assert found == []


def test_the_oracle_takes_only_the_pair_type_from_the_solvers():
    """``bruteforce`` audits the solvers, so it computes its cost and searches on its own:
    from ``toa`` and ``tdoa`` it imports only the ``TdoaPair`` input type."""
    taken = []
    for node in ast.walk(ast.parse((PACKAGE / "bruteforce.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [".".join(filter(None, (node.module, alias.name))) for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        taken += [name for name in names if {"toa", "tdoa"} & set(name.split("."))]
    assert taken == ["tdoa.TdoaPair"]


def test_benchmark_entry_points_exist():
    """The benchmark's tracer and inputs still find every package name they use."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.CALL_SITES
               if not hasattr(module, attr)]
    assert missing == []
    assert _kernels.USING_NUMBA is False
    for w in inputs.WORKLOADS.values():
        parse_setup(inputs.config_doc(w, 401))
    (instance,) = inputs.draw_audit_instances(5, (1, 0))
    assert inputs.audit_instance(*instance) <= inputs.AUDIT_GAP_LIMIT


def test_documented_schema_is_the_parsed_one():
    """The YAML block of ``configio``'s docstring parses, and names exactly ``KEYS``."""
    block = configio.__doc__.split("::\n", 1)[1].split("\n\n", 1)[0]
    doc = yaml.safe_load(textwrap.dedent(block))
    parse_setup(doc)
    keys = {section: set(doc[section]) for section in ("scenario", "clock", "capture")}
    keys["relocations"] = set(doc["relocations"][0])
    assert keys == configio.KEYS
