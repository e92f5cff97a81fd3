"""Every name a kernel module imports is used in it, and every top-level
definition of the kernel is referenced somewhere.

A stdlib stand-in for a linter's unused-import rule: ``ast`` walks each
``src/flbreuil/*.py`` except ``__init__.py`` (which re-exports) and skips
``from __future__`` imports.  A name counts as used when it appears as an
identifier, or inside a quoted annotation.

The dead-code check collects the names by which the kernel, the tests and
the benchmark harness can call a definition, and fails on a module-level
``def`` or ``class`` of the kernel, or a method of one of its classes other
than a dunder, that none of them names.  A module-level definition is
named by a bare identifier, an imported name or an access on a kernel
module (``SER.dumps``); a method only by an attribute access on anything
but a kernel or stdlib module; an access on a stdlib module
(``json.dumps``) names nothing.  A second check pins the definitions that
no kernel code names to an explicit list, each with its reason, so that a
definition whose last kernel caller leaves fails loudly instead of living
on as test-only API.  A third pins, the same way, the optional parameters
that no kernel call passes (by keyword, by position, or through ``*`` or
``**``; a call is matched to a definition by its name).  A fourth pins the
public names of each module (``PUBLIC``: no leading underscore), and a
fifth fails on a public name that nothing outside the tests names.
Likewise every span and counter the benchmark reads
(``perfbench/run.py``'s ``_LAYER_SPEC``, ``perfbench/tracer.py``'s
``GROUPS``, both read with ``ast``) must name a kernel function or a name
of a kernel class, except an explicit list of stale names, so that a
rename cannot zero a live counter unseen.

Every CLI step is a fresh interpreter, so what ``import flbreuil.cli``
loads is paid on each start: it must load neither the process pool, which
only ``verify --jobs`` above 1 uses, nor ``dataclasses`` and ``inspect``."""

import ast
import importlib
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flbreuil"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree) -> dict:
    """Each name an import binds, with the line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "WittScalar" or "tuple[WittScalar, ...]"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


KERNEL_MODULES = {p.stem for p in MODULES}


def _module_names(tree) -> tuple[set, set]:
    """The names an import binds to a kernel module (``from . import pd as
    P``, ``from flbreuil import serialize as SER``, the package itself)
    and those it binds to a stdlib module (``import json``)."""
    kernel, stdlib = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in sys.stdlib_module_names:
                    stdlib.add(alias.asname or top)
                elif top == "flbreuil":
                    kernel.add(alias.asname or top)
        elif isinstance(node, ast.ImportFrom) and (node.level, node.module) in \
                ((1, None), (0, "flbreuil")):
            kernel.update(a.asname or a.name for a in node.names if a.name in KERNEL_MODULES)
    return kernel, stdlib


def _is_module(node, names: set, submodules=None) -> bool:
    """Whether the expression names a module bound in ``names``, or a
    submodule of one (``flbreuil.cli``, ``os.path``) whose name is in
    ``submodules`` when that is given."""
    if isinstance(node, ast.Attribute):
        return (submodules is None or node.attr in submodules) and \
            _is_module(node.value, names, submodules)
    return isinstance(node, ast.Name) and node.id in names


def _referenced(paths) -> tuple[set, set]:
    """The names these files can call a definition by: for a module-level
    definition, every bare name, imported name and access on a kernel
    module; for a method, every attribute access on anything but a kernel
    or stdlib module.  An access on a stdlib module (``json.dumps``) names
    neither."""
    top, methods = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        kernel, stdlib = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                top.add(node.id)
            elif isinstance(node, ast.alias):
                top.update(n for n in (node.name, node.asname) if n)
            elif isinstance(node, ast.Attribute):
                if _is_module(node.value, kernel, KERNEL_MODULES):
                    top.add(node.attr)
                elif not _is_module(node.value, stdlib):
                    methods.add(node.attr)
    return top, methods


def _definitions(tree):
    """The module-level defs and classes, and the methods of each class but
    the dunders, which Python calls by protocol: each node with its
    qualified name (``Class.method`` for a method)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, defs)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def _unreferenced(paths) -> dict:
    """The kernel definitions that no name in these files can call, each
    qualified name with its location."""
    top, methods = _referenced(paths)
    return {
        name: f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for name, node in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if node.name not in (methods if "." in name else top)
    }


def test_no_unreferenced_top_level_definition():
    unreferenced = _unreferenced([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                                  *(ROOT / "perfbench").glob("*.py")])
    assert not unreferenced, f"defined but never referenced: {unreferenced}"


# The kernel definitions that no kernel code references, and why each stays.
NO_KERNEL_CALLER = {
    "fl_transport": "flag-preserving base change, for the morphism and FL -> Kisin work "
                    "(ROADMAP items 8 and 18)",
    "to_u_divided": "the benchmark harness names it as a span",
    "SigmaSeries.degree": "the tests read the degree of a series product",
    "PDElement.support": "perfbench/tracer.py reads it",
    "dumps": "the inverse of loads, and the round-trip tests go through it",
    "SigmaSeries.phi": "the benchmark harness names it as a span, and a Kisin-side Hom "
                       "count needs it (ROADMAP item 8)",
}


def test_definitions_without_a_kernel_caller_are_listed():
    unreferenced = set(_unreferenced(SRC.glob("*.py")))
    assert unreferenced == set(NO_KERNEL_CALLER), (
        f"no kernel caller but not listed: {sorted(unreferenced - set(NO_KERNEL_CALLER))}; "
        f"listed but called: {sorted(set(NO_KERNEL_CALLER) - unreferenced)}")


def _calls(paths) -> dict:
    """For each callee name (a bare name, or the attribute a call reads),
    one entry per call in these files: the number of positional arguments
    before any ``*``, the keyword names, and whether a ``*`` or ``**``
    passes more."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                star = [isinstance(a, ast.Starred) for a in node.args]
                keys = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (star.index(True) if any(star) else len(star), keys,
                     any(star) or None in keys))
    return calls


def _optional_parameters(node, qual: str, method: bool = False):
    """Each parameter with a default of the functions under ``node``, nested
    ones and methods included: its key ``module.Class.function.param``, the
    name its callers call (the class's for ``__init__``), its positional
    index counted without ``self`` (None when keyword-only) and its name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _optional_parameters(child, f"{qual}.{child.name}", True)
            continue
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _optional_parameters(child, qual, method)
            continue
        static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
        callee = qual.rsplit(".", 1)[-1] if child.name == "__init__" else child.name
        key = f"{qual}.{child.name}"
        a = child.args
        pos = a.posonlyargs + a.args
        skip = int(method and not static)
        for i in range(len(pos) - len(a.defaults), len(pos)):
            yield f"{key}.{pos[i].arg}", callee, i - skip, pos[i].arg
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield f"{key}.{arg.arg}", callee, None, arg.arg
        yield from _optional_parameters(child, key)


def _unpassed_optional_parameters() -> set:
    """The optional parameters of kernel functions that no kernel call
    passes: by keyword, by position, or through ``*`` or ``**``."""
    calls = _calls(SRC.glob("*.py"))
    unpassed = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for key, callee, index, name in _optional_parameters(tree, path.stem):
            if not any(more or name in keys or (index is not None and n > index)
                       for n, keys, more in calls.get(callee, ())):
                unpassed.add(key)
    return unpassed


# The optional parameters that no kernel call passes, and why each stays.
NO_KERNEL_ARGUMENT = {
    "cli.main.argv": "the benchmark harness runs the CLI in process",
}


def test_optional_parameters_without_a_kernel_argument_are_listed():
    # a default that no kernel call overrides is an option only tests set:
    # it is removed, or listed here with its reason
    unpassed = _unpassed_optional_parameters()
    assert unpassed == set(NO_KERNEL_ARGUMENT), (
        f"no kernel call passes but not listed: {sorted(unpassed - set(NO_KERNEL_ARGUMENT))}; "
        f"listed but passed: {sorted(set(NO_KERNEL_ARGUMENT) - unpassed)}")


# The benchmark's span names that no kernel definition answers to: the
# tracer wraps nothing under them, so their counters read zero until the
# benchmark is next changed (ROADMAP item 12).
STALE_SPANS = [
    "breuil.hat_fil_membership",
    "functors.breuil_to_fl_with_transport",
    "kisin.kisin_height_check",
    "matrix.RingMatrix.det",
    "matrix.RingMatrix.adjugate",
    "pd.gamma_multiply",
    "series.SigmaSeries.__mul__",
]


def _assigned(path: Path, name: str):
    """The expression assigned to ``name`` at the top level of ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def _benchmark_spans() -> set:
    """The kernel names the benchmark reads: every ``calls:`` and ``self:``
    span and constructor counter of ``_LAYER_SPEC`` (its literal part; the
    suite groups follow it), and every member of the tracer's ``GROUPS``."""
    spec = _assigned(ROOT / "perfbench" / "run.py", "_LAYER_SPEC")
    spans = set()
    for _, _, stat in ast.literal_eval(spec.left if isinstance(spec, ast.BinOp) else spec):
        kind, key = stat.split(":", 1)
        if kind in ("calls", "self") or (kind == "count" and key.endswith(".__init__")):
            spans.add(key)
    return spans | set(ast.literal_eval(_assigned(ROOT / "perfbench" / "tracer.py", "GROUPS")))


def _defines(key: str) -> bool:
    """Whether ``layer.name`` or ``layer.Class.name`` is what the tracer
    wraps: a function or class of that module, and a name in the class's
    own ``__dict__``."""
    layer, name, *attr = key.split(".")
    module = importlib.import_module(f"flbreuil.{layer}")
    obj = vars(module).get(name)
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    if attr:
        return isinstance(obj, type) and attr[0] in vars(obj)
    return isinstance(obj, types.FunctionType)


def test_benchmark_span_names_are_kernel_definitions():
    spans = _benchmark_spans()
    assert {"witt.WittScalar.__init__", "pd.PDElement.__init__"} <= spans
    stale = {key for key in spans if not _defines(key)}
    assert stale == set(STALE_SPANS), (
        f"spans naming no definition but not listed: {sorted(stale - set(STALE_SPANS))}; "
        f"listed but defined: {sorted(set(STALE_SPANS) - stale)}")


def _fresh_modules(statement: str) -> set:
    """The modules a fresh interpreter holds after ``statement``."""
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); {statement}; "
            "print(' '.join(sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return set(proc.stdout.split())


# The public names of each kernel module: its top-level defs, classes and
# assignments without a leading underscore, which is the only declaration
# of the surface.  Adding or dropping one means editing this list and the
# README's API section.
PUBLIC = {
    "ambient": ["AmbientParams", "shared_params"],
    "breuil": ["BreuilModule", "breuil_unipotent", "breuil_validate", "fil_level", "fil_lower",
               "hat_fil_level"],
    "campaign": ["SUITES", "run_suite_seed"],
    "cli": ["main"],
    "errors": ["A0NotScaledIntegral", "DegreeOverflow", "KernelError", "MalformedJumps",
               "NonConvergent", "NotAUnit", "NotCris", "NotDirectSummand", "NotDivisible",
               "NotInvertible", "NotStrong", "PrecisionExhausted", "PrecisionMismatch",
               "SchemaMismatch", "SingularMatrix"],
    "fl": ["FLModule", "fl_transport", "fl_unipotent", "fl_validate"],
    "functors": ["FLTransport", "SectionResult", "breuil_to_fl", "fl_to_breuil",
                 "section_compute"],
    "kisin": ["KisinModule", "kisin_to_breuil", "random_gls"],
    "matrix": ["RingMatrix"],
    "pd": ["PDElement", "n_S", "phi_S", "to_u_divided"],
    "serialize": ["dumps", "load", "loads", "to_json"],
    "series": ["SigmaSeries"],
    "witt": ["WittScalar"],
}


def _public_names(path: Path) -> list:
    """The sorted public names a kernel module defines at its top level."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return sorted(n for n in names if not n.startswith("_"))


def test_public_names_are_pinned():
    assert {path.stem: _public_names(path) for path in MODULES} == PUBLIC


def _readme_api() -> set:
    """The identifiers of the README's "API" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"[A-Za-z_]\w*", section))


def test_every_public_name_is_named_outside_the_tests():
    # a public name needs a reader besides the tests: another kernel module
    # (by name), the benchmark or the tools (any mention, span strings
    # included), or the README's API section
    outside = _readme_api()
    for path in [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]:
        outside.update(re.findall(r"[A-Za-z_]\w*", path.read_text(encoding="utf-8")))
    unnamed = {}
    for path in MODULES:
        others = _referenced(p for p in SRC.glob("*.py") if p != path)[0]
        for name in _public_names(path):
            if name not in outside | others:
                unnamed.setdefault(path.stem, []).append(name)
    assert not unnamed, f"public but named only by the tests: {unnamed}"


def test_cli_import_loads_no_process_pool_and_no_dataclasses():
    added = _fresh_modules("import flbreuil.cli") - _fresh_modules("pass")
    assert "flbreuil.campaign" in added
    heavy = {"concurrent.futures", "multiprocessing", "dataclasses", "inspect"}
    assert not added & heavy, f"import flbreuil.cli loads {sorted(added & heavy)}"


def test_only_join_and_split_convert_between_ints_and_bytes():
    # the packed layout has one writer and one reader of its blocks:
    # witt._join writes them through bytes, and is the only caller of
    # int.to_bytes and int.from_bytes in the kernel; witt._split reads them
    # back by masks and shifts
    inside, calls = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            key = (path.name, getattr(node, "lineno", None), getattr(node, "col_offset", None))
            if isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "from_bytes"):
                calls.add(key)
            if path.name == "witt.py" and isinstance(node, ast.FunctionDef) \
                    and node.name == "_join":
                inside.update((path.name, n.lineno, n.col_offset) for n in ast.walk(node)
                              if isinstance(n, ast.Attribute))
    assert calls and calls <= inside, f"to_bytes/from_bytes outside _join: {calls - inside}"


def test_one_arithmetic_path_for_series_and_s():
    # W(k)[[u]] and S share one sum, difference, product, dot, matmul and
    # solve: witt._FlatVector defines each once, and series.py and pd.py
    # define none of them
    ops = ("__add__", "__sub__", "__mul__", "dot", "matmul", "solve")

    def defined(name):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        return [(cls.name, n.name) for cls in tree.body if isinstance(cls, ast.ClassDef)
                for n in cls.body if isinstance(n, ast.FunctionDef) and n.name in ops]

    assert defined("series.py") == [] and defined("pd.py") == []
    flat = sorted(name for cls, name in defined("witt.py") if cls == "_FlatVector")
    assert flat == sorted(ops)


def test_filtration_tests_and_n_call_no_per_sample_kernel():
    # _adapted_level and hat_fil_level read the tables of their owners, and
    # n_S multiplies by the context's matrix of p*a: none of them names the
    # per-sample product, the chain of N or the fused dot's accumulator
    banned = {("breuil.py", "_adapted_level"): {"matvec", "_n_apply"},
              ("breuil.py", "hat_fil_level"): {"matvec", "_n_apply"},
              ("pd.py", "n_S"): {"dot_acc"}}
    found = {}
    for (name, func), names in banned.items():
        tree = ast.parse((SRC / name).read_text(), filename=name)
        [node] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == func]
        named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        named |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        if named & names:
            found[func] = sorted(named & names)
    assert not found, f"per-sample kernel calls: {found}"


def test_every_error_type_is_raised_in_the_kernel():
    # an error type outlives its last raiser only as dead API: every class
    # of errors.py but the base KernelError is raised somewhere in the kernel
    tree = ast.parse((SRC / "errors.py").read_text(), filename="errors.py")
    declared = {n.name for n in tree.body if isinstance(n, ast.ClassDef)} - {"KernelError"}
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    assert declared and not declared - raised, f"never raised: {sorted(declared - raised)}"
