"""The core stays stdlib-only and float-free: checked on the source itself."""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import tropcount

SOURCES = sorted(Path(tropcount.__file__).parent.glob("*.py"))


def parsed():
    for path in SOURCES:
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert {"cli", "enumeration", "linalg", "moduli_maps"} <= {p.stem for p in SOURCES}


def test_imports_are_stdlib_or_tropcount():
    allowed = set(sys.stdlib_module_names) | {"__future__", "tropcount"}
    for module, tree in parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside tropcount
            for name in names:
                assert name.split(".")[0] in allowed, f"{module} imports {name}"


def test_imports_are_at_module_level():
    # every dependency of a module shows at its top
    for module, tree in parsed():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stray = [
                node for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
            assert not stray, f"{module}.{fn.name} imports at line {stray[0].lineno}"


def floats_in(node):
    """Float literals and uses of the name `float` under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            yield sub
        elif isinstance(sub, ast.Name) and sub.id == "float":
            yield sub


def test_no_float_outside_svg_render():
    for module, tree in parsed():
        allowed = set()
        if module == "cli":
            (render,) = [
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_svg_render"
            ]
            allowed = {id(sub) for sub in floats_in(render)}
            assert allowed  # SVG coordinates are printed through float()
        stray = [sub for sub in floats_in(tree) if id(sub) not in allowed]
        assert not stray, f"{module} line {stray[0].lineno} uses a float"


def test_contact_test_stays_integer():
    # the intersection's contact tests decide in integers on the pair's
    # common scale; only tropical_intersection builds Fractions, its hits'
    (tree,) = [tree for module, tree in parsed() if module == "kontsevich"]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names = ("_collinear_overlap", "_scan", "_on_scale", "_runs_on_scale",
             "tropical_intersection")
    naming = {
        name for name in names for sub in ast.walk(functions[name])
        if isinstance(sub, ast.Name) and sub.id == "Fraction"
        or isinstance(sub, ast.Attribute) and sub.attr == "Fraction"
    }
    assert naming == {"tropical_intersection"}, f"{sorted(naming)} name Fraction"


def test_no_assert_statements():
    # invariants raise, so they survive python -O
    for module, tree in parsed():
        stray = [node for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not stray, f"{module} line {stray[0].lineno} uses assert"


def test_no_indent_in_json_dumps():
    # CPython runs json.dumps with any indent= in its pure-Python encoder;
    # an indented report goes through cli's own writer instead
    for module, tree in parsed():
        stray = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dumps"
            and any(kw.arg == "indent" for kw in node.keywords)
        ]
        assert not stray, f"{module} line {stray[0].lineno} passes indent= to json.dumps"


WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def opens_to_write(node):
    """Whether node calls open() with a mode that writes, or one not
    spelled as a literal, or os.open() with a flag that writes."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
        return any(
            not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
            or set(mode.value) & set("wax+")
            for mode in modes
        )
    if (
        isinstance(func, ast.Attribute) and func.attr == "open"
        and isinstance(func.value, ast.Name) and func.value.id == "os"
    ):
        return any(
            isinstance(sub, ast.Attribute) and sub.attr in WRITE_FLAGS
            or isinstance(sub, ast.Name) and sub.id in WRITE_FLAGS
            for arg in node.args[1:] for sub in ast.walk(arg)
        )
    return False


def test_files_are_written_only_by_emit():
    # every command writes its --out file through cli._emit, which rewrites
    # an existing file in place instead of truncating it first
    for module, tree in parsed():
        allowed = set()
        if module == "cli":
            (emit,) = [
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_emit"
            ]
            allowed = {id(sub) for sub in ast.walk(emit) if opens_to_write(sub)}
            assert len(allowed) == 2  # os.open, then open() on its descriptor
        stray = [sub for sub in ast.walk(tree) if opens_to_write(sub) and id(sub) not in allowed]
        assert not stray, f"{module} line {stray[0].lineno} opens a file to write"


def decorator_name(node):
    """The name a decorator calls or is: cache for @cache, @functools.cache
    and @lru_cache(...)'s lru_cache."""
    func = node.func if isinstance(node, ast.Call) else node
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_input_keyed_caches_stay_bounded():
    # an unbounded cache is keyed by a degree alone; one keyed by an input
    # keeps at most a literal number of entries, so a process that sees
    # many point sets does not keep every point set's work
    cached = []
    for module, tree in parsed():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for dec in fn.decorator_list:
                name, where = decorator_name(dec), f"{module}.{fn.name}"
                if name == "cache":
                    params = [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
                    assert params == ["d"] and not fn.args.vararg and not fn.args.kwarg, where
                    cached.append(where)
                elif name == "lru_cache":
                    assert isinstance(dec, ast.Call), f"{where} needs an explicit maxsize"
                    sizes = dec.args[:1] + [kw.value for kw in dec.keywords if kw.arg == "maxsize"]
                    assert len(sizes) == 1, f"{where} needs an explicit maxsize"
                    (size,) = sizes
                    assert isinstance(size, ast.Constant) and type(size.value) is int, (
                        f"{where} has maxsize {ast.unparse(size)}, not an integer literal"
                    )
    assert cached


# Definitions the package itself never uses, each kept for its reason.
UNCALLED = {
    "m4_point": "a curve's point of M_4, the reference combined-map fibers are checked on",
    "four_valent_resolutions": "the three resolutions whose determinants the suite sums to zero",
    "wdvv_sides": "both sides of the recursion, which the census totals must reproduce",
    "reducible_census": "the census entry point, which the suite and the benchmark call",
}


def definitions(tree):
    """Every module-level and class-level name a module defines."""
    for node in tree.body:
        yield from defined_names(node)
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                yield from defined_names(sub)


def defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            yield from (sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name))


def methods(tree):
    """Every name a class body of a module defines with def."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (sub.name for sub in node.body if isinstance(sub, ast.FunctionDef))


def uses(trees):
    """How often code reads each name: a bare name loaded, an attribute
    (.name) or a keyword argument (name=).  Docstrings, comments and a
    name's own definitions do not count."""
    used = Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif isinstance(node, ast.keyword) and node.arg is not None:
                used[node.arg] += 1
    return used


def test_every_definition_has_a_caller():
    # a name is used when some code reads it, and a method only when some
    # module reads it as an attribute, .name; a re-export in __init__ is not
    trees = [tree for module, tree in parsed() if module != "__init__"]
    used = uses(trees)
    defined = {name for tree in trees for name in definitions(tree)}
    attributes = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    own = {name for tree in trees for name in methods(tree)}
    uncalled = sorted(
        name for name in defined
        if (name not in attributes if name in own else not used[name])
        and not name.startswith("__") and name not in UNCALLED
    )
    assert not uncalled, f"defined but never used in tropcount: {uncalled}"
    called = [name for name in UNCALLED if used[name]]
    assert not called, f"now used, drop from UNCALLED: {called}"


TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_every_test_import_is_read():
    # an imported name no line of its test file reads is stale
    unread = {}
    for path in TESTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if imported - read:
            unread[path.name] = sorted(imported - read)
    assert not unread, f"imported and never read: {unread}"


TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_hooks():
    """bench/tracing.py's HOOKS table, read without importing or running
    anything under bench/."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets)
    ]
    return ast.literal_eval(table)


def test_traced_names_resolve():
    # the benchmark's tracer patches these names from outside
    hooks = traced_hooks()
    assert hooks
    missing = [
        f"{module}.{attr}" for module, attr, _ in hooks
        if not callable(getattr(importlib.import_module(f"tropcount.{module}"), attr, None))
    ]
    assert not missing, f"traced names tropcount no longer has: {missing}"


def test_traced_imports_are_called_by_bare_name():
    # a traced name a module imports is patched in that module's namespace,
    # so the module must call it there by its bare name; a call through
    # another path would leave its counters at zero.  A name the module
    # defines itself is an entry point the benchmark calls from outside.
    modules = dict(parsed())
    unread = []
    for module, attr, _ in traced_hooks():
        source = modules[module]
        imported = {
            alias.asname or alias.name
            for node in ast.walk(source) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        read = {
            node.id for node in ast.walk(source)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if attr in imported and attr not in read:
            unread.append(f"{module}.{attr}")
        elif attr not in imported and attr not in set(definitions(source)):
            unread.append(f"{module}.{attr} (neither imported nor defined)")
    assert not unread, f"traced names no call reads: {unread}"
