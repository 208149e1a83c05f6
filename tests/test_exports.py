import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import scbundles

SRC = Path(scbundles.__file__).resolve().parent

# exported names no library module uses, each with the reason it is public
UNREFERENCED_EXPORTS = {
    "subdivide": "README quick start",
    "contract": "traced by name by the benchmark",
    "build_surface_bundle": "called by the benchmark's workloads",
    "cohomologous": "backs README's coboundary claim",
    "boundary_matrix": "traced by name by the benchmark",
}

# public methods and properties of library classes that no library module
# reads outside the class, each with the reason it is public
UNREAD_METHODS: dict[str, str] = {}

# defaulted parameters, as "function(parameter)", that no library call
# sets, each with who sets it; a constructor is named by its class
UNSET_DEFAULTS = {
    "main(argv)": "the console script and the tests",
    "build_surface_bundle(seed)": "the benchmark's workloads",
    "subdivide(check)": "the benchmark's workloads",
}

# functions, as "module.name", that call themselves, each with the reason
# its depth is bounded; anything else walks a base or a table level by
# level, so that its depth is no limit on the size of the input
SELF_CALLING = {
    "_json._render": "its depth is the nesting depth of the documents the library writes",
}


@functools.cache
def library_modules():
    """(name, syntax tree) of every module but the package's ``__init__``,
    parsed once, so that its statements can be told apart by identity."""
    return [
        (path.stem, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    ]


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts]
    return []


def referenced_names(skip=None, attributes_only=False):
    """Names and attributes the library reads, outside the function or
    class that defines them, so a name used only inside its own definition
    counts as unused.  The top-level statement ``skip`` is not read, and
    with ``attributes_only`` a bare name is not either."""
    refs = set()
    for _, tree in library_modules():
        for stmt in tree.body:
            if stmt is skip:
                continue
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                if isinstance(node, ast.Name) and node.id != own and not attributes_only:
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    refs.add(node.attr)
    return refs


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(scbundles.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"scbundles.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], info.name


def test_every_exported_name_is_used_or_allowed():
    refs = referenced_names()
    exports = {n for _, tree in library_modules() for n in exported(tree)}
    unused = sorted(n for n in exports - refs if n not in UNREFERENCED_EXPORTS)
    assert unused == [], "exported but used nowhere in the library"
    stale = sorted(n for n in UNREFERENCED_EXPORTS if n in refs or n not in exports)
    assert stale == [], "allowed as unused but used or no longer exported"


def test_every_public_method_is_read_outside_its_class():
    # a method is read through an attribute (``x.name``), so a bare name,
    # such as a parameter of the same name, does not count; attributes are
    # matched by name alone, so a read of another class's attribute of the
    # same name counts as a read of this one
    unread = []
    for _, tree in library_modules():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            refs = referenced_names(skip=cls, attributes_only=True)
            unread.extend(
                f"{cls.name}.{node.name}"
                for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and node.name not in refs
            )
    unused = sorted(n for n in unread if n not in UNREAD_METHODS)
    assert unused == [], "public but read nowhere in the library outside its class"
    stale = sorted(n for n in UNREAD_METHODS if n not in unread)
    assert stale == [], "allowed as unread but read or gone"


def defaulted_parameters(tree):
    """(function name, parameter name, position or None for keyword-only)
    of every defaulted parameter of a top-level function or a method; a
    method's position leaves out self or cls, and ``__init__`` is named
    by its class."""
    for owner in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
        for fn in owner.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            if owner is not tree and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
            ):
                positional = positional[1:]
            name = owner.name if fn.name == "__init__" else fn.name
            first = len(positional) - len(fn.args.defaults)
            for pos, arg in enumerate(positional[first:], first):
                yield name, arg.arg, pos
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def sets_parameter(call, name, pos):
    """Whether the call may pass the parameter: by its keyword, by
    position, or through an unpacked argument."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return pos is not None and len(call.args) > pos


def test_every_defaulted_parameter_is_set_or_allowed():
    # calls are matched to functions by name alone, as methods are above
    calls = {}
    for _, tree in library_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [
        f"{fn}({param})"
        for _, tree in library_modules()
        for fn, param, pos in defaulted_parameters(tree)
        if not any(sets_parameter(call, param, pos) for call in calls.get(fn, ()))
    ]
    knobs = sorted(n for n in unset if n not in UNSET_DEFAULTS)
    assert knobs == [], "a default no library call overrides"
    stale = sorted(n for n in UNSET_DEFAULTS if n not in unset)
    assert stale == [], "allowed as unset but set by a library call or gone"


def test_no_unused_imports():
    unused = []
    for name, tree in library_modules():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(exported(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def calls_itself(fn, owner):
    """Whether fn calls itself by name: a function by its bare name, a
    method of the class ``owner`` as an attribute of self, cls or owner."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if owner is None:
            if isinstance(func, ast.Name) and func.id == fn.name:
                return True
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == fn.name
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls", owner)
        ):
            return True
    return False


def test_no_function_calls_itself_unless_allowed():
    # a nested function is checked under its own name as well; a method
    # is named by its class
    found = []
    for module, tree in library_modules():
        owners = {}
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            owners.update((id(fn), cls.name) for fn in cls.body)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = owners.get(id(fn))
                if calls_itself(fn, owner):
                    found.append(f"{module}.{owner + '.' if owner else ''}{fn.name}")
    recursive = sorted(n for n in found if n not in SELF_CALLING)
    assert recursive == [], "calls itself"
    stale = sorted(n for n in SELF_CALLING if n not in found)
    assert stale == [], "allowed to call itself but no longer does"
