"""Checks that read the source of src/bisim and bench/ with ast."""

import ast
import dataclasses
import importlib
from collections import Counter
from pathlib import Path

import bisim

SRC = Path(bisim.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Public functions kept although nothing in src/bisim or bench/ calls them, each with its use.
UNCALLED = {
    "bistatic_range": "scalar analytic oracle that tests check the vectorised path delays against",
    "bistatic_doppler": "scalar analytic oracle that tests check the path Dopplers against",
    "vec3": "the public 3-vector constructor for scenes built in Python, as the tests build theirs",
    "nyquist_check": "spatial-Nyquist diagnostic that the run diagnostics (ROADMAP item 2) will report",
    "geometry_condition": "GDOP diagnostic that the run diagnostics (ROADMAP item 2) will report",
}


def public_defs(tree):
    """(name, def) of each public top-level function and each public method, as Class.method."""
    for node in tree.body:
        prefix, members = (f"{node.name}.", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
        for d in members:
            if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                yield prefix + d.name, d


def references(node, kinds) -> Counter:
    """How often each identifier is read as one of the node kinds (Name, Attribute) under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, kinds))


# Reference kinds, keyed by "is a method": a function is reached by its name or as
# module.function, a method only as an attribute, so a local variable that shares a
# method's name is no reference to it.
KINDS = {False: (ast.Name, ast.Attribute), True: (ast.Attribute,)}


def test_every_public_function_has_a_caller():
    """A public function or method that only tests call is dead weight in the package:
    each needs a reference in src/bisim or bench/ outside its own body and __init__.py,
    or an entry in UNCALLED."""
    trees = {p: ast.parse(p.read_text(), str(p))
             for p in [*sorted(SRC.glob("*.py")), *sorted(BENCH.glob("*.py"))] if p != SRC / "__init__.py"}
    total = {method: sum((references(t, kinds) for t in trees.values()), Counter()) for method, kinds in KINDS.items()}
    uncalled = {name for p, t in trees.items() if p.parent == SRC for name, d in public_defs(t)
                if total["." in name][d.name] == references(d, KINDS["." in name])[d.name]}
    assert not uncalled - UNCALLED.keys(), f"no caller in src/bisim or bench/: {sorted(uncalled - UNCALLED.keys())}"
    assert not UNCALLED.keys() - uncalled, f"called now, so drop from UNCALLED: {sorted(UNCALLED.keys() - uncalled)}"


def test_one_scatterer_type():
    """ScattererStates is the one scatterer record (ROADMAP aim 2): no other class in src/bisim
    has an amplitude or amplitudes field, so no per-sample scatterer object comes back. A field is
    a class-level annotation, an attribute a method sets on self, or a field of a dataclass that
    a module makes at import (config's make_dataclass records)."""
    scalar = {"amplitude", "amplitudes"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and node.name != "ScattererStates":
                fields = {n.target.id for n in node.body
                          if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
                fields |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                           and isinstance(n.ctx, ast.Store) and getattr(n.value, "id", None) == "self"}
                if fields & scalar:
                    found.append(f"{path.name}:{node.lineno} class {node.name}")
        module = importlib.import_module("bisim" if path.stem == "__init__" else f"bisim.{path.stem}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
                    and obj.__name__ != "ScattererStates" and {f.name for f in dataclasses.fields(obj)} & scalar):
                found.append(f"{path.name} dataclass {obj.__name__}")
    assert not found, found


# Dataclass and NamedTuple fields kept although nothing reads them, each with its use.
UNREAD = {
    "DopplerCompensation.offsets_hz": "focus's per-path Doppler offsets, for Python callers",
    "StateEstimate.blind_directions": "estimate_velocity's Doppler-blind subspace, which the run diagnostics "
                                      "(ROADMAP item 2) will report",
}


def record_fields(tree):
    """Class.field of each annotated field of a dataclass or NamedTuple class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            marks = [ast.unparse(d) for d in node.decorator_list] + [ast.unparse(b) for b in node.bases]
            if any(m.startswith("dataclass") for m in marks) or "NamedTuple" in marks:
                yield from (f"{node.name}.{n.target.id}" for n in node.body
                            if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name))


def test_every_record_field_is_read():
    """A field that nothing reads is a value with no use (ROADMAP aim 2): each dataclass or
    NamedTuple field in src/bisim needs a read of its name in src/bisim or bench/, in its own
    class or outside it, as an attribute load or as a string constant (a getattr name, a config
    Key's attribute), or an entry in UNREAD."""
    read = set()
    for p in [*SRC.glob("*.py"), *BENCH.glob("*.py")]:
        read |= {n.attr if isinstance(n, ast.Attribute) else n.value for n in ast.walk(ast.parse(p.read_text()))
                 if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
                 or (isinstance(n, ast.Constant) and isinstance(n.value, str))}
    unread = {name for p in SRC.glob("*.py") for name in record_fields(ast.parse(p.read_text()))
              if name.split(".")[1] not in read}
    assert not unread - UNREAD.keys(), f"no reader in src/bisim or bench/: {sorted(unread - UNREAD.keys())}"
    assert not UNREAD.keys() - unread, f"read now, so drop from UNREAD: {sorted(UNREAD.keys() - unread)}"



# Defaults kept although no call in src/bisim or bench/ sets them, each with its use.
UNSET = {
    "ResultArchive.datasets": "filled in place by ResultArchive.add and ResultArchive.read",
    "cloud(jones)": "the Jones matrices of a polarimetric cloud, which Python callers give; the config "
                    "has no Jones key, so a cloud read from it shares one identity",
}


def defaulted(tree):
    """(callee, label, position, name) of each defaulted parameter of a public function or method
    and of each defaulted dataclass or NamedTuple field: the name a call uses for it, its label
    (function(parameter) or Class.field), its index among a call's positional values (a method's
    self not counted; None for a keyword-only parameter) and its name."""
    for label, d in public_defs(tree):
        method = "." in label and "staticmethod" not in [ast.unparse(x) for x in d.decorator_list]
        positional = [*d.args.posonlyargs, *d.args.args][1 if method else 0:]
        first = len(positional) - len(d.args.defaults)
        yield from ((d.name, f"{label}({p.arg})", i, p.arg) for i, p in enumerate(positional) if i >= first)
        yield from ((d.name, f"{label}({p.arg})", None, p.arg)
                    for p, value in zip(d.args.kwonlyargs, d.args.kw_defaults) if value is not None)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            marks = [ast.unparse(x) for x in node.decorator_list] + [ast.unparse(b) for b in node.bases]
            if any(m.startswith("dataclass") for m in marks) or "NamedTuple" in marks:
                fields = [n for n in node.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
                yield from ((node.name, f"{node.name}.{n.target.id}", i, n.target.id)
                            for i, n in enumerate(fields) if n.value is not None)


def settings(tree):
    """What the calls and stores under tree set: (callee, position) of each value a call gives by
    position, up to its first *args, and ("", name) of each keyword a call gives, of each
    attribute stored, and of each config Key's name and `to` attribute."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            callee = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", "")
            for i, arg in enumerate(n.args):
                if isinstance(arg, ast.Starred):
                    break
                yield callee, i
            yield from (("", k.arg) for k in n.keywords if k.arg)
            if callee == "Key":
                named = [*n.args[:1], *(k.value for k in n.keywords if k.arg in ("name", "to"))]
                yield from (("", c.value) for c in named if isinstance(c, ast.Constant))
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            yield "", n.attr


def test_every_default_has_a_setter():
    """A default that no call changes is a knob that nothing turns (ROADMAP aim 2): each defaulted
    parameter of a public function or method in src/bisim, and each defaulted dataclass or
    NamedTuple field there, needs a setting in src/bisim or bench/: by keyword, by position in a
    call of its function or class (matched by name), by attribute store, or as a config Key's name
    or attribute; or an entry in UNSET. The functions in UNCALLED have no call to set them."""
    src = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))]
    bench = [ast.parse(p.read_text(), str(p)) for p in sorted(BENCH.glob("*.py"))]
    given = {s for t in src + bench for s in settings(t)}
    unset = {label for t in src for callee, label, i, name in defaulted(t)
             if callee not in UNCALLED and ("", name) not in given and (callee, i) not in given}
    assert not unset - UNSET.keys(), f"no call in src/bisim or bench/ sets: {sorted(unset - UNSET.keys())}"
    assert not UNSET.keys() - unset, f"set now, so drop from UNSET: {sorted(UNSET.keys() - unset)}"
