"""Reachability census: what in ``src/`` does anything but a test reach or set?

Roots are ``repro.cli`` + ``__main__`` and the non-test files of ``benchmarks/``
and ``examples/``.  A module is reached through (absolute) imports from a root;
a name imported from a package counts for the module that defines it, so an
``__init__`` re-export reaches nothing by itself.  A top-level function, class,
method or module-level ALL_CAPS constant is reached when code mentions its name
(identifiers as the parser sees them: no strings, no comments, no definition
names) outside its own body, outside ``__init__`` import lines and outside every
body already found dead -- iterated to a fixpoint.

A defaulted parameter of a live function or method (``__init__`` included) is
reported when no call in ``src/``, ``benchmarks/``, ``examples/`` or ``tools/``
sets it: by keyword, or by passing that many positional arguments.  Passing the
default is not setting: a literal argument equal to the parameter's literal
default sets nothing (a literal comparison, not a type check).  A test is
not a caller, with one exception: a call in ``tests/`` sets a parameter whose
name is in ``SEAMS`` (a clock, a random source, an output stream, an id, a path
or an injected collaborator; never a choice of behaviour).  The parameters of a
``KEEP`` entry, and of its methods, are kept with it.  Calls match by name,
type-blind: ``C(...)`` and ``super().__init__(...)`` in a subclass of ``C`` call
``C.__init__`` (as does a call of any subclass of ``C``, or ``cls(...)`` in
``C``), a callable passed as a call's first argument is called with the rest
(``partial(f, ...)``, ``benchmark(f, ...)``), a lookup call ``X[key](...)`` or
``X.get(key)(...)`` (or of a name assigned such a lookup) calls every value
put in ``X`` -- by a dict display assigned to ``X``, ``X[key] = value`` or
``X.setdefault(key, value)`` --, a call with ``*args`` or ``**kwargs`` sets every
parameter, and a parameter set on one def of a name is set on every def of that
name.

Prints what is not reached or set; ``--check`` also exits 1.
"""

import ast
import re
import sys
from pathlib import Path

# The only survivors, each kept whole (its parameters and methods too): qualified name ->
# "test-seam" (tests of other behaviour rely on it) | "safety" | "pending: ROADMAP item N" (or "N(x)").
KEEP = {
    "repro.faults.retry.VirtualClock": "test-seam",
    "repro.faults.retry.RetryPolicy.delays": "test-seam",
    "repro.obs.sinks.InMemorySink": "test-seam",
    "repro.obs.tracing.Tracer.find": "test-seam",
    "repro.parallel.stats.FeatureStats.from_array": "test-seam",
    "repro.parallel.reducers.execute_schedule": "test-seam",
    "repro.core.plan.StagePlan.index_of": "test-seam",
    "repro.io.grib.packing_error_bound": "test-seam",
    "repro.governance.enclave.SecureEnclave.revoke": "safety",
    "repro.governance.enclave.SecureEnclave.is_authorized": "safety",
    "repro.provenance.store.ProvenanceStore.verify_chain": "safety",
    "repro.io.stream.ShardStreamer": "pending: ROADMAP item 1(e)",
}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
CALLERS = ("src", "benchmarks", "examples", "tools")
# The parameters a test may set on its own: each names a clock, a random source, an
# output stream, an id, a path or an injected collaborator, never a choice of behaviour.
SEAMS = frozenset({"clock", "perf", "rng", "seed", "stream", "trace_id", "path",
                   "tracer", "audit", "provenance_store"})


def constant(node):
    """The ALL_CAPS name a module-level assignment binds, or None."""
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    name = targets[0].id if len(targets) == 1 and isinstance(targets[0], ast.Name) else ""
    return name if CONSTANT.fullmatch(name) else None


class Region:
    """A file's top level, a top-level definition, method or constant, and what its code mentions."""

    def __init__(self, path, name, node, parent=None, key=None):
        self.path, self.name, self.node, self.parent = path, name, node, parent
        self.key = key or getattr(node, "name", None)
        self.top = parent.top if parent else self
        self.is_init = path.name == "__init__.py"
        self.names, self.imports, self.inner = set(), [], []
        if parent is None or parent.parent is None and isinstance(node, ast.ClassDef):
            self.inner = [Region(path, f"{name}.{n.name}", n, self) for n in node.body
                          if isinstance(n, DEFS) and not n.name.startswith("__")]
        if parent is None:
            self.inner += [Region(path, f"{name}.{key}", n, self, key) for n in node.body
                           for key in [constant(n)] if key]
        self.regions = [self] + [r for inner in self.inner for r in inner.regions]
        todo, skip = [node], {id(r.node) for r in self.inner}
        while todo:  # ast.walk without its per-node generators, minus the inner regions
            node = todo.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self.imports.append(node)
                if self.is_init:
                    continue  # a re-export line mentions nothing
            named = not isinstance(node, (ast.Constant, *DEFS))
            for field in node._fields:
                value = getattr(node, field, None)
                for item in value if isinstance(value, list) else [value]:
                    if isinstance(item, ast.AST):
                        todo += [item] if id(item) not in skip else []
                    elif named and isinstance(item, str):
                        self.names.update(item.split("."))

    def live(self, dead):
        return self not in dead and (self.parent is None or self.parent.live(dead))


def load(root):
    """``(file regions of src/ by dotted module name, root file regions)`` of the tree at *root*."""
    modules = {}
    for path in sorted((root / "src").rglob("*.py")):
        parts = path.relative_to(root / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        modules[module] = Region(path, module, ast.parse(path.read_text()))
    scripts = [p for d in ("benchmarks", "examples") for p in sorted((root / d).rglob("*.py"))
               if "tests" not in p.parts and not p.name.startswith(("test_", "conftest"))]
    entry = [modules[m] for m in ("repro.cli", "repro.__main__") if m in modules]
    return modules, entry + [Region(p, p.stem, ast.parse(p.read_text())) for p in scripts]


def defining(module, name, modules):
    """The module that defines *name* as imported from *module*, re-exports followed."""
    if f"{module}.{name}" in modules:
        return f"{module}.{name}"
    for node in modules[module].imports if module in modules else ():
        for alias in node.names:
            if isinstance(node, ast.ImportFrom) and name == (alias.asname or alias.name):
                return defining(node.module, alias.name, modules)
    return module


def reach(roots, modules, dead):
    """The files some root imports, transitively, from code that is not dead."""
    seen, todo = set(), list(roots)
    while todo:
        top = todo.pop()
        if top in seen:
            continue
        seen.add(top)
        live = [r for r in top.regions if r.live(dead)]
        mentioned = set().union(*(r.names for r in live))
        for node in (n for r in live for n in r.imports):
            for alias in node.names:
                if top.is_init and (alias.asname or alias.name) not in mentioned:
                    continue  # a re-export: it counts where a reached module imports it from here
                target = alias.name
                if isinstance(node, ast.ImportFrom):
                    target = defining(node.module, alias.name, modules)
                while target:  # importing a.b.c runs a and a.b too
                    todo += [modules[target]] if target in modules else []
                    target = target.rpartition(".")[0]
    return seen


def tail(node):
    """The name a call of *node* goes by: ``f`` for ``f`` and ``a.b.f``, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def literal(node):
    """``(type, value)`` of a literal argument or default, else None."""
    return (type(node.value), node.value) if isinstance(node, ast.Constant) else None


def defaults(args):
    """``(parameter, default)`` for each defaulted parameter of *args*."""
    positional = args.posonlyargs + args.args
    return [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
            *((k, d) for k, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)]


def table(node):
    """``X`` for a lookup ``X[key]`` or ``X.get(key)``, else None."""
    if isinstance(node, ast.Subscript):
        return tail(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return tail(node.func.value) if node.func.attr == "get" else None
    return None


def calls(trees):
    """Every call in *trees* (``(tree, from a test)`` pairs) as ``name -> [(positional
    literals, keyword -> literal, starred, from a test)]`` (a literal is None for any other
    argument), and the base names of every class.

    A call of a table lookup (``X[key](...)``, ``X.get(key)(...)``, or a name assigned one)
    calls every value put in ``X``: by a dict display, ``X[key] = v`` or ``X.setdefault(key, v)``.
    """
    found, bases, tables, lookups, through, by_name = {}, {}, {}, {}, {}, {}
    for tree, test in trees:
        classes, todo = [], [tree]
        while todo:  # ast.walk, without its per-node generators and Load/Store leaves
            node = todo.pop()
            for field in node._fields:
                value = getattr(node, field, None)
                if type(value) is list:
                    todo += [v for v in value if isinstance(v, ast.AST)]
                elif isinstance(value, ast.AST) and not isinstance(value, ast.expr_context):
                    todo.append(value)
            kind = type(node)
            if kind is ast.ClassDef:
                bases.setdefault(node.name, set()).update(map(tail, node.bases))
                classes.append(node)
            elif kind in (ast.Assign, ast.AnnAssign):
                target = node.targets[0] if kind is ast.Assign else node.target
                if isinstance(target, ast.Subscript):  # X[key] = v
                    tables.setdefault(tail(target.value), set()).add(tail(node.value))
                elif isinstance(node.value, ast.Dict):
                    tables.setdefault(tail(target), set()).update(map(tail, node.value.values))
                elif table(node.value):
                    lookups.setdefault(tail(target), set()).add(table(node.value))
            if kind is not ast.Call:
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Attribute) and func.attr == "setdefault" and len(args) == 2:
                tables.setdefault(tail(func.value), set()).add(tail(args[1]))
            names = {tail(func)}
            if tail(func) == "__init__":  # Base.__init__(self, ...) or super().__init__(...)
                owner = func.value
                names = {tail(owner.func if isinstance(owner, ast.Call) else owner)}
            if names & {"cls", "super"}:
                owner = [c for c in classes if c.lineno <= node.lineno <= c.end_lineno][-1:]
                names = {tail(b) for c in owner for b in c.bases} if "super" in names else {
                    c.name for c in owner}
            starred = any(isinstance(a, ast.Starred) for a in args) or any(
                k.arg is None for k in node.keywords)
            made = (tuple(map(literal, args)),
                    {k.arg: literal(k.value) for k in node.keywords if k.arg}, starred, test)
            for name in names:
                found.setdefault(name, []).append(made)
            if args and isinstance(args[0], (ast.Name, ast.Attribute)):
                # a callable handed on, as to partial(f, ...) or benchmark(f, ...), may
                # be called with the rest of the arguments
                found.setdefault(tail(args[0]), []).append((made[0][1:], *made[1:]))
            if table(func):
                through.setdefault(table(func), []).append(made)
            else:
                by_name.setdefault(tail(func), []).append(made)
    for name, named in lookups.items():  # cls = X[key]; ... cls(...)
        for looked_up in named:
            through.setdefault(looked_up, []).extend(by_name.get(name, ()))
    for name, made in through.items():
        for value in tables.get(name, ()):
            found.setdefault(value, []).extend(made)
    return found, bases


def unset_parameters(trees, live):
    """``(region, parameter name, line)`` for each defaulted parameter no call in *trees*
    sets, a call from a test counting only for a name in ``SEAMS`` and a literal equal to
    the parameter's literal default setting nothing."""
    found, bases = calls(trees)
    subclasses = {}
    for name, named in bases.items():
        for base in named:
            subclasses.setdefault(base, set()).add(name)
    fns = []  # (region, def, names its calls go by, whether the first parameter is bound)
    for region in live:
        node = region.node
        if isinstance(node, ast.ClassDef):
            heirs, todo = set(), [node.name]  # the class and its subclasses, transitively
            while todo:
                heir = todo.pop()
                heirs.add(heir)
                todo += subclasses.get(heir, set()) - heirs
            init = [n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
            fns += [(region, init[0], heirs, True)] if init else []
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound = isinstance(region.parent.node, ast.ClassDef) and "staticmethod" not in {
                tail(d) for d in node.decorator_list}
            fns.append((region, node, {node.name}, bound))
    named, set_by = {}, {}
    for fn in fns:
        for name in fn[2]:
            named.setdefault(name, []).append(fn)
    for name, defs in named.items():
        done = set_by.setdefault(name, set())
        for literals, keywords, starred, test in found.get(name, ()):
            for _, node, _, bound in defs:
                every = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                positional = (node.args.posonlyargs + node.args.args)[int(bound):]
                passed = {a.arg: value for a, value in zip(positional, literals)}
                passed.update(keywords)
                same = {p.arg for p, d in defaults(node.args)
                        if literal(d) is not None and passed.get(p.arg) == literal(d)}
                hit = {a.arg for a in every} if starred else set(passed) - same
                done |= hit & SEAMS if test else hit
    unset = []
    for region, node, names, _ in fns:
        done = set().union(*(set_by[n] for n in names))
        unset += [(region, p.arg, p.lineno) for p, _ in defaults(node.args) if p.arg not in done]
    return unset


def census(root, keep):
    """One finding per line for the tree under *root*; empty when all is reached or kept."""
    modules, roots = load(root)
    defs = [r for top in modules.values() for r in top.regions[1:]]
    kept = {r for r in defs if r.name in keep}
    found = {r.name for r in kept}
    findings = [f"KEEP {q}: no such definition" for q in keep if q not in found]
    roots += [r.top for r in kept]
    dead = set()
    while True:
        reached = reach(roots, modules, dead)
        users = {}
        for region in (r for top in reached for r in top.regions if r.live(dead)):
            for name in region.names:
                users.setdefault(name, []).append(region)
        unused = {d for d in defs if d.top in reached and d.parent not in kept and all(
            r is d or r.parent is d for r in users.get(d.key, ()))}
        if unused - kept == dead:
            break
        dead = unused - kept
    findings += [f"KEEP {r.name}: reached without it, drop the entry" for r in kept - unused]
    live = [d for d in defs if d.top in reached and d.live(dead)]
    unset = {}
    trees = [(top.node, False) for top in modules.values()] + [
        (ast.parse(p.read_text()), d == "tests")
        for d in (*CALLERS[1:], "tests") for p in sorted((root / d).rglob("*.py"))]
    whole = [d for d in live if d not in kept and d.parent not in kept]
    for region, name, line in unset_parameters(trees, whole):
        unset.setdefault(region.top, []).append((line, f"{region.name}: parameter {name} is set "
                                                 "by no call"))
    for top in modules.values():
        where = top.path.relative_to(root)
        if top not in reached:
            findings.append(f"{where}: module {top.name} has no importer but its package "
                            f"__init__ and tests ({len(top.path.read_text().splitlines())} lines)")
        for d in (r for r in top.regions if r in dead and r.parent not in dead):
            first = min([d.node.lineno] + [x.lineno for x in getattr(d.node, "decorator_list", [])])
            findings.append(f"{where}:{first}: {d.name} is reached by nothing but tests "
                            f"({d.node.end_lineno - first + 1} lines)")
        findings += [f"{where}:{line}: {text}" for line, text in sorted(unset.get(top, []))]
    return findings


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(__doc__)
    found = census(Path(__file__).resolve().parents[1], KEEP)
    print("\n".join(found), end="\n" * bool(found))
    sys.exit(1 if found and sys.argv[1:] else 0)
