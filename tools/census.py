"""Reachability census: what in ``src/`` does anything but a test reach?

Roots are ``repro.cli`` + ``__main__`` and the non-test files of ``benchmarks/``
and ``examples/``.  A module is reached through (absolute) imports from a root;
a name imported from a package counts for the module that defines it, so an
``__init__`` re-export reaches nothing by itself.  A top-level function, class
or method is reached when code mentions its name (identifiers as the parser
sees them: no strings, no comments, no definition names) outside its own body,
outside ``__init__`` import lines and outside every body already found dead --
iterated to a fixpoint.  Prints what is not reached; ``--check`` also exits 1.
"""

import ast
import sys
from pathlib import Path

# The only survivors, each kept whole: qualified name -> "test-seam" (tests of other
# behaviour rely on it) | "safety" | "pending: ROADMAP item N" (or "N(x)").
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


class Region:
    """A file's top level, a top-level definition or a method, and what its own code mentions."""

    def __init__(self, path, name, node, parent=None):
        self.path, self.name, self.node, self.parent = path, name, node, parent
        self.top = parent.top if parent else self
        self.is_init = path.name == "__init__.py"
        self.names, self.imports, self.inner = set(), [], []
        if parent is None or parent.parent is None and isinstance(node, ast.ClassDef):
            self.inner = [Region(path, f"{name}.{n.name}", n, self) for n in node.body
                          if isinstance(n, DEFS) and not n.name.startswith("__")]
        self.regions = [self] + [r for inner in self.inner for r in inner.regions]
        todo, skip = [node], [r.node for r in self.inner]
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self.imports.append(node)
                if self.is_init:
                    continue  # a re-export line mentions nothing
            todo += [c for c in ast.iter_child_nodes(node) if c not in skip]
            if not isinstance(node, (ast.Constant, *DEFS)):
                for _, value in ast.iter_fields(node):
                    for text in value if isinstance(value, list) else [value]:
                        self.names.update(text.split(".") if isinstance(text, str) else ())

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
            r is d or r.parent is d for r in users.get(d.node.name, ()))}
        if unused - kept == dead:
            break
        dead = unused - kept
    findings += [f"KEEP {r.name}: reached without it, drop the entry" for r in kept - unused]
    for top in modules.values():
        where = top.path.relative_to(root)
        if top not in reached:
            findings.append(f"{where}: module {top.name} has no importer but its package "
                            f"__init__ and tests ({len(top.path.read_text().splitlines())} lines)")
        for d in (r for r in top.regions if r in dead and r.parent not in dead):
            first = min([d.node.lineno] + [x.lineno for x in d.node.decorator_list])
            findings.append(f"{where}:{first}: {d.name} is reached by nothing but tests "
                            f"({d.node.end_lineno - first + 1} lines)")
    return findings


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(__doc__)
    found = census(Path(__file__).resolve().parents[1], KEEP)
    print("\n".join(found), end="\n" * bool(found))
    sys.exit(1 if found and sys.argv[1:] else 0)
