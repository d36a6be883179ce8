"""The sketch engine imports only engine modules (Ray-free).

The engine is the sketch kernels, the sources the flagship reads, the
build/extract/broadcast stages, the checkpointed build, the flagship
pipeline and the package plumbing. Every `libfilter_ray` import in those
modules, function-local ones included, must name another engine module, so
the engine never depends on a query family (dedup, joins, rollup, ...).
The same import walk also checks that no module of the package is orphaned."""

from __future__ import annotations

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "libfilter_ray"

ENGINE = {
    "libfilter_ray", "libfilter_ray._alloc", "libfilter_ray.context",
    "libfilter_ray.sketch",
    *(f"libfilter_ray.sketch.{p.stem}" for p in (PKG / "sketch").glob("*.py")
      if p.stem != "__init__"),
    "libfilter_ray.sources", "libfilter_ray.sources.webpages",
    "libfilter_ray.sources.synth_corpus",
    "libfilter_ray.stages", "libfilter_ray.stages.extract",
    "libfilter_ray.stages.sketch_build", "libfilter_ray.stages.broadcast",
    "libfilter_ray.state", "libfilter_ray.state.checkpoint",
    "libfilter_ray.pipelines", "libfilter_ray.pipelines.flagship",
}


def module_path(name: str) -> Path | None:
    """The source file of a `libfilter_ray` module, or None if `name` is
    not a module (e.g. a function imported from one)."""
    rel = PKG.parent.joinpath(*name.split("."))
    for p in (rel.with_suffix(".py"), rel / "__init__.py"):
        if p.is_file():
            return p
    return None


def libfilter_imports(path: Path, name: str | None = None,
                      tree: ast.AST | None = None) -> set[str]:
    """Every `libfilter_ray` module the source at `path` imports, at any
    depth of the tree. `name` is the file's own module name, needed to
    resolve relative imports. `tree`, a node parsed from that file,
    limits the walk to it (one function, say)."""
    out = set()
    for node in ast.walk(tree or ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            bases = [(a.name, []) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                pkg = name if path.name == "__init__.py" \
                    else name.rpartition(".")[0]
                for _ in range(node.level - 1):
                    pkg = pkg.rpartition(".")[0]
                base = f"{pkg}.{base}" if base else pkg
            bases = [(base, [a.name for a in node.names])]
        else:
            continue
        for base, names in bases:
            if base.split(".")[0] != "libfilter_ray":
                continue
            subs = [f"{base}.{n}" for n in names]
            out.update(s if module_path(s) else base for s in subs or [base])
    return out


#: The sketch kinds the engine registers: libfilter's block, taffy and xor
#: filters, HLL, count-min, t-digest and KLL.
KINDS = ["block", "cms", "hll", "kll", "minimal_taffy_cuckoo", "static_xor",
         "taffy_block", "taffy_cuckoo", "tdigest"]


def test_registry_holds_engine_kinds_only():
    """Every registered kind is one of the engine's, and each consumes
    hashes or plain values (no other build input path exists)."""
    from libfilter_ray.sketch import registry

    assert registry.kinds() == KINDS
    inputs = {k: getattr(registry.get(k), "input", "hashes") for k in KINDS}
    assert set(inputs.values()) <= {"hashes", "values"}, inputs


def test_engine_modules_import_only_engine_modules():
    assert all(module_path(m) for m in ENGINE)
    strays = {m: sorted(libfilter_imports(module_path(m), m) - ENGINE)
              for m in sorted(ENGINE)}
    assert {m: s for m, s in strays.items() if s} == {}


def test_every_module_is_reached():
    """No orphan module: the import closure of the job CLI, the driver
    entry point (`__ray_entry__.py`) and the engine covers every module in
    the package, so a cut cannot leave a module importable but unused."""
    entry = PKG.parent / "__ray_entry__.py"
    todo = {"libfilter_ray.job", *ENGINE,
            *libfilter_imports(entry, "__ray_entry__")}
    reached: set[str] = set()
    while todo:
        m = todo.pop()
        if m in reached:
            continue
        reached.add(m)
        if "." in m:  # importing a submodule runs its package first
            todo.add(m.rpartition(".")[0])
        todo |= libfilter_imports(module_path(m), m)
    every = {".".join(p.relative_to(PKG.parent).with_suffix("").parts)
             .removesuffix(".__init__") for p in PKG.rglob("*.py")}
    assert sorted(every - reached) == []
