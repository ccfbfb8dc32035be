#!/usr/bin/env python
"""Layering lint: no module may import from a layer above its own.

The package is a DAG of layers (see ``docs/INTERNALS.md``, "Runtime
pipeline"):

    foundation (core.config / core.metrics / core.resultcache)
      -> memory / network
        -> native (C replay kernel: build layer + ctypes driver)
          -> sim
            -> apps
              -> runtime
                -> core (sweep machinery: executor, study, ...)
                  -> service (the sweep daemon)
                    -> analysis
                      -> cli

An import is *upward* — and a violation — when the imported module's
layer rank is greater than the importer's.  Ranks are assigned by the
longest dotted-prefix match against ``RANKS``, so the three foundation
modules inside ``repro.core`` rank below the rest of that package.

Every import statement counts, including deferred (function-body)
imports: deferring breaks Python's import-time cycles but not the
architecture — a lower layer reaching up is a violation wherever the
statement sits.

Usage::

    python tools/check_layering.py src

Exits 0 when clean, 1 with one ``importer (rank a) imports imported
(rank b)`` line per violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: dotted-prefix -> layer rank; longest matching prefix wins.  Keep in
#: sync with the DAG in docs/INTERNALS.md.
RANKS: dict[str, int] = {
    "repro._version": 0,
    "repro.core.config": 0,
    "repro.core.metrics": 0,
    "repro.core.resultcache": 0,
    "repro.memory": 1,
    "repro.network": 1,
    "repro.native": 2,  # C replay kernel; sim.nativereplay sits above it
    "repro.sim": 3,
    "repro.apps": 4,
    "repro.runtime": 5,
    "repro.core": 6,
    "repro.service": 7,
    "repro.analysis": 8,
    "repro.cli": 9,
    "repro": 10,  # the package facade re-exports everything below it
}


def rank_of(module: str) -> int | None:
    """Layer rank of a dotted module name (None = not a repro module)."""
    best_len = -1
    best_rank = None
    for prefix, rank in RANKS.items():
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > best_len:
                best_len = len(prefix)
                best_rank = rank
    return best_rank


def module_name(path: Path, src_root: Path) -> str:
    """Dotted module name of a source file under ``src_root``."""
    rel = path.relative_to(src_root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def resolve_relative(importer: str, is_package: bool, level: int,
                     target: str | None) -> str:
    """Absolute dotted name of a ``from ...X import Y`` statement."""
    parts = importer.split(".")
    # the package context: a module resolves relative to its parent
    # package, a package (__init__) relative to itself
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


def imported_modules(tree: ast.AST, importer: str,
                     is_package: bool) -> list[str]:
    """Every repro-package module imported anywhere in ``tree``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                out.append(resolve_relative(importer, is_package,
                                            node.level, node.module))
            elif node.module:
                out.append(node.module)
    return [m for m in out if rank_of(m) is not None]


def check(src_root: Path) -> list[str]:
    """All upward-import violations under ``src_root`` (empty = clean)."""
    violations = []
    for path in sorted(src_root.rglob("*.py")):
        importer = module_name(path, src_root)
        importer_rank = rank_of(importer)
        if importer_rank is None:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        is_package = path.name == "__init__.py"
        for imported in imported_modules(tree, importer, is_package):
            imported_rank = rank_of(imported)
            if imported_rank is not None and imported_rank > importer_rank:
                violations.append(
                    f"{importer} (rank {importer_rank}) imports "
                    f"{imported} (rank {imported_rank})")
    return violations


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src_root = Path(argv[0] if argv else "src")
    if not src_root.is_dir():
        print(f"check_layering: source root {src_root} not found",
              file=sys.stderr)
        return 2
    violations = check(src_root)
    if violations:
        print(f"{len(violations)} layering violation(s):", file=sys.stderr)
        for line in violations:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"layering OK under {src_root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
