"""Hot-path purity rules (REP-P): batched ingestion, pickling at seams only.

PR 1 made columnar ``consume_batch``/``ingest_batch`` the only
sanctioned ingestion path (25–60× over per-token loops); PR 4 made the
arena codec the only sanctioned byte format.  Code that quietly loops
``update()``/``consume()`` over individual stream tokens, or pickles
sketch state outside the process-spawn seam, re-opens exactly the
performance and compatibility holes those PRs closed.

Rules
-----
REP-P001
    A ``for``/``while`` loop over a stream-like iterable (an expression
    mentioning ``updates``/``stream``/``tokens``) whose body feeds the
    loop variable to ``.update()`` or ``.consume()`` — the per-token
    anti-pattern.  Applies to the hot-path directories (``sketch/``,
    ``core/``, ``distributed/``, ``temporal/``, ``api/``).
REP-P002
    ``pickle``/``cPickle``/``dill`` imported or used outside the
    sanctioned process-spawn seam (``distributed/coordinator.py``).
    Sketch bytes travel through the versioned codec, never through
    pickle.
REP-P003
    An element subscript of a cell-field array (``.phi``/``.iota``/
    ``.fp1``/``.fp2`` attributes, or the unambiguous bare names
    ``fp1``/``fp2``) inside a Python ``for``/``while`` loop, anywhere
    outside ``repro/kernels/``.  Per-cell Python loops are exactly what
    the kernel subsystem exists to own — vectorised call sites pass
    whole index arrays, they never walk cells one at a time.  Whole-
    array slice assignments (``bank.phi[:] = ...``) are fine.  The
    peeling decoder ``_peel`` in ``sketch/sparse_recovery.py`` is
    tolerated via the baseline ratchet (shrink-only); new per-cell
    loops are not (see ``docs/KERNELS.md``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .astutil import ImportMap, dotted_name, iter_parents, walk_with_parents
from .findings import FAMILY_PURITY, Finding

__all__ = ["HOT_PATH_DIRS", "PICKLE_SEAMS", "check_module"]

#: Directories where per-token ingestion loops are forbidden.
HOT_PATH_DIRS = ("sketch/", "core/", "distributed/", "temporal/", "api/")

#: Files allowed to touch pickle (the multiprocessing spawn seam).
PICKLE_SEAMS = ("distributed/coordinator.py",)

_PICKLE_MODULES = frozenset({"pickle", "cPickle", "dill"})

_STREAMISH_FRAGMENTS = ("stream", "updates", "tokens")

_PER_TOKEN_METHODS = frozenset({"update", "consume"})

#: The four cell-field arrays every bank/arena exposes (REP-P003).
_CELL_FIELDS = frozenset({"phi", "iota", "fp1", "fp2"})

#: Bare local names that unambiguously mean a cell array.  ``phi`` and
#: ``iota`` double as paper notation for other vectors (e.g. the
#: spanner's partition map), so only attribute access identifies them.
_CELL_NAMES = frozenset({"fp1", "fp2"})

#: The only directory allowed to loop over individual cells.
_P003_KERNEL_DIR = "kernels/"


def _is_cell_array(expr: ast.expr) -> bool:
    """Is the expression a cell-field array (``x.phi``, or bare ``fp1``)?"""
    if isinstance(expr, ast.Attribute):
        return expr.attr in _CELL_FIELDS
    return isinstance(expr, ast.Name) and expr.id in _CELL_NAMES


def _is_streamish(expr: ast.expr) -> bool:
    """Does the iterable expression look like a stream of tokens?"""
    dotted = dotted_name(expr)
    if dotted is None:
        # stream.updates()[...] , list(stream) , stream.updates() ...
        for node in ast.walk(expr):
            sub = dotted_name(node) if isinstance(node, ast.expr) else None
            if sub and any(f in sub.lower() for f in _STREAMISH_FRAGMENTS):
                return True
        return False
    return any(f in dotted.lower() for f in _STREAMISH_FRAGMENTS)


def _loop_target_names(target: ast.expr) -> frozenset[str]:
    return frozenset(
        node.id for node in ast.walk(target) if isinstance(node, ast.Name)
    )


def check_module(
    relpath: str, tree: ast.Module, imports: ImportMap
) -> Iterator[Finding]:
    """Run both purity rules over one parsed module."""
    in_hot_path = relpath.startswith(HOT_PATH_DIRS)
    pickle_allowed = relpath.startswith(PICKLE_SEAMS)
    cell_loops_allowed = relpath.startswith(_P003_KERNEL_DIR)
    p003_lines: set[int] = set()

    for node, parents in walk_with_parents(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not pickle_allowed:
            module = node.module if isinstance(node, ast.ImportFrom) else None
            names = [alias.name for alias in node.names]
            roots = (
                {(module or "").split(".")[0]}
                if isinstance(node, ast.ImportFrom)
                else {name.split(".")[0] for name in names}
            )
            if roots & _PICKLE_MODULES:
                yield Finding(
                    relpath, node.lineno, "REP-P002", FAMILY_PURITY,
                    "pickle imported outside the sanctioned process-spawn "
                    f"seam ({', '.join(PICKLE_SEAMS)}); sketch bytes travel "
                    "through the versioned codec, never pickle",
                )
        elif isinstance(node, ast.Call) and not pickle_allowed:
            resolved = imports.resolve(node.func)
            if resolved and resolved.split(".")[0] in _PICKLE_MODULES:
                yield Finding(
                    relpath, node.lineno, "REP-P002", FAMILY_PURITY,
                    f"{resolved}() called outside the sanctioned "
                    "process-spawn seam; use dump_sketch/load_sketch",
                )
        if (
            not cell_loops_allowed
            and isinstance(node, ast.Subscript)
            and _is_cell_array(node.value)
            and not isinstance(node.slice, ast.Slice)
            and node.lineno not in p003_lines
            and any(iter_parents(parents, ast.For, ast.While))
        ):
            p003_lines.add(node.lineno)
            yield Finding(
                relpath, node.lineno, "REP-P003", FAMILY_PURITY,
                "per-cell subscript of a cell-field array inside a Python "
                "loop — per-cell hot loops belong to repro/kernels/ "
                "(vectorised call sites pass whole index arrays; see "
                "docs/KERNELS.md)",
            )
        if (
            in_hot_path
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _PER_TOKEN_METHODS
        ):
            arg_names = {
                arg.id for arg in node.args if isinstance(arg, ast.Name)
            }
            if not arg_names:
                continue
            for loop in iter_parents(parents, ast.For):
                assert isinstance(loop, ast.For)
                if not _is_streamish(loop.iter):
                    continue
                if arg_names & _loop_target_names(loop.target):
                    yield Finding(
                        relpath, node.lineno, "REP-P001", FAMILY_PURITY,
                        f".{node.func.attr}() called once per stream token "
                        "inside a loop — use the columnar consume_batch/"
                        "ingest_batch path (25-60x faster, same bytes)",
                    )
                    break
