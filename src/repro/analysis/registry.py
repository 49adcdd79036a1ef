"""Registry completeness rules (REP-R): no half-registered sketch kinds.

Adding a sketch kind touches two places: the class itself — its
``CAPABILITIES`` declaration and the ``_cell_banks()`` and
``_params()`` hooks that the arena, the sketch algebra and the codec
read — and one ``SketchCodec(kind=..., cls=...)`` registration in
``core/codecs.py`` for the serialisation codec registry
(``sketch/serialize.py``).  The codec rebuilds the class through its
own constructor, and the capability registry in
``api/capabilities.py`` is built from the codec registry for the
built-in kinds.  Miss a piece and the failure is a *runtime* surprise
— a kind that shards but cannot snapshot, or answers queries locally
but explodes under ``merge_sketch_bytes``.  These rules turn each gap
into a lint failure.

Two halves:

* **AST** (:func:`check_module`) — structural checks that need no
  imports: every class subclassing ``ArenaBacked`` must define
  ``_cell_banks`` and ``_params`` in its own body (REP-R004), and
  ``CAPABILITIES`` declarations must be literal ``frozenset({...})`` of
  string constants so the import-time vocabulary check cannot be
  bypassed (REP-R005).
* **Introspection** (:func:`check_registries`) — imports the live
  package and cross-checks the codec registry against the capability
  registry: every codec kind must declare a non-empty ``CAPABILITIES``
  (REP-R001), override ``_cell_banks`` (REP-R002), and be reachable
  from ``api/capabilities.py`` under the same kind name and class —
  and vice versa for serialisable capability entries (REP-R003).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .astutil import ImportMap
from .findings import FAMILY_REGISTRY, Finding

__all__ = ["check_module", "check_registries"]

#: Path findings from the live-registry cross-check are attributed to.
_REGISTRY_PATH = "<registry>"


# -- AST half ------------------------------------------------------------------


def _is_frozenset_of_strings(node: ast.expr) -> bool:
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "frozenset"
    ):
        return False
    if not node.args:
        return not node.keywords  # frozenset() — empty is structurally fine
    if len(node.args) != 1 or node.keywords:
        return False
    arg = node.args[0]
    if not isinstance(arg, (ast.Set, ast.List, ast.Tuple)):
        return False
    return all(
        isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        for elt in arg.elts
    )


def check_module(
    relpath: str, tree: ast.Module, imports: ImportMap
) -> Iterator[Finding]:
    """AST-side registry checks for one module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        base_names = {imports.resolve(base) or "" for base in node.bases}
        is_arena_backed = any(
            name == "ArenaBacked" or name.endswith(".ArenaBacked")
            for name in base_names
        )
        defined = {
            stmt.name for stmt in node.body
            if isinstance(stmt, ast.FunctionDef)
        }
        missing = [
            f"{hook}()" for hook in ("_cell_banks", "_params")
            if hook not in defined
        ]
        if is_arena_backed and missing:
            yield Finding(
                relpath, node.lineno, "REP-R004", FAMILY_REGISTRY,
                f"class {node.name} subclasses ArenaBacked but does not "
                f"define {' or '.join(missing)}; the arena cannot adopt "
                "its state or merge, subtract and codec v2 cannot check "
                "its parameters, and they fail at runtime",
            )
        for stmt in node.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not any(
                isinstance(t, ast.Name) and t.id == "CAPABILITIES"
                for t in targets
            ):
                continue
            if not _is_frozenset_of_strings(value):
                yield Finding(
                    relpath, stmt.lineno, "REP-R005", FAMILY_REGISTRY,
                    f"class {node.name} declares CAPABILITIES as something "
                    "other than a literal frozenset of capability-name "
                    "strings; the registry's import-time vocabulary check "
                    "needs the literal form",
                )


# -- introspection half --------------------------------------------------------


def check_registries() -> list[Finding]:
    """Cross-check the live codec and capability registries.

    Imports :mod:`repro` — run this against the installed/source tree
    being analysed, not against fixtures.  Every finding names the kind
    and the missing registration site.
    """
    from ..api.capabilities import capability_entry, registered_kinds
    from ..errors import NotSupportedError
    from ..sketch.arena import ArenaBacked
    from ..sketch.serialize import serializable_sketch_kinds, sketch_codec

    findings: list[Finding] = []
    codec_kinds = serializable_sketch_kinds()
    for kind in codec_kinds:
        cls = sketch_codec(kind).cls
        declared = cls.__dict__.get("CAPABILITIES")
        if declared is None or not frozenset(declared):
            findings.append(Finding(
                _REGISTRY_PATH, 0, "REP-R001", FAMILY_REGISTRY,
                f"codec kind {kind!r} ({cls.__name__}) does not declare a "
                "non-empty CAPABILITIES frozenset on the class itself — "
                "the engine would register it with no answerable queries",
            ))
        cell_banks = getattr(cls, "_cell_banks", None)
        if cell_banks is None or cell_banks is ArenaBacked._cell_banks:
            findings.append(Finding(
                _REGISTRY_PATH, 0, "REP-R002", FAMILY_REGISTRY,
                f"codec kind {kind!r} ({cls.__name__}) does not override "
                "_cell_banks(); its arena cannot be adopted and codec v2 "
                "payloads cannot be folded into it",
            ))
        try:
            entry = capability_entry(kind)
        except NotSupportedError:
            findings.append(Finding(
                _REGISTRY_PATH, 0, "REP-R003", FAMILY_REGISTRY,
                f"codec kind {kind!r} is serialisable but unreachable from "
                "api/capabilities.py — register a CapabilityEntry so the "
                "engine can build and query it",
            ))
        else:
            if entry.cls is not cls:
                findings.append(Finding(
                    _REGISTRY_PATH, 0, "REP-R003", FAMILY_REGISTRY,
                    f"kind {kind!r} maps to {cls.__name__} in the codec "
                    f"registry but {entry.cls.__name__} in the capability "
                    "registry — the two registries disagree",
                ))
            elif not entry.serialisable:
                findings.append(Finding(
                    _REGISTRY_PATH, 0, "REP-R003", FAMILY_REGISTRY,
                    f"kind {kind!r} has a codec but its capability entry "
                    "says serialisable=False — snapshots and sharding "
                    "would be refused despite working",
                ))
    codec_kind_set = frozenset(codec_kinds)
    for kind in registered_kinds():
        entry = capability_entry(kind)
        if entry.serialisable and kind not in codec_kind_set:
            findings.append(Finding(
                _REGISTRY_PATH, 0, "REP-R003", FAMILY_REGISTRY,
                f"capability kind {kind!r} claims serialisable=True but "
                "has no codec in sketch/serialize.py — snapshot(), "
                "sharding, and epochs would fail at runtime",
            ))
    return findings
