"""Finding records shared by every analysis rule.

A :class:`Finding` is one violation of one rule at one source location.
Rules are grouped into *families* (determinism, registry, purity,
hygiene — see ``docs/INVARIANTS.md`` for what each family
protects and why sketch linearity needs it).  Two families are
*zero-tolerance*: determinism and registry findings always fail
``--check`` regardless of any committed baseline, because each one is a
latent correctness bug — an unseeded RNG or a half-registered sketch
kind silently breaks the byte-identity guarantees the cross-shard and
temporal equivalence suites pin.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = [
    "FAMILIES",
    "FAMILY_DETERMINISM",
    "FAMILY_HYGIENE",
    "FAMILY_PURITY",
    "FAMILY_REGISTRY",
    "Finding",
    "ZERO_TOLERANCE_FAMILIES",
]

FAMILY_DETERMINISM = "determinism"
FAMILY_REGISTRY = "registry"
FAMILY_PURITY = "purity"
FAMILY_HYGIENE = "hygiene"

#: Every rule family, in report order.
FAMILIES = (
    FAMILY_DETERMINISM,
    FAMILY_REGISTRY,
    FAMILY_PURITY,
    FAMILY_HYGIENE,
)

#: Families whose findings always fail ``--check``, baseline or not.
ZERO_TOLERANCE_FAMILIES = frozenset({FAMILY_DETERMINISM, FAMILY_REGISTRY})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    path:
        Path relative to the analysed source root, POSIX separators
        (``"sketch/serialize.py"``); ``"<registry>"`` for findings from
        the import-and-introspect checks, which have no single source
        line.
    line:
        1-based line number (0 for introspection findings).
    rule:
        Stable rule id (``"REP-D001"``); the leading letter after
        ``REP-`` names the family.
    family:
        Rule family name (one of :data:`FAMILIES`).
    message:
        Human-readable description of the violation.
    """

    path: str
    line: int
    rule: str
    family: str
    message: str

    def to_dict(self) -> dict[str, object]:
        """JSON-able representation (``--json`` output, baselines)."""
        return asdict(self)

    def render(self) -> str:
        """One-line human rendering: ``path:line: RULE message``."""
        location = self.path if self.line == 0 else f"{self.path}:{self.line}"
        return f"{location}: {self.rule} [{self.family}] {self.message}"
