"""Fixture: a fully, structurally registered sketch class."""

from repro.sketch import ArenaBacked


class WellRegisteredSketch(ArenaBacked):
    CAPABILITIES = frozenset({"connectivity"})

    def _cell_banks(self):
        return []

    def _params(self):
        return {}
