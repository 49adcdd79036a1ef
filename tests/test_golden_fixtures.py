"""Golden-fixture regression tests for persisted checkpoint manifests.

``tests/fixtures/*_v2.manifest`` are epoch manifests in codec v2, the
frozen golden format (n=10 Erdős–Rényi churn workload, 3 epochs; seeds
recorded below).  Today's code must keep *loading* them and keep giving
the *same answers* — the compatibility promise for sketches persisted
by a long-running service.  A codec change that cannot read these
bytes, or reads them into different cell arrays, fails here instead of
silently corrupting stored checkpoints.

``*_v1.manifest`` hold the same checkpoints in the retired npz codec
(v1).  They stay committed as refusal inputs: every reader must reject
them with :class:`ValueError` (``tests/test_manifest_corruption.py``).

If the format ever changes intentionally, add a new fixture version
(``*_v3.manifest``) and a migration path — do not regenerate these.
"""

from __future__ import annotations

import functools
import pathlib

import pytest

from repro.api import (
    ConnectivityQuery,
    GraphSketchEngine,
    MinCutQuery,
    SketchSpec,
    build_sketch,
)
from repro.sketch import dump_sketch, peek_sketch_meta
from repro.temporal import EpochTimeline, materialise_window

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: Workload the fixtures were sealed from (for regeneration reference).
FIXTURE_N = 10
FIXTURE_TOKENS = 62
FOREST_SEED = 424242
MINCUT_SEED = 515151


def _engine(name: str) -> GraphSketchEngine:
    """A temporal engine restored from a committed manifest fixture."""
    return GraphSketchEngine.restore((FIXTURES / f"{name}.manifest").read_bytes())


@pytest.fixture(scope="module")
def forest_timeline() -> EpochTimeline:
    data = (FIXTURES / "forest_epochs_v2.manifest").read_bytes()
    return EpochTimeline.from_bytes(data)


@pytest.fixture(scope="module")
def mincut_timeline() -> EpochTimeline:
    data = (FIXTURES / "mincut_epochs_v2.manifest").read_bytes()
    return EpochTimeline.from_bytes(data)


class TestForestFixture:
    def test_loads_with_expected_shape(self, forest_timeline):
        assert forest_timeline.n == FIXTURE_N
        assert forest_timeline.epochs == 3
        assert forest_timeline.boundaries[-1] == FIXTURE_TOKENS
        assert forest_timeline.sketch_kind == "sketch:spanning_forest"
        meta = peek_sketch_meta(forest_timeline.checkpoint(1).payload)
        assert meta["seed"] == FOREST_SEED
        assert meta["epoch"] == {
            "epoch": 1, "tokens": 20, "cumulative_tokens": 20,
        }

    def test_connectivity_answers_unchanged(self):
        engine = _engine("forest_epochs_v2")
        for t in (1, 2, 3):
            answer = engine.query(ConnectivityQuery(u=0, v=1, window=(0, t)))
            assert answer.components == 1, f"prefix [0,{t}) changed"
            assert answer.forest_edges == 9
        window = engine.query(ConnectivityQuery(window=(1, 3)))
        assert (window.kind, window.components, window.forest_edges) == (
            "spanning_forest", 7, 3,
        )
        assert engine.query(
            ConnectivityQuery(u=0, v=1, window=(0, 3))
        ).same_component

    def test_checkpoints_stay_subtractable_and_mergeable(self, forest_timeline):
        """Persisted checkpoints keep behaving like live sketches."""
        window = materialise_window(forest_timeline, 1, 3)
        window.merge(materialise_window(forest_timeline, 0, 1))
        assert dump_sketch(window) == dump_sketch(
            materialise_window(forest_timeline, 0, 3)
        )

    def test_fresh_twin_is_byte_compatible(self, forest_timeline):
        """An empty identically-seeded sketch still merges with fixtures."""
        from repro.sketch import load_sketch

        twin = functools.partial(
            build_sketch,
            SketchSpec.of("spanning_forest", FIXTURE_N, seed=FOREST_SEED),
        )()
        restored = load_sketch(
            forest_timeline.checkpoint(3).payload, like=twin
        )
        twin.merge(restored)  # no SketchCompatibilityError
        assert dump_sketch(twin) == dump_sketch(restored)


class TestMinCutFixture:
    def test_loads_with_expected_shape(self, mincut_timeline):
        assert mincut_timeline.n == FIXTURE_N
        assert mincut_timeline.epochs == 3
        assert mincut_timeline.sketch_kind == "sketch:mincut"
        assert peek_sketch_meta(
            mincut_timeline.checkpoint(2).payload
        )["seed"] == MINCUT_SEED

    def test_mincut_answers_unchanged(self):
        engine = _engine("mincut_epochs_v2")
        expected = {1: 1.0, 2: 2.0, 3: 3.0}
        for t, value in expected.items():
            answer = engine.query(MinCutQuery(window=(0, t)))
            assert answer.value == value, f"prefix [0,{t}) changed"
            assert answer.stop_level == 0

    def test_like_verification_against_wrong_seed(self, mincut_timeline):
        from repro.errors import SketchCompatibilityError
        from repro.sketch import load_sketch

        stranger = functools.partial(
            build_sketch,
            SketchSpec.of("mincut", FIXTURE_N, seed=MINCUT_SEED + 1, c_k=0.3),
        )()
        with pytest.raises(SketchCompatibilityError):
            load_sketch(mincut_timeline.checkpoint(1).payload, like=stranger)
