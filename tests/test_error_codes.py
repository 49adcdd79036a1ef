"""Snapshot of the stable machine-readable error-code table.

Every public exception in :mod:`repro.errors` carries a ``code`` string
that is part of the wire contract: CLI exits print ``error[CODE]:`` and
the serve API returns the code in error bodies.  The table is pinned
name for name and code for code — renaming either is a deliberate,
breaking change that must update this snapshot.
"""

from __future__ import annotations

import re

import repro
import repro.errors
from repro.cli import main
from repro.errors import ReproError, error_code_table

EXPECTED_CODE_TABLE = {
    "AdaptivityError": "ADAPTIVITY_VIOLATION",
    "EpochStoreError": "STORE_INVALID",
    "GraphError": "GRAPH_INVALID",
    "NotSupportedError": "NOT_SUPPORTED",
    "RecoveryFailed": "RECOVERY_FAILED",
    "ReproError": "REPRO_ERROR",
    "SamplerFailed": "SAMPLER_FAILED",
    "SketchCompatibilityError": "SKETCH_INCOMPATIBLE",
    "SketchFailure": "SKETCH_FAILURE",
    "StoreCorruptionError": "STORE_CORRUPT",
    "StreamError": "STREAM_INVALID",
    "WireFormatError": "WIRE_INVALID",
}


class TestCodeTable:
    def test_table_matches_snapshot(self):
        assert error_code_table() == EXPECTED_CODE_TABLE

    def test_codes_are_unique(self):
        codes = list(error_code_table().values())
        assert len(codes) == len(set(codes))

    def test_codes_are_upper_snake(self):
        for code in error_code_table().values():
            assert re.fullmatch(r"[A-Z][A-Z0-9_]*", code), code

    def test_every_public_exception_has_own_code(self):
        """Each class pins its code explicitly — no silent inheritance.

        An exception inheriting its parent's code would collapse two
        wire-distinguishable failures into one; the uniqueness test
        above catches the collision, this one names the offender.
        """
        for name in EXPECTED_CODE_TABLE:
            cls = getattr(repro.errors, name)
            assert "code" in vars(cls), f"{name} inherits its code"

    def test_instances_carry_the_class_code(self):
        err = repro.NotSupportedError("nope")
        assert err.code == "NOT_SUPPORTED"
        assert isinstance(err, ReproError)


class TestCliSurfacing:
    def test_store_error_exit_carries_code(self, tmp_path, capsys):
        # An empty directory holds no store: EpochStoreError, exit 2,
        # and the stable code in brackets so scripts can dispatch on it.
        assert main(["window-query", "--store", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error[STORE_INVALID]:" in err

    def test_non_library_errors_stay_plain(self, capsys):
        # argparse-level validation is not a ReproError; no code.
        assert main(["epochs", "--boundaries", "100,abc"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "error[" not in err
