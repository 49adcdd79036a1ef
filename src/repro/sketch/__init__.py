"""Linear sketch primitives: 1-sparse cells, ℓ₀ samplers, k-RECOVERY.

The building blocks of Section 2.3 as numpy banks of 1-sparse cells (a
one-row bank is a single cell, sampler or recovery structure), plus the
squash encoding of Section 4.
"""

from .arena import ArenaBacked, SketchArena, ensure_arena
from .bank import CellBank, decode_cells
from .l0 import L0SamplerBank
from .serialize import (
    SketchCodec,
    dump_epoch_manifest,
    dump_l0_bank,
    dump_recovery_bank,
    dump_sketch,
    load_epoch_manifest,
    load_l0_bank,
    load_recovery_bank,
    load_sketch,
    merge_sketch_bytes,
    peek_sketch_meta,
    register_sketch_codec,
    serializable_sketch_kinds,
    sketch_kind_of,
    subtract_sketch_bytes,
)
from .sparse_recovery import SparseRecoveryBank, bucket_count_for
from .squash import (
    is_valid_encoding,
    pair_position_in_subset,
    pair_positions_k3,
    rows_for_order,
    squash_matrix,
    unsquash_value,
)

__all__ = [
    "ArenaBacked",
    "CellBank",
    "SketchArena",
    "ensure_arena",
    "L0SamplerBank",
    "SparseRecoveryBank",
    "SketchCodec",
    "bucket_count_for",
    "decode_cells",
    "dump_epoch_manifest",
    "dump_l0_bank",
    "dump_recovery_bank",
    "dump_sketch",
    "load_epoch_manifest",
    "load_l0_bank",
    "load_recovery_bank",
    "load_sketch",
    "merge_sketch_bytes",
    "subtract_sketch_bytes",
    "peek_sketch_meta",
    "register_sketch_codec",
    "serializable_sketch_kinds",
    "sketch_kind_of",
    "is_valid_encoding",
    "pair_position_in_subset",
    "pair_positions_k3",
    "rows_for_order",
    "squash_matrix",
    "unsquash_value",
]
