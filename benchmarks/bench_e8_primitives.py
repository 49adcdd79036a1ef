"""E8 — sketch primitives (§2.3, §3.4).

Regenerates the primitive-behaviour table (sampler uniformity and FAIL
rate, recovery boundary, hash backends) and times the primitives that
dominate every algorithm's cost: bank scatter updates, ℓ₀ sampling,
k-RECOVERY decoding, and the three hash backends (the §3.4 ablation:
oracle vs limited independence vs Nisan PRG).
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import run_table_once

from repro.hashing import HashSource, KWiseHash, NisanPRG
from repro.sketch import L0SamplerBank, SparseRecoveryBank


def test_e8_table(benchmark, seed):
    """Regenerate and print the E8 table; primitive guarantees must hold."""
    table = run_table_once(benchmark, "e8", seed)
    metrics = {(r[0], r[2]): r[3] for r in table.rows}
    assert metrics[("l0-sampler", "fail rate")] <= 0.05
    assert metrics[("k-recovery", "exact-decode rate")] >= 0.95
    assert metrics[("k-recovery", "honest-FAIL rate")] >= 0.95


def test_bench_bank_updates(benchmark, seed):
    """Scatter throughput: 10k update rows into a 64×32 sampler bank."""
    bank = L0SamplerBank(
        families=64, samplers=32, domain=100_000, source=HashSource(seed)
    )
    rng = np.random.default_rng(seed)
    fams = rng.integers(0, 64, size=10_000)
    smps = rng.integers(0, 32, size=10_000)
    items = rng.integers(0, 100_000, size=10_000)
    deltas = rng.choice([-1, 1], size=10_000)
    benchmark(bank.update, fams, smps, items, deltas)


def test_bench_l0_sample(benchmark, seed):
    bank = L0SamplerBank(
        families=1, samplers=1, domain=100_000, source=HashSource(seed)
    )
    items = np.arange(0, 100_000, 97)
    bank.update(
        np.zeros(items.size, dtype=int),
        np.zeros(items.size, dtype=int),
        items,
        np.ones(items.size, dtype=int),
    )
    benchmark(bank.sample, 0, 0)


def test_bench_sparse_recovery_decode(benchmark, seed):
    sr = SparseRecoveryBank(1, 1, 1_000_000, k=32, source=HashSource(seed))
    rng = np.random.default_rng(seed)
    items = rng.choice(1_000_000, size=32, replace=False)
    zero = np.zeros_like(items)
    sr.update(zero, zero, items, np.ones(32, dtype=int))
    benchmark(sr.decode, 0, 0)


@pytest.mark.parametrize(
    "backend",
    ["splitmix", "kwise4", "nisan"],
)
def test_bench_hash_backends(benchmark, seed, backend):
    """Hash 100k keys with each §3.4 randomness option."""
    keys = np.arange(100_000, dtype=np.int64)
    if backend == "splitmix":
        h = HashSource(seed)
    elif backend == "kwise4":
        h = KWiseHash(4, HashSource(seed))
    else:
        h = NisanPRG(24, HashSource(seed))
    benchmark(h.hash64, keys)
