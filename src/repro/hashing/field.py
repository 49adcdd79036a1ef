"""Prime-field arithmetic helpers for fingerprints and hash families.

All sketch fingerprints and limited-independence hash families in this
package work over the Mersenne prime field ``GF(p)`` with
``p = 2^31 - 1``.  Staying below 2^31 keeps every intermediate product
inside a 64-bit integer, which lets the hot paths run as vectorised
numpy ``int64`` arithmetic with no overflow.  Where a single 31-bit
field gives too much collision probability, callers combine **two**
independent fingerprints (different generators), squaring the error.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "MERSENNE31",
    "mod_mersenne31",
    "mulmod",
    "powmod",
    "powmod_array",
    "powmod_windowed",
    "power_table",
    "horner_mod",
]

#: The Mersenne prime 2^31 - 1 used for all vectorised field arithmetic.
MERSENNE31: int = (1 << 31) - 1


def mod_mersenne31(x: np.ndarray | int) -> np.ndarray | int:
    """Reduce ``x`` modulo ``2^31 - 1`` using the Mersenne shortcut.

    For ``x < 2^62`` two folding rounds suffice: write
    ``x = a * 2^31 + b``; then ``x ≡ a + b (mod p)``.  Works elementwise
    on numpy int64 arrays and on Python ints alike.
    """
    if isinstance(x, (int, np.integer)):
        x = (int(x) & MERSENNE31) + (int(x) >> 31)
        if x >= MERSENNE31:
            x -= MERSENNE31
        return x
    x = np.asarray(x, dtype=np.int64)
    x = (x & MERSENNE31) + (x >> 31)
    x = (x & MERSENNE31) + (x >> 31)
    return np.where(x >= MERSENNE31, x - MERSENNE31, x)


def mulmod(a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray | int:
    """Product modulo ``2^31 - 1``.

    Inputs must already be reduced (``< 2^31``) so the raw product fits
    in an int64.  Elementwise on arrays.
    """
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return int(a) * int(b) % MERSENNE31
    prod = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
    return mod_mersenne31(prod)


def powmod(base: int, exp: int) -> int:
    """Scalar ``base ** exp mod (2^31 - 1)``."""
    return pow(base % MERSENNE31, exp, MERSENNE31)


def powmod_array(base: int, exps: np.ndarray) -> np.ndarray:
    """Vectorised ``base ** exps mod (2^31 - 1)`` by binary exponentiation.

    ``exps`` is an array of non-negative int64 exponents.  Runs in
    ``O(len(exps) * log(max exp))`` field multiplications.
    """
    exps = np.asarray(exps, dtype=np.int64)
    result = np.ones_like(exps)
    b = base % MERSENNE31
    remaining = exps.copy()
    while np.any(remaining > 0):
        odd = (remaining & 1).astype(bool)
        if np.any(odd):
            result[odd] = mulmod(result[odd], b)
        remaining >>= 1
        b = int(mulmod(b, b))
    return result


#: Exponent bits per fingerprint-power window: each table holds
#: ``2^8`` int64 powers (2 KiB, cache-resident), and any non-negative
#: int64 exponent needs at most 8 windows.
_WINDOW_BITS = 8
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
#: Memo capacity in tables of 2 KiB: at most 16 MiB.  Every bank has
#: its own two generators, and the pair ranks of ``n <= 362`` nodes fit
#: in two windows, so a sketch needs four tables per bank.  Counted per
#: kind at ``n = 128``: spanning forest 4, k-edge-connectivity ``4k``,
#: mincut 1,680, simple and two-pass sparsifier 5,880 and 5,884.  The
#: capacity covers the largest of these with a mincut tenant besides.
_TABLE_MEMO_MAX = 8192


def power_table(base: int, window: int) -> np.ndarray:
    """Read-only ``T[j] = base^(j * 2^(8 * window)) mod p`` for ``j < 256``.

    Memoised per ``(base mod p, window)`` in a least-recently-used memo
    of ``_TABLE_MEMO_MAX`` tables (16 MiB).  Every bank seeded alike
    has the same generators, so sketches restored from checkpoint bytes
    reuse the tables of their predecessors instead of rebuilding them.
    A working set larger than the memo — a weighted sparsifier at
    ``n = 128`` needs 5,880 tables per weight class, and larger ``n``
    needs more banks — cycles through it and rebuilds every table it
    uses; rebuilding a generator's two tables still costs less than the
    square-and-multiply they replace (see ``docs/KERNELS.md``).
    ``functools.lru_cache`` keeps the memo coherent under concurrent
    callers (the serve drainer threads); two threads that miss on one
    key both build it, and the tables are equal.  Tables are a pure
    function of their key, not sketch state: nothing serialises them.
    """
    return _power_table(int(base) % MERSENNE31, window)


@functools.lru_cache(maxsize=_TABLE_MEMO_MAX)
def _power_table(base: int, window: int) -> np.ndarray:
    """Build one table in eight vectorised doubling steps.

    ``T[s:2s] = T[:s] * g^s`` for ``s = 1, 2, 4, ...`` with ``g`` the
    window's generator; the table is marked read-only, since every
    caller shares it.
    """
    step = pow(base, 1 << (_WINDOW_BITS * window), MERSENNE31)
    table = np.empty(1 << _WINDOW_BITS, dtype=np.int64)
    table[0] = 1
    size = 1
    for _ in range(_WINDOW_BITS):
        table[size:2 * size] = mulmod(table[:size], step)
        step = step * step % MERSENNE31
        size *= 2
    table.flags.writeable = False
    return table


def powmod_windowed(base: int, exps: np.ndarray) -> np.ndarray:
    """Vectorised ``base ** exps mod (2^31 - 1)`` by windowed table lookup.

    Byte-identical to :func:`powmod_array` for every non-negative int64
    exponent.  Writing ``e = Σ_k d_k 2^(8k)`` with 8-bit digits ``d_k``
    gives ``base^e = Π_k T_k[d_k]`` (see :func:`power_table`): one
    gather per window and one :func:`mulmod` per window after the
    first.  The window count comes from the largest exponent of the
    call, so small exponents pay for one or two windows only.
    """
    exps = np.asarray(exps, dtype=np.int64)
    if exps.size == 0:
        return np.ones(exps.shape, dtype=np.int64)
    if int(exps.min()) < 0:
        raise ValueError("powmod_windowed needs non-negative exponents")
    windows = max(1, -(-int(exps.max()).bit_length() // _WINDOW_BITS))
    result = power_table(base, 0)[exps & _WINDOW_MASK]
    for window in range(1, windows):
        digits = (exps >> (_WINDOW_BITS * window)) & _WINDOW_MASK
        result = mulmod(result, power_table(base, window)[digits])
    return result


def horner_mod(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial at many points over ``GF(2^31 - 1)``.

    ``coeffs`` are given highest-degree first.  This is the work-horse of
    the k-wise independent hash family: a random degree-(k-1) polynomial
    evaluated at the key gives a k-wise independent value.
    """
    x = mod_mersenne31(np.asarray(x, dtype=np.int64))
    acc = np.full_like(x, int(coeffs[0]) % MERSENNE31)
    for c in coeffs[1:]:
        acc = mod_mersenne31(mulmod(acc, x) + (int(c) % MERSENNE31))
    return acc

