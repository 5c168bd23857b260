"""Shared test helpers: naive quadratic oracles and random structures.

The naive routines here are deliberately independent of the package's
fast-transform implementations; they exist to cross-check them.
"""

from __future__ import annotations

import numpy as np

import stabkit.gf2 as gf2
from stabkit.gf2 import GF2Subspace


def naive_dyadic_convolution(values: np.ndarray) -> np.ndarray:
    """(f * f)(x) = sum_y f(y) f(x^y) by direct summation, O(N^2)."""
    values = np.asarray(values, dtype=np.float64)
    size = values.size
    out = np.empty(size)
    idx = np.arange(size, dtype=np.int32)
    for x in range(size):
        out[x] = np.dot(values[idx ^ x], values)
    return out


def gf2_rank(rows: list[int]) -> int:
    """Rank of bit-packed rows over F2."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def random_subspace(rng: np.random.Generator, n: int, dim: int) -> GF2Subspace:
    return gf2.random_subspace(n, dim, rng)


def bfs_lagrangians(n: int) -> tuple[GF2Subspace, ...]:
    """Every Lagrangian of F2^(2n), grown breadth-first from {0} and deduplicated.

    Independent of the direct (A, S) enumeration in the package: at each
    level every isotropic basis is extended by every commuting vector
    outside its span, and the canonical bases are collected in a set.
    """
    level: set[tuple[int, ...]] = {()}
    for _ in range(n):
        nxt: set[tuple[int, ...]] = set()
        for basis in level:
            for cand in range(1, 1 << (2 * n)):
                if gf2._in_span(cand, basis):
                    continue
                if any(gf2._form_bits(cand, b, n) for b in basis):
                    continue
                nxt.add(gf2._reduce_rows(basis + (cand,)))
        level = nxt
    return tuple(GF2Subspace(b, n) for b in sorted(level))
