"""Linear algebra over GF(2) for the hidden-string post-processing.

Rows are bit-packed into machine integers; column 0 is the leftmost bit of
the bitstring (the highest bit of the packed word), and elimination pivots
on the lowest column index first for reproducible bases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qstate import _bitstring


class InsufficientRankError(ValueError):
    """The equation system underdetermines the hidden string; gather more rows."""


def _pack(bits: str) -> int:
    return int(bits, 2) if bits else 0


@dataclass(frozen=True)
class BitMatrix:
    """Rows of uniform width over GF(2)."""

    width: int
    rows: tuple

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        if any(r < 0 or r >> self.width for r in rows):
            raise ValueError("row does not fit the declared width")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_strings(cls, bitstrings) -> "BitMatrix":
        bitstrings = list(bitstrings)
        if not bitstrings:
            raise ValueError("cannot infer the width of an empty matrix")
        width = len(bitstrings[0])
        if any(len(b) != width for b in bitstrings):
            raise ValueError("rows must have uniform width")
        return cls(width, tuple(_pack(b) for b in bitstrings))


def _eliminate(m: BitMatrix):
    """Row echelon form; returns (reduced rows, pivot column list)."""
    rows = list(m.rows)
    pivots = []
    r = 0
    for col in range(m.width):
        bit = 1 << (m.width - 1 - col)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(m: BitMatrix) -> int:
    """GF(2) row rank via Gaussian elimination."""
    return len(_eliminate(m)[0])


def nullspace_basis(m: BitMatrix) -> list:
    """Basis bitstrings of {s : m s = 0 over GF(2)}, one per free column."""
    reduced, pivots = _eliminate(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.width) if c not in pivot_set]
    basis = []
    for f in free:
        vec = 1 << (m.width - 1 - f)
        for row, p in zip(reduced, pivots):
            if row & (1 << (m.width - 1 - f)):
                vec |= 1 << (m.width - 1 - p)
        basis.append(_bitstring(vec, m.width))
    return basis


def simon_postprocess(equations: BitMatrix, f_probe) -> str:
    """Recover the hidden string from a rank-(n-1) homogeneous system.

    ``f_probe`` evaluates the two-to-one function on a bitstring; a single
    probe confirms the nonzero nullspace vector against f(0...0).
    """
    n = equations.width
    r = rank(equations)
    if r < n - 1:
        raise InsufficientRankError(f"rank {r} < {n - 1}; more equations needed")
    if r != n - 1:
        raise ValueError("equations are inconsistent with a nonzero hidden string")
    candidate = nullspace_basis(equations)[0]
    if f_probe(candidate) != f_probe("0" * n):
        raise ValueError("probe mismatch: the function is not two-to-one as promised")
    return candidate
