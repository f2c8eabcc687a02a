"""Tiny exact linear algebra helpers: fraction-free elimination on integer rows."""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence


def integer_row(row: Sequence) -> list[int]:
    """``row`` (ints or Fractions) scaled by the lcm of its entries'
    denominators."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def eliminate(row: list[int], pivot: int, by: list[int]) -> list[int]:
    """``row * by[pivot] - row[pivot] * by`` divided by its content gcd: the
    combination of the two rows that is zero at ``pivot``."""
    c, a = by[pivot], row[pivot]
    out = [x * c - a * y for x, y in zip(row, by)]
    g = gcd(*out)
    if g > 1:
        out = [x // g for x in out]
    return out


def rational_rank(rows: Iterable[Sequence]) -> int:
    """Rank over the rationals: each row is cleared of denominators and
    eliminated against the (pivot, row) pairs kept so far."""
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        v = integer_row(row)
        for p, b in basis:
            if v[p]:
                v = eliminate(v, p, b)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is not None:
            basis.append((pivot, v))
    return len(basis)
