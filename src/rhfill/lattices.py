"""Exact integer-lattice arithmetic: row echelon (Hermite) forms, canonical
representatives modulo a sublattice, and elementary divisors.

Everything here is plain Python integers; matrices are lists of row lists.
Desk-scale inputs only, so no effort is spent on asymptotics beyond keeping
pivots small (smallest-absolute-value pivot rule) to avoid entry blowup.
"""
from __future__ import annotations

import math


def _check_widths(rows, width):
    for r in rows:
        if len(r) != width:
            raise ValueError("ragged matrix")


def row_hermite(rows: list[list[int]], width: int | None = None) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Echelon rows with positive pivots; entries above each pivot reduced into
    [0, pivot). The row span is preserved exactly.
    """
    if width is None:
        width = len(rows[0]) if rows else 0
    _check_widths(rows, width)
    work = [list(r) for r in rows if any(x != 0 for x in r)]
    result: list[list[int]] = []
    for col in range(width):
        while True:
            cand = [r for r in work if r[col] != 0]
            if len(cand) <= 1:
                break
            cand.sort(key=lambda r: abs(r[col]))
            head = cand[0]
            for r in cand[1:]:
                q = r[col] // head[col]
                for j in range(width):
                    r[j] -= q * head[j]
            work = [r for r in work if any(x != 0 for x in r)]
        cand = [r for r in work if r[col] != 0]
        if cand:
            head = cand[0]
            work.remove(head)
            if head[col] < 0:
                head = [-x for x in head]
            result.append(head)
    # reduce entries above each pivot into [0, pivot)
    for i in reversed(range(len(result))):
        piv_col = next(j for j, x in enumerate(result[i]) if x != 0)
        piv = result[i][piv_col]
        for k in range(i):
            q = result[k][piv_col] // piv
            if q:
                result[k] = [a - q * b for a, b in zip(result[k], result[i])]
    return result


def reduce_mod_rows(vec: list[int], hermite: list[list[int]]) -> tuple[int, ...]:
    """Canonical representative of ``vec`` modulo the row lattice.

    ``hermite`` must come from :func:`row_hermite`. Two vectors reduce to the
    same output iff they differ by a lattice element.
    """
    v = list(vec)
    for row in hermite:
        piv_col = next(j for j, x in enumerate(row) if x != 0)
        q = v[piv_col] // row[piv_col]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def elementary_divisors(rows: list[list[int]], width: int | None = None) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of the integer matrix.

    Smith-style reduction; pivot is the smallest absolute nonzero entry.
    Divisors equal to 1 are kept (they carry rank information); structural
    zeros are dropped.
    """
    if width is None:
        width = len(rows[0]) if rows else 0
    _check_widths(rows, width)
    m = [list(r) for r in rows]
    divisors: list[int] = []
    top = 0
    while top < len(m) and top < width:
        entries = [(abs(m[i][j]), i, j) for i in range(top, len(m))
                   for j in range(top, width) if m[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        while True:
            piv = m[top][top]
            dirty = False
            for i in range(top + 1, len(m)):
                q = m[i][top] // piv
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                if m[i][top] != 0:
                    m[top], m[i] = m[i], m[top]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(top + 1, width):
                q = m[top][j] // piv
                if q:
                    for row in m:
                        row[j] -= q * row[top]
                if m[top][j] != 0:
                    for row in m:
                        row[top], row[j] = row[j], row[top]
                    dirty = True
                    break
            if not dirty:
                break
        divisors.append(abs(m[top][top]))
        top += 1
    # enforce the divisibility chain d_i | d_{i+1}
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            g = math.gcd(a, b)
            if g:
                divisors[i], divisors[j] = g, a * b // g
    return [d for d in divisors if d != 0]
