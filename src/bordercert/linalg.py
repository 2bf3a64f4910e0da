"""Exact rank computation for sparse integer matrices.

Rows are sparse mappings column -> integer; zero entries are ignored.  The
rank over the rationals goes through a fraction-free elimination (combine
rows by cross-multiplication and strip common factors), so no rounding can
occur anywhere.  Prime mode reduces the entries modulo the fixed prime
`PRIME` and uses ordinary elimination, each pivot kept unscaled beside the
inverse of its lead; that is the only place where prime mode differs from
exact mode.  Both kernels take rows shortest first and pivot columns sparsest
first, which limits fill-in.  Rank is invariant under transposition, so a
caller may pass the columns of a tall matrix as rows.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import Dict, Iterable, List, Tuple

from .monomial import ArgumentError

SparseRow = Dict[int, int]

PRIME = 2**61 - 1
FIELDS = ("exact", "prime")


def check_field(field: str) -> None:
    if field not in FIELDS:
        raise ArgumentError(f"unknown field {field!r} (use 'exact' or 'prime')")


def _strip_content(row: SparseRow) -> SparseRow:
    common = 0
    for n in row.values():
        common = gcd(common, n)
        if common == 1:
            return row
    if common > 1:
        return {c: n // common for c, n in row.items()}
    return row


def _by_column_count(rows: List[SparseRow]) -> Dict[int, int]:
    """Map each column with a nonzero entry to its place, sparsest first.

    Columns are ordered by their count of nonzero entries, ties by index.
    The rank kernels relabel columns through this map, so `min(row)` picks
    the sparsest column of a row as its pivot.
    """
    counts = Counter(c for row in rows for c, v in row.items() if v)
    return {c: k for k, c in enumerate(sorted(counts, key=lambda c: (counts[c], c)))}


def exact_rank(rows: Iterable[SparseRow]) -> int:
    """Rank over the rationals of sparse integer rows."""
    rows = sorted(rows, key=len)  # sparse rows first limits fill-in
    pos = _by_column_count(rows)
    pivots: Dict[int, Dict[int, int]] = {}
    rank = 0
    for raw in rows:
        row = _strip_content({pos[c]: v for c, v in raw.items() if v})
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                rank += 1
                break
            pl, rl = pivot[lead], row[lead]
            g = gcd(pl, rl)
            pl, rl = pl // g, rl // g
            new = dict(row) if pl == 1 else {c: v * pl for c, v in row.items()}
            for c, v in pivot.items():
                n = new.get(c, 0) - v * rl
                if n:
                    new[c] = n
                else:
                    new.pop(c, None)
            row = _strip_content(new)
    return rank


def modp_rank(rows: Iterable[SparseRow], prime: int) -> int:
    """Rank over the field with `prime` elements of integer rows."""
    rows = sorted(rows, key=len)
    pos = _by_column_count(rows)
    # A pivot is stored as it stands, with the inverse of its lead: scaling
    # it to lead 1 would turn nearly every small entry into a residue near
    # `prime`.
    pivots: Dict[int, Tuple[Dict[int, int], int]] = {}
    rank = 0
    for raw in rows:
        row = {}
        for c, v in raw.items():
            n = v % prime
            if n:
                row[pos[c]] = n
        while row:
            lead = min(row)
            found = pivots.get(lead)
            if found is None:
                pivots[lead] = (row, pow(row[lead], -1, prime))
                rank += 1
                break
            pivot, inv = found
            rl = row[lead] * inv % prime
            new = dict(row)
            for c, v in pivot.items():
                n = (new.get(c, 0) - v * rl) % prime
                if n:
                    new[c] = n
                else:
                    new.pop(c, None)
            row = new
    return rank


def dedupe_rows(rows: Iterable[SparseRow]) -> List[SparseRow]:
    """Drop empty rows and rational multiples of an earlier row, keyed by the
    row with its content stripped and its first entry made positive.  A
    multiple over Q is a multiple mod p too, so both rank kernels take these rows."""
    seen = set()
    out: List[SparseRow] = []
    for row in rows:
        items = sorted((c, n) for c, n in _strip_content(row).items() if n)
        if not items:
            continue
        sign = 1 if items[0][1] > 0 else -1
        key = tuple((c, sign * n) for c, n in items)
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out


def rank_of(rows: Iterable[SparseRow], field: str = "exact") -> int:
    """Deduplicate then rank, over Q or over the field with `PRIME` elements."""
    check_field(field)
    deduped = dedupe_rows(rows)
    return modp_rank(deduped, PRIME) if field == "prime" else exact_rank(deduped)
