"""Exact rank computation for sparse integer matrices.

Rows are sparse mappings column -> integer; zero entries are ignored.  The
rank over the rationals goes through a fraction-free elimination: a row
reducing against a pivot is scaled by the pivot's lead and the pivot's
multiple subtracted, both multipliers divided by their gcd first and their
signs flipped so the row's multiplier is positive, which spares the scaling
pass whenever the lead is -1 or 1.  After each step the row is divided by
its content, the gcd of all its entries taken in one `math.gcd` call, so
no rounding can occur anywhere and entries stay small.  Prime mode reduces
the entries modulo the fixed prime `PRIME` and uses ordinary elimination,
each pivot kept unscaled beside the inverse of its lead.  Its working row
is reduced lazily: a pivot is applied by adding a residue multiple of it,
with no reduction, and an entry is reduced only where it is read, as the
lead or when the row becomes a pivot.  Stored pivots are residues, and
`PRIME` is below 2^30, so each is a one-digit CPython int and each product
of two residues is below 2^60.  `modp_rank` can stop as soon as a wanted
rank is out of reach.  Both kernels take rows shortest first and pivot
columns sparsest first, which limits fill-in.  Each kernel reduces a
working row in place, scaling included, a fresh dict built from the input
row, so the caller's rows are never touched.  The row's lead comes from a
heap of its columns; only fill-in columns are pushed.  In the exact kernel
a column that cancels stays in the heap and is skipped when popped; in
prime mode an entry leaves the row only as a popped lead, and one that is
0 mod p is skipped.  A row that becomes a pivot is stored as a compact
copy, in prime mode reduced and without its lead.  Rank is invariant
under transposition, so a caller may pass the columns of a tall matrix as
rows.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Dict, Iterable, List, Tuple

from .monomial import ArgumentError

SparseRow = Dict[int, int]

PRIME = 1073741789  # the largest prime below 2^30
FIELDS = ("exact", "prime")


def check_field(field: str) -> None:
    if field not in FIELDS:
        raise ArgumentError(f"unknown field {field!r} (use 'exact' or 'prime')")


def _divide_content(row: SparseRow) -> None:
    """Divide the row, in place, by the gcd of its entries."""
    common = gcd(*row.values())
    if common > 1:
        for c, v in row.items():
            row[c] = v // common


def _by_column_count(rows: List[SparseRow]) -> Dict[int, int]:
    """Map each column with a nonzero entry to its place, sparsest first.

    Columns are ordered by their count of nonzero entries, ties by index.
    The rank kernels relabel columns through this map, so the least column
    of a row, its lead, is its sparsest.
    """
    counts = Counter(c for row in rows for c, v in row.items() if v)
    return {c: k for k, c in enumerate(sorted(counts, key=lambda c: (counts[c], c)))}


def _exact_pivots(rows: Iterable[SparseRow]) -> List[int]:
    """Pivot columns of sparse integer rows over the rationals, in the order
    the fraction-free elimination finds them."""
    rows = sorted(rows, key=len)  # sparse rows first limits fill-in
    pos = _by_column_count(rows)
    pivots: Dict[int, Dict[int, int]] = {}
    leads: List[int] = []
    for raw in rows:
        row = {pos[c]: v for c, v in raw.items() if v}
        _divide_content(row)
        heap = list(row)
        heapify(heap)
        while heap:
            lead = heappop(heap)
            rl = row.get(lead)
            if rl is None:  # cancelled since it was pushed
                continue
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = dict(row)
                leads.append(lead)
                break
            pl = pivot[lead]
            g = gcd(pl, rl)
            pl, rl = pl // g, rl // g
            if pl < 0:  # flipped, a lead of -1 needs no scaling pass
                pl, rl = -pl, -rl
            if pl != 1:
                for c, v in row.items():
                    row[c] = v * pl
            for c, v in pivot.items():
                n = row.get(c)
                if n is None:
                    row[c] = -v * rl
                    heappush(heap, c)
                else:
                    n -= v * rl
                    if n:
                        row[c] = n
                    else:
                        del row[c]
            _divide_content(row)
    column_at = list(pos)  # pos lists the columns in their order
    return [column_at[lead] for lead in leads]


def exact_rank(rows: Iterable[SparseRow]) -> int:
    """Rank over the rationals of sparse integer rows."""
    return len(_exact_pivots(rows))


def modp_rank(rows: Iterable[SparseRow], at_least: int = 0) -> int:
    """Rank over the field with `PRIME` elements of integer rows.

    Once so many rows have reduced to zero that the rank can no longer reach
    `at_least`, the elimination stops and returns the rank found so far;
    that and the rank itself are then both below `at_least`.  Empty rows
    are dropped first, so the value does not depend on them.
    """
    rows = sorted((row for row in rows if any(row.values())), key=len)
    spare = len(rows) - at_least  # rows that may still reduce to zero
    pos = _by_column_count(rows)
    # A pivot is stored without its lead, beside the inverse of the lead:
    # scaling it to lead 1 would turn nearly every small entry into a
    # residue near `PRIME`.
    pivots: Dict[int, Tuple[Dict[int, int], int]] = {}
    rank = 0
    for raw in rows:
        row = {}
        for c, v in raw.items():
            n = v % PRIME
            if n:
                row[pos[c]] = n
        # The heap holds exactly the row's columns: an entry leaves the row
        # only when it is popped as the lead.
        heap = list(row)
        heapify(heap)
        while heap:
            lead = heappop(heap)
            rl = row.pop(lead) % PRIME
            if not rl:  # cancelled mod p
                continue
            found = pivots.get(lead)
            if found is None:
                rest = {}
                for c, v in row.items():
                    v %= PRIME
                    if v:
                        rest[c] = v
                pivots[lead] = (rest, pow(rl, -1, PRIME))
                rank += 1
                break
            rest, inv = found
            m = PRIME - rl * inv % PRIME  # adding m times the pivot cancels the lead
            for c, v in rest.items():
                n = row.get(c)
                if n is None:
                    row[c] = v * m
                    heappush(heap, c)
                else:
                    row[c] = n + v * m
        else:  # the row reduced to zero
            spare -= 1
            if spare < 0:
                break
    return rank


def dedupe_rows(rows: Iterable[SparseRow]) -> List[SparseRow]:
    """The rows with a nonzero entry, the same objects in the same order.

    Dropping a multiple of an earlier row never changes a rank, and the
    kernels reduce repeated rows to zero themselves, so only empty rows are
    dropped.  The name is kept because the benchmark wraps this call as its
    `linalg.dedupe` layer."""
    return [row for row in rows if any(row.values())]


def rank_of(rows: Iterable[SparseRow], field: str = "exact") -> int:
    """Drop empty rows then rank, over Q or over the field with `PRIME` elements."""
    check_field(field)
    deduped = dedupe_rows(rows)
    return modp_rank(deduped) if field == "prime" else exact_rank(deduped)
