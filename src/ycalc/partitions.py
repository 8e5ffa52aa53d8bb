"""Integer partitions and Young diagrams.

A partition is a weakly decreasing tuple of positive integers.  Rows and
columns are 1-based throughout, cell (i, j) meaning row i, column j.  The
alpha-deformed content of a cell is (j - 1) - (i - 1)/alpha, so a row
partition has contents 0, 1, ..., n-1 at every alpha.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Iterator, Sequence


class Partition:
    """Immutable integer partition."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(map(operator.index, parts))  # TypeError unless every part is an integer
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing")
        if parts and parts[-1] <= 0:
            raise ValueError("parts must be positive")
        self.parts = parts
        self._hash = hash(("Partition", parts))  # memo keys hash every lookup

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse the CLI spelling: "3,2,1"; "" and "0" denote the empty shape."""
        text = text.strip()
        if text in ("", "0"):
            return cls()
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad partition {text!r}") from exc
        return cls(parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """1-based part accessor; rows past the last are 0."""
        if i < 1:
            raise ValueError("row index is 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def cells(self) -> Iterator[tuple[int, int]]:
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = self.parts[0]
        return Partition(
            tuple(sum(1 for p in self.parts if p >= j) for j in range(1, cols + 1))
        )

    def addable_rows(self) -> tuple[int, ...]:
        """Rows where one cell can be appended and the shape stays a partition."""
        padded = self.parts + (0,)
        return (1,) + tuple(i + 2 for i in range(len(self.parts)) if padded[i] > padded[i + 1])

    def removable_rows(self) -> tuple[int, ...]:
        padded = self.parts + (0,)
        return tuple(i + 1 for i in range(len(self.parts)) if padded[i] > padded[i + 1])

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """A partition from a tuple already known to be one; no checks."""
        out = object.__new__(cls)
        out.parts = parts
        out._hash = hash(("Partition", parts))
        return out

    def add_cell(self, row: int) -> "Partition":
        padded = self.parts + (0,)
        if not 1 <= row <= len(padded) or (row > 1 and padded[row - 2] == padded[row - 1]):
            raise ValueError(f"row {row} is not addable on {self}")
        return Partition._trusted(self.parts[: row - 1] + (padded[row - 1] + 1,) + self.parts[row:])

    def remove_cell(self, row: int) -> "Partition":
        padded = self.parts + (0,)
        if not 1 <= row < len(padded) or padded[row - 1] == padded[row]:
            raise ValueError(f"row {row} is not removable on {self}")
        parts = self.parts[: row - 1] + (padded[row - 1] - 1,) + self.parts[row:]
        return Partition._trusted(parts if parts[-1] else parts[:-1])

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "Partition"):
        return (self.weight, self.parts) < (other.weight, other.parts)

    def __str__(self):
        return ",".join(map(str, self.parts)) if self.parts else "0"

    def __repr__(self):
        return f"Partition({self.parts})"


EMPTY = Partition()


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n in reverse-lexicographic order, as bare tuples."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lex, largest first part first.  The
    memo is unbounded: one key per n, so the run's largest weight bounds it."""
    return tuple(Partition(p) for p in partitions_of(n))


def partitions_upto(n: int) -> list[Partition]:
    """All partitions of weight 0..n, by weight then reverse-lex."""
    out: list[Partition] = []
    for m in range(n + 1):
        out.extend(enumerate_partitions(m))
    return out


def z_of(mu: Partition) -> int:
    """Centralizer order: product over distinct parts i of i^m_i * m_i!."""
    z = 1
    for v, m in mu.multiplicities().items():
        f = 1
        for t in range(1, m + 1):
            f *= t
        z *= v**m * f
    return z


# Bound of every memo keyed by (shape, alpha), one entry per key, evicted
# least recently used first: the integer Pieri and corner atoms and the
# moment tables.  The catalog's largest working set is about 300 moment
# tables and 270 Pieri keys; the sampler builds its integer atoms past
# the memo, so a walk over 2,000 shapes evicts nothing.
MEMO_SIZE = 1024


def check_alpha(alpha: Fraction) -> Fraction:
    """alpha as a Fraction; raises ValueError unless alpha is a finite number > 0
    (a bool is not one, though Fraction(True) is 1)."""
    if not isinstance(alpha, Fraction):
        try:
            if isinstance(alpha, bool):
                raise ValueError
            alpha = Fraction(alpha)
        except (OverflowError, ValueError):
            raise ValueError(f"alpha must be a finite rational: {alpha!r}") from None
    if alpha.numerator <= 0:
        raise ValueError("alpha must be positive")
    return alpha


def alpha_keyed_memo(fn):
    """fn(la, a, b) memoised in an lru_cache of MEMO_SIZE entries keyed by
    (la, a, b) and read as lookup(la, alpha) for the checked alpha = a/b:
    ints hash in C, a Fraction in Python, and a miss forms no Fraction.
    cache_info and cache_clear are the lru_cache's."""
    memo = lru_cache(maxsize=MEMO_SIZE)(fn)

    @wraps(fn)
    def lookup(la: Partition, alpha: Fraction):
        alpha = check_alpha(alpha)
        return memo(la, alpha.numerator, alpha.denominator)

    lookup.cache_info, lookup.cache_clear = memo.cache_info, memo.cache_clear
    return lookup


def content_numerators(la: Partition, a: int, b: int) -> tuple[int, ...]:
    """The alpha-contents (j-1) - (i-1)/alpha of la's cells, row-major,
    as their integer numerators (j-1)a - (i-1)b over a, alpha = a/b."""
    return tuple((j - 1) * a - (i - 1) * b for i, j in la.cells())
