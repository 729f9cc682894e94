"""Alphabets, finite words, and ultimately periodic omega-words.

Finite words are plain Python strings over an :class:`Alphabet` of
single-character symbols.  An ultimately periodic omega-word ``u v v v ...``
is represented by a canonical :class:`UPWord`; two (prefix, period) pairs
denote the same omega-word exactly when their canonical forms are equal.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator


class Alphabet:
    """Ordered alphabet of at least two distinct single-character symbols.

    The symbol order is total and fixed; it drives shortlex enumeration and
    every tie-break that involves picking a "least" word.
    """

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if len(syms) < 2:
            raise ValueError("alphabet needs at least two symbols")
        for s in syms:
            if not (isinstance(s, str) and len(s) == 1):
                raise ValueError(f"symbols must be single characters, got {s!r}")
        if len(set(syms)) != len(syms):
            raise ValueError("alphabet symbols must be distinct")
        self.symbols = syms
        self._index = {s: i for i, s in enumerate(syms)}

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self}") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"

    def check_word(self, word: str) -> str:
        for s in word:
            if s not in self._index:
                raise ValueError(f"symbol {s!r} not in alphabet {self}")
        return word

    def words_of_length(self, n: int) -> Iterator[str]:
        """All words of length ``n`` in lexicographic (symbol-order) order."""
        for tup in itertools.product(self.symbols, repeat=n):
            yield "".join(tup)

    def iter_words(self, min_len: int = 0, max_len: int | None = None) -> Iterator[str]:
        """Shortlex enumeration: by length, then lexicographically."""
        n = min_len
        while max_len is None or n <= max_len:
            yield from self.words_of_length(n)
            n += 1


def _primitive_root(word: str) -> str:
    """Shortest ``r`` with ``word == r * k``."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class UPWord:
    """Canonical ultimately periodic omega-word ``prefix . period^omega``.

    Canonical form: the period is primitive (not a proper power) and the
    prefix does not end with the period's last symbol, so no shorter pair
    denotes the same omega-word.  Construct via :func:`up_normalize`.
    """

    alphabet: Alphabet
    prefix: str
    period: str

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be non-empty")
        self.alphabet.check_word(self.prefix)
        self.alphabet.check_word(self.period)
        if _primitive_root(self.period) != self.period:
            raise ValueError(f"period {self.period!r} is not primitive")
        if self.prefix and self.prefix[-1] == self.period[-1]:
            raise ValueError(
                f"({self.prefix!r}, {self.period!r}) is not canonical; "
                "use up_normalize"
            )

    def symbol_at(self, i: int) -> str:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def unroll(self, n: int) -> str:
        """The first ``n`` symbols."""
        if n <= len(self.prefix):
            return self.prefix[:n]
        reps = (n - len(self.prefix)) // len(self.period) + 1
        return (self.prefix + self.period * reps)[:n]

    def __str__(self) -> str:
        return f"{self.prefix}({self.period})^w"


def up_normalize(alphabet: Alphabet, prefix: str, period: str) -> UPWord:
    """Canonical :class:`UPWord` for ``prefix . period^omega``.

    Two inputs denote the same omega-word iff their canonical forms are
    identical: the period is reduced to its primitive root and trailing
    symbols shared between prefix and period are rotated into the period.
    """
    if not period:
        raise ValueError("period must be non-empty")
    alphabet.check_word(prefix)
    alphabet.check_word(period)
    v = _primitive_root(period)
    u = prefix
    while u and u[-1] == v[-1]:
        u = u[:-1]
        v = v[-1] + v[:-1]
    return UPWord(alphabet, u, v)


_UP_RE = re.compile(r"(.*)\((.+)\)\^w\Z")


def split_up(text: str) -> tuple[str, str]:
    """The prefix u and period v of ``u(v)^w`` notation, not yet checked
    against any alphabet."""
    m = _UP_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse UP word {text!r}; expected u(v)^w")
    return m.group(1), m.group(2)


def parse_up(alphabet: Alphabet, text: str) -> UPWord:
    """Parse ``u(v)^w`` notation (empty prefix allowed) and normalize."""
    return up_normalize(alphabet, *split_up(text))


def up_infixes(x: UPWord, n: int) -> set[str]:
    """The set of length-``n`` infixes of the omega-word ``x``.

    Computed from the finite unrolling ``u v^k`` with
    ``k = ceil(n/|v|) + 2``; enlarging ``k`` further does not change the
    result, which the test suite checks as a stability invariant.
    """
    if n < 0:
        raise ValueError("infix length must be >= 0")
    if n == 0:
        return {""}
    k = -(-n // len(x.period)) + 2
    s = x.prefix + x.period * k
    return {s[i : i + n] for i in range(len(s) - n + 1)}


def up_non_infix_witness(x: UPWord) -> str:
    """Shortlex-least finite word that is not an infix of ``x``.

    Always exists: an ultimately periodic word has at most
    ``|prefix| + |period|`` distinct infixes of each length, while the number
    of candidate words grows as ``|alphabet|^m``.
    """
    m = 1
    while True:
        present = up_infixes(x, m)
        for w in x.alphabet.words_of_length(m):
            if w not in present:
                return w
        m += 1
