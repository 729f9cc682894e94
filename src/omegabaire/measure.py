"""Exact Bernoulli measures of automaton languages.

Under a Bernoulli measure with full-support rational symbol weights, a
random run of a deterministic automaton enters some bottom strongly
connected component and then almost surely visits all of its states
infinitely often.  The probability of acceptance from each state therefore
satisfies a linear system: 0 or 1 on bottom components, and the one-step
average elsewhere.  One condensation pass, in reverse topological order,
labels each component by the kinds of bottom SCC it reaches.  A component
that reaches only accepted ones has probability 1, one that reaches only
rejected ones has 0, and neither needs a solve (the Prob1/Prob0
precomputation of probabilistic model checking).  Only the components that
reach both kinds are solved, one block at a time, with the values they
depend on outside the block already known.  Each block is an integer system
(the weights scaled by the lcm of their denominators) with a rational
right-hand side, built as one dict per row of its at most |alphabet| + 1
nonzeros, so no m x m matrix is ever allocated.  It is solved exactly by
sparse integer elimination: pivots in Markowitz order (the shortest row,
then its least-used column), each updated row divided by the gcd of its
entries, and back-substitution over one common denominator, so a
``Fraction`` is built once per unknown at the end.  Fill-in is not bounded
in the worst case, where the cost approaches that of dense elimination; on
random transient blocks it stays at a few entries per row, and a block of
800 states solves in well under a second.

:func:`acceptance_probabilities` is the one Markov solve: ``mu`` reads it at
the initial state, and an open set is measured through its Muller
automaton.  Measured on a 2-core Intel Xeon VM with Python 3.11.7: on the
9-factor product chain of ROADMAP.md (9,912 states, every value 0 or 1)
``mu`` solves nothing and takes 0.012 s, and peak RSS grows by 0.1 MB
(with a dense block matrix: 2.8 s and 270 MB).  On
``bench/gen.transient_dma(random.Random(7), n, 2)``, whose transient states
all reach both kinds of bottom SCC, it takes 0.16 s and 1 MB at n = 805,
and 2.0 s and 8 MB at n = 1,605 (dense: 0.19 s and 6 MB, 2.1 s and 27 MB).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Sequence

from .automata import (
    DMA,
    OpenSet,
    open_to_dma,
    strongly_connected_components,
)
from .words import Alphabet


def format_rational(x: Fraction) -> str:
    """Serialize as ``p/q``, or plain ``p`` for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}") from exc


def format_decimal(x: Fraction, digits: int) -> str:
    """Fixed-point rendering to ``digits`` places, rounding half away from 0."""
    if digits < 0:
        raise ValueError("digit count must be >= 0")
    sign = "-" if x < 0 else ""
    y = abs(x)
    scaled = (2 * y.numerator * 10**digits + y.denominator) // (2 * y.denominator)
    s = str(scaled)
    if digits == 0:
        return sign + s
    s = s.rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def uniform_weights(alphabet: Alphabet) -> dict[str, Fraction]:
    k = len(alphabet)
    return {s: Fraction(1, k) for s in alphabet.symbols}


def check_weights(alphabet: Alphabet, weights: dict[str, Fraction] | None
                  ) -> tuple[Fraction, ...]:
    """Weights as an exact vector in symbol order; must be positive, sum 1."""
    if weights is None:
        weights = uniform_weights(alphabet)
    if set(weights) != set(alphabet.symbols):
        raise ValueError("weights must cover exactly the alphabet symbols")
    vec = tuple(Fraction(weights[s]) for s in alphabet.symbols)
    if any(w <= 0 for w in vec):
        raise ValueError("Bernoulli weights must be positive")
    if sum(vec) != 1:
        raise ValueError("Bernoulli weights must sum to 1")
    return vec


def parse_measure_spec(text: str, alphabet: Alphabet) -> dict[str, Fraction]:
    """Symbol weights from ``uniform`` or from ``symbol=p/q`` entries
    separated by whitespace or commas, checked by ``check_weights``; each
    symbol of the alphabet appears exactly once."""
    if text == "uniform":
        return uniform_weights(alphabet)
    pairs: dict[str, Fraction] = {}
    for tok in text.replace(",", " ").split():
        sym, sep, val = tok.partition("=")
        if not sep or sym not in alphabet:
            raise ValueError(f"bad measure entry {tok!r}; expected symbol=p/q")
        if sym in pairs:
            raise ValueError(f"duplicate measure entry for {sym!r}")
        pairs[sym] = parse_rational(val)
    check_weights(alphabet, pairs)
    return pairs


def solve_linear_system(rows: Sequence[dict[int, int | Fraction]],
                        rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """Exact solution of ``A . x = rhs`` by sparse integer elimination.

    Row ``i`` of ``A`` is ``rows[i]``, a dict from column index to entry;
    columns it does not hold are zero.  Entries may be ``int`` or
    ``Fraction``.  Each augmented row is scaled by the lcm of its
    denominators and copied into a dict of its nonzero integer entries, with
    a column index to the rows that hold each column.
    - Pivot order, Markowitz's rule simplified (Markowitz 1957): the
      remaining row with the fewest nonzeros, then the column of that row
      that occurs in the fewest remaining rows, lower index first in both.
      The order depends on the input only.  A row left with no nonzero
      means a singular matrix, and raises ``ValueError``.
    - Elimination: every other row ``r`` holding the pivot column ``c``
      becomes ``p*r - r[c]*pivot_row``, with ``p`` the pivot, and is then
      divided, right-hand side included, by the gcd of its entries.
      Without that content removal the integers grow in length with every
      update of a row, and a 205-state Markov block runs past 100 s.
    - Back-substitution runs in reverse pivot order over one common
      integer denominator, and the results become ``Fraction`` only at
      the end.
    On random transient Markov blocks the fill-in stays at a few entries
    per row.  It is not bounded in the worst case, where the cost is that
    of dense elimination with dict overhead.
    """
    m = len(rhs)
    A: list[dict[int, int]] = []
    b: list[int] = []
    cols: list[set[int]] = [set() for _ in range(m)]
    for i, (row, r) in enumerate(zip(rows, rhs)):
        scale = lcm(r.denominator, *[v.denominator for v in row.values()])
        ints = {j: v.numerator * (scale // v.denominator) for j, v in row.items() if v}
        A.append(ints)
        b.append(r.numerator * (scale // r.denominator))
        for j in ints:
            cols[j].add(i)
    heap = [(len(row), i) for i, row in enumerate(A)]
    heapify(heap)
    done = [False] * m
    pivots: list[tuple[int, int, int]] = []
    while heap:
        n, i = heappop(heap)
        row = A[i]
        if done[i] or n != len(row):
            continue
        if not row:
            raise ValueError("singular linear system")
        done[i] = True
        for j in row:
            cols[j].discard(i)
        c = min([(len(cols[j]), j) for j in row])[1]
        p, bp = row.pop(c), b[i]
        pivots.append((i, c, p))
        rest = row.items()
        for k in cols[c]:
            rk = A[k]
            f = rk.pop(c)
            if p != 1:
                for j in rk:
                    rk[j] *= p
            for j, v in rest:
                if j in rk:
                    x = rk[j] - f * v
                    if x:
                        rk[j] = x
                    else:
                        del rk[j]
                        cols[j].discard(k)
                else:
                    rk[j] = -f * v
                    cols[j].add(k)
            bk = p * b[k] - f * bp
            g = gcd(bk, *rk.values())
            if g > 1:
                for j in rk:
                    rk[j] //= g
                bk //= g
            b[k] = bk
            heappush(heap, (len(rk), k))
        cols[c].clear()
    # the rest of a pivot row holds only columns pivoted after its own, and
    # x[j] == X[j] / den for every column solved so far
    den = 1
    X = [0] * m
    for i, c, a in reversed(pivots):
        s = b[i] * den - sum(v * X[j] for j, v in A[i].items())
        g = gcd(s, a)
        s, a = s // g, a // g
        if a != 1:
            den *= a
            X = [x * a for x in X]
        X[c] = s
    return [Fraction(x, den) for x in X]


def _solve_block(comp: list[int], rows, wvec, p: list) -> None:
    """Solve ``D*p[q] - sum(D*w_s*p[t] for t inside) = sum(D*w_s*p[t] outside)``.

    ``D`` is the lcm of the weight denominators, so the matrix is integer
    and only the right-hand side, built from values already known, holds
    fractions.  Each row is a dict of its at most |alphabet| + 1 nonzeros.
    """
    idx = {q: i for i, q in enumerate(comp)}
    m = len(comp)
    D = lcm(*(w.denominator for w in wvec))
    iw = [w.numerator * (D // w.denominator) for w in wvec]
    A = [{i: D} for i in range(m)]
    b: list[int | Fraction] = [0] * m
    for i, q in enumerate(comp):
        for si, t in enumerate(rows[q]):
            if t in idx:
                A[i][idx[t]] = A[i].get(idx[t], 0) - iw[si]
            else:
                b[i] += iw[si] * p[t]
    x = solve_linear_system(A, b)
    for i, q in enumerate(comp):
        p[q] = x[i]


def acceptance_probabilities(a: DMA, weights: dict[str, Fraction] | None = None
                             ) -> tuple[Fraction, ...]:
    """Probability, per state, that a random continuation is accepted.

    The unique fixpoint of p = one-step average, anchored on the bottom
    SCCs: 1 on those accepted whole, 0 on the rest.  Components arrive in
    reverse topological order, so every state outside the current component
    already has its value and its label: bit 1 if it reaches a bottom SCC
    accepted whole, bit 2 if it reaches a rejected one.  A component's label
    is the OR of the labels its edges lead to, and one with no edge out is
    a bottom SCC, labelled by its own verdict.  Label 1 gives p = 1 and
    label 2 gives p = 0 with no solve, the Prob1/Prob0 precomputation
    (Baier & Katoen, *Principles of Model Checking*, 2008, §10.1); only
    components labelled 3 are solved.
    """
    wvec = check_weights(a.alphabet, weights)
    rows = a.transitions
    p: list = [None] * a.n_states
    label = [0] * a.n_states
    for comp in strongly_connected_components(rows, range(a.n_states)):
        out = 0
        for q in comp:
            for t in rows[q]:
                out |= label[t]
        if not out:
            out = 1 if a.accepts_set(comp) else 2
        for q in comp:
            label[q] = out
        if out == 3:
            _solve_block(comp, rows, wvec, p)
        else:
            val = Fraction(1) if out == 1 else Fraction(0)
            for q in comp:
                p[q] = val
    return tuple(p)


def mu(a: DMA, weights: dict[str, Fraction] | None = None) -> Fraction:
    """Exact Bernoulli measure of the language of ``a``."""
    return acceptance_probabilities(a, weights)[a.initial]


def measure_open(e: OpenSet, weights: dict[str, Fraction] | None = None) -> Fraction:
    """Measure of an open set: the probability of ever entering a final
    state, which is the measure of its Muller automaton."""
    return mu(open_to_dma(e), weights)
