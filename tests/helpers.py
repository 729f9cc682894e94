"""Shared generators and independent oracles for the test suite.

Oracles here deliberately re-derive results through different algorithms
than the library (brute-force unrolling, explicit subset enumeration,
symbol-by-symbol simulation) so that agreement is meaningful evidence.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Sequence

from omegabaire import (
    DMA,
    Alphabet,
    CounterLanguageSpec,
    InvariantError,
    OpenSet,
    Interval,
    UPWord,
    avoid_infix_dma,
    ball_open,
    complement,
    contains,
    counter_run,
    default_counter_spec,
    empty_open,
    f1_member_up,
    intersection,
    is_empty,
    open_to_dma,
    open_union,
    up_normalize,
)
from omegabaire.automata import _live_states, bsccs, nontrivial_sccs
from omegabaire.conditions import And, Atom, Bool, Cond, Not, Or
from omegabaire.measure import check_weights
from omegabaire.onecounter import DEAD, IN_V, _counter_step

AB = Alphabet("ab")
ABC = Alphabet("abc")


# ---------------------------------------------------------------------------
# named example automata over {a, b}


def dma_inf_a() -> DMA:
    """Words with infinitely many a (state 0 after a, 1 after b)."""
    return DMA.from_parts(AB, 2, 0, [[0, 1], [0, 1]], [{0}, {0, 1}])


def dma_singleton(word_symbol: str = "a") -> DMA:
    """The one-word language {s^omega}."""
    si = AB.index(word_symbol)
    rows = [[1, 1], [1, 1]]
    rows[0] = [1, 1]
    rows[0][si] = 0
    return DMA.from_parts(AB, 2, 0, rows, [{0}])


def dma_ball_a() -> DMA:
    """a . X^omega as a Muller automaton."""
    return DMA.from_parts(AB, 3, 0, [[1, 2], [1, 1], [2, 2]], [{1}])


def dma_one_b() -> DMA:
    """a* b a^omega: exactly one b overall."""
    return DMA.from_parts(AB, 3, 0, [[0, 1], [1, 2], [2, 2]], [{1}])


def dma_a_ball_or_bw() -> DMA:
    """a . X^omega united with {b^omega}."""
    rows = [[1, 2], [1, 1], [3, 2], [3, 3]]
    return DMA.from_parts(AB, 4, 0, rows, [{1}, {2}])


def dma_transient_cycle(n: int = 20) -> DMA:
    """A transient SCC of ``n`` states leaking into two sinks; the family is
    the one member {accepting sink}.

    Symbol a walks the cycle 0 -> 1 -> ... -> n-1 -> 0, so a^omega stays in
    the transient SCC forever.  Symbol b jumps inside it, except that from
    state n-1 it enters the accepting sink and from state n//2 the
    rejecting one.
    """
    accept, reject = n, n + 1
    rows = [[(q + 1) % n, (3 * q + 1) % n] for q in range(n)]
    rows[n - 1][1] = accept
    rows[n // 2][1] = reject
    rows += [[accept, accept], [reject, reject]]
    return DMA.from_parts(AB, n + 2, 0, rows, [{accept}])


def dma_transient_scc(rng: random.Random, n: int, alphabet: Alphabet = AB,
                      p_exit: float = 0.15) -> DMA:
    """One transient SCC of ``n`` states feeding three bottom components.

    Symbol 0 follows a random Hamiltonian cycle through states 0..n-1, so
    they form one SCC; every other edge stays inside it, or with
    probability ``p_exit`` leaves for a bottom.  The bottoms are an
    accepting sink ``n``, a rejecting sink ``n+1`` and a two-state cycle
    ``{n+2, n+3}`` that is rejecting because only ``{n+2}`` is in the family.
    Two fixed leaks reach both sinks, so every transient probability lies
    strictly between 0 and 1.
    """
    k = len(alphabet)
    accept, reject, b0, b1 = n, n + 1, n + 2, n + 3
    order = list(range(n))
    rng.shuffle(order)
    nxt = {order[i]: order[(i + 1) % n] for i in range(n)}
    bottoms = (accept, reject, b0)
    rows = [
        [nxt[q]] + [
            rng.choice(bottoms) if rng.random() < p_exit else rng.randrange(n)
            for _ in range(1, k)
        ]
        for q in range(n)
    ]
    leak_accept, leak_reject = rng.sample(range(n), 2)
    rows[leak_accept][k - 1] = accept
    rows[leak_reject][k - 1] = reject
    rows += [[accept] * k, [reject] * k, [b1] * k, [b0] * k]
    return DMA.from_parts(alphabet, n + 4, 0, rows, [{accept}, {b0}])


def dma_strongly_connected_16() -> DMA:
    """A strongly connected 16-state DMA with a four-member family."""
    n = 16
    rows = [[(q + 1) % n, (7 * q + 2) % n] for q in range(n)]
    return DMA.from_parts(AB, n, 0, rows,
                          [range(n), range(6), range(0, n, 2), range(3, 8)])


# ---------------------------------------------------------------------------
# random instances


def random_dma(rng: random.Random, max_states: int = 6,
               alphabets=(AB, ABC)) -> DMA:
    alphabet = rng.choice(alphabets)
    n = rng.randint(1, max_states)
    rows = [[rng.randrange(n) for _ in alphabet] for _ in range(n)]
    subsets = [
        frozenset(c)
        for r in range(1, n + 1)
        for c in combinations(range(n), r)
    ]
    keep = rng.uniform(0.15, 0.6)
    family = [s for s in subsets if rng.random() < keep]
    return DMA.from_parts(alphabet, n, 0, rows, family)


def nowhere_dense_block_dma(rng: random.Random, n: int, alphabet: Alphabet = AB) -> DMA:
    """A DMA of ``n`` states in blocks laid out as ``block_dmas`` in
    test_properties.py lays them out, whose family is exactly its non-bottom
    nontrivial SCCs: so its language is nowhere dense, and empty when every
    nontrivial SCC is a bottom one."""
    starts = [0, *sorted(rng.sample(range(4, n), rng.randint(0, 4)))]
    rows = []
    for lo, hi in zip(starts, [*starts[1:], n]):
        for q in range(lo, hi):
            rows.append([q + 1 if si == 0 and q + 1 < hi else rng.randint(lo, hi - 1)
                         for si in range(len(alphabet))])
        if 0 < lo and hi < n and rng.random() < 0.5:
            rows[hi - 1][0] = rng.randint(hi, n - 1)
    for j, lo in enumerate(starts[1:]):
        rows[j][1] = lo
    shape = DMA.from_parts(alphabet, n, 0, rows, [])
    bottoms = bsccs(shape)
    family = [C for C in nontrivial_sccs(shape) if C not in bottoms]
    return DMA.from_parts(alphabet, shape.n_states, 0, shape.transitions, family)


def random_open(rng: random.Random, alphabet: Alphabet = AB,
                max_states: int = 5) -> OpenSet:
    n = rng.randint(1, max_states)
    rows = [[rng.randrange(n) for _ in alphabet] for _ in range(n)]
    finals = [q for q in range(n) if rng.random() < 0.35]
    return OpenSet.from_parts(alphabet, n, 0, rows, finals)


def random_up(rng: random.Random, alphabet: Alphabet = AB,
              max_prefix: int = 3, max_period: int = 3) -> UPWord:
    syms = alphabet.symbols
    u = "".join(rng.choice(syms) for _ in range(rng.randint(0, max_prefix)))
    v = "".join(rng.choice(syms) for _ in range(rng.randint(1, max_period)))
    return up_normalize(alphabet, u, v)


def random_weights(rng: random.Random, alphabet: Alphabet) -> dict[str, Fraction]:
    """Random rational Bernoulli weights, strictly positive, summing to 1."""
    parts = [rng.randint(1, 9) for _ in alphabet]
    total = sum(parts)
    return {s: Fraction(p, total) for s, p in zip(alphabet.symbols, parts)}


# ---------------------------------------------------------------------------
# oracles


def gauss_jordan_oracle(matrix: list[list[Fraction]], rhs: list[Fraction]
                        ) -> list[Fraction]:
    """Gaussian elimination with partial pivoting, exact over rationals.

    The library's solver before fraction-free elimination replaced it.
    Entries must be ``Fraction``: on ``int`` rows ``v / inv`` is a float.
    """
    m = len(rhs)
    A = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(A[r][col]))
        if A[pivot][col] == 0:
            raise ValueError("singular linear system")
        A[col], A[pivot] = A[pivot], A[col]
        inv = A[col][col]
        A[col] = [v / inv for v in A[col]]
        for r in range(m):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [v - f * w for v, w in zip(A[r], A[col])]
    return [A[i][m] for i in range(m)]


def bareiss_oracle(matrix: Sequence[Sequence[int | Fraction]],
                   rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """Exact solution of ``matrix . x = rhs`` by fraction-free elimination:
    the library's dense solver before sparse elimination replaced it.

    Entries may be ``int`` or ``Fraction``.  Each augmented row is scaled by
    the lcm of its denominators, so elimination runs on integers only.
    Bareiss's update ``(p*a - c*b) // prev`` divides exactly by the previous
    pivot, which keeps every entry a minor of the scaled matrix rather than
    a product of all pivots (Bareiss 1968).  A zero pivot is swapped for the
    next row below it with a nonzero entry in its column.  With ``det`` the
    last pivot, back-substitution finds the integer Cramer numerators
    ``X[i] = det * x[i]`` with one exact division per row, and each result
    is ``Fraction(X[i], det)``.  Raises ``ValueError`` on a singular matrix.
    """
    m = len(rhs)
    A = []
    for row, b in zip(matrix, rhs):
        aug = [*row, b]
        scale = lcm(*(v.denominator for v in aug))
        A.append([v.numerator * (scale // v.denominator) for v in aug])
    prev = 1
    for k in range(m):
        if A[k][k] == 0:
            swap = next((r for r in range(k + 1, m) if A[r][k]), None)
            if swap is None:
                raise ValueError("singular linear system")
            A[k], A[swap] = A[swap], A[k]
        pivot_row = A[k]
        p = pivot_row[k]
        for i in range(k + 1, m):
            row = A[i]
            c = row[k]
            if c:
                row[k:] = [0] + [(p * a - c * b) // prev
                                 for a, b in zip(row[k + 1:], pivot_row[k + 1:])]
            else:
                row[k + 1:] = [p * a // prev for a in row[k + 1:]]
        prev = p
    det = prev
    X = [0] * m
    for i in range(m - 1, -1, -1):
        row = A[i]
        s = det * row[m] - sum(row[j] * X[j] for j in range(i + 1, m))
        X[i] = s // row[i]
    return [Fraction(x, det) for x in X]


def sparse_rows(matrix: Sequence[Sequence[int | Fraction]]
                ) -> list[dict[int, int | Fraction]]:
    """A dense matrix as the solver's rows: one dict of nonzeros per row."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def dense_matrix(rows: Sequence[dict[int, int | Fraction]]
                 ) -> list[list[int | Fraction]]:
    """The solver's square sparse rows as a dense matrix, for the oracles."""
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


def unreduced_probabilities(a: DMA, weights: dict[str, Fraction] | None = None
                            ) -> list[Fraction]:
    """Acceptance probability per state from one dense ``bareiss_oracle``
    solve over every state outside the bottom SCCs.

    Only the bottom SCCs are anchored, at 1 when accepted whole and 0
    otherwise.  No other state is preset from the graph, so a 0 or 1
    elsewhere comes out of the solve, not out of the reachability facts
    that ``acceptance_probabilities`` and ``is_meager`` read.
    """
    wvec = check_weights(a.alphabet, weights)
    p: list = [None] * a.n_states
    for C in bsccs(a):
        for q in C:
            p[q] = Fraction(int(a.accepts_set(C)))
    free = [q for q in range(a.n_states) if p[q] is None]
    idx = {q: i for i, q in enumerate(free)}
    A = [[Fraction(int(i == j)) for j in range(len(free))] for i in range(len(free))]
    b = [Fraction(0)] * len(free)
    for i, q in enumerate(free):
        for w, t in zip(wvec, a.transitions[q]):
            if t in idx:
                A[i][idx[t]] -= w
            else:
                b[i] += w * p[t]
    for q, x in zip(free, bareiss_oracle(A, b)):
        p[q] = x
    return p


def abp_finals_oracle(f: DMA) -> list[int]:
    """The finals of a synthesized witness's E by the exact linear solve:
    the states whose acceptance probability is exactly 1."""
    probs = unreduced_probabilities(f)
    return [q for q in range(f.n_states) if probs[q] == 1]


def survival_sequence_oracle(spec: CounterLanguageSpec, n: int,
                             weights: dict[str, Fraction] | None = None
                             ) -> list[Fraction]:
    """P(counter stays positive for 0..n steps), exact; decreases to the
    measure of the omega-language F2.

    The library's ``survival_sequence`` before integer counts replaced it:
    one ``Fraction`` per counter value and step.
    """
    if n < 0:
        raise ValueError("step count must be >= 0")
    wvec = check_weights(spec.alphabet, weights)
    wt = wvec[spec.alphabet.index(spec.terminal)]
    wb = wvec[spec.alphabet.index(spec.branching)]
    dist = {1: Fraction(1)}
    out = [Fraction(1)]
    for _ in range(n):
        new: dict[int, Fraction] = {}
        for c, p in dist.items():
            if c > 1:
                new[c - 1] = new.get(c - 1, Fraction(0)) + p * wt
            up = c + spec.arity - 1
            new[up] = new.get(up, Fraction(0)) + p * wb
        dist = new
        out.append(sum(dist.values(), Fraction(0)))
    return out


def member_length_counts(spec: CounterLanguageSpec, max_len: int) -> list[int]:
    """Number of members of V of each length 0..max_len, by the library's
    integer counter recursion (exact DP)."""
    alive = {1: 1}  # counter value -> number of still-positive words
    counts = [0]
    for _ in range(max_len):
        counts.append(alive.get(1, 0))
        alive = _counter_step(alive, spec.arity, 1, 1)
    return counts


def _ball_poly(k: int, t: Fraction) -> Fraction:
    return t * t * t - k * t + 1


def root_bisection_oracle(k: int, precision: int = 64) -> Interval:
    """Bracket of width <= 2^-precision around the least positive root of
    t^3 - k t + 1  (the total ball measure of V . X^omega over |X| = k).

    The library's ``min_positive_root`` before dyadic integer bisection
    replaced it: bisection with ``Fraction`` endpoints.
    """
    if k < 2:
        raise ValueError("alphabet size must be at least 2")
    if precision < 1:
        raise ValueError("precision must be positive")
    lo = Fraction(0)
    hi = Fraction(3, 4) if k == 2 else Fraction(1)
    if not _ball_poly(k, lo) > 0 > _ball_poly(k, hi):
        raise InvariantError("the ball polynomial must change sign on the bracket")
    eps = Fraction(1, 2**precision)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        v = _ball_poly(k, mid)
        if v == 0:
            raise InvariantError("the root is irrational, a rational midpoint cannot hit it")
        if v > 0:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def marked_member_balls(max_len: int) -> OpenSet:
    """The union of the balls v.c over {a, b, c} for the members v of V of
    length at most ``max_len``: an open subset of F1 that agrees with F1 on
    every short prefix."""
    spec = default_counter_spec()
    e = empty_open(ABC)
    for v in spec.alphabet.iter_words(1, max_len):
        if counter_run(spec, v).status == IN_V:
            e = open_union(e, ball_open(ABC, v + "c"))
    return e


def f1_ball_kind_oracle(e: OpenSet, w: str) -> str | None:
    """Which part of F1 delta E the ball of ``w`` lies in, or None.

    F1 is checked by counter runs on every prefix of ``w`` and by the drift
    analysis of ``f1_member_up`` on a few periodic extensions; E by product
    emptiness of the ball's automaton with E's or with its complement.
    """
    spec = default_counter_spec()
    in_f1 = any(w[j] == "c" and counter_run(spec, w[:j]).status == IN_V
                for j in range(len(w)))
    out_f1 = not in_f1 and counter_run(spec, w).status == DEAD
    for period in ("a", "b", "c", "abc"):
        member = f1_member_up(up_normalize(ABC, w, period))
        if (in_f1 and not member) or (out_f1 and member):
            return None
    ball = open_to_dma(ball_open(ABC, w))
    if in_f1 and is_empty(intersection(ball, open_to_dma(e))):
        return "ball_in_f1_not_e"
    if out_f1 and is_empty(intersection(ball, complement(open_to_dma(e)))):
        return "ball_in_e_not_f1"
    return None


def avoided_infix_oracle(a: DMA, max_len: int) -> str | None:
    """Shortlex-least word of length at most ``max_len`` that no member of
    the language contains as an infix, by one containment check per
    candidate word; None when no candidate is avoided."""
    for w in a.alphabet.iter_words(1, max_len):
        if contains(avoid_infix_dma(a.alphabet, w), a):
            return w
    return None


def shortlex_avoided_infix_oracle(a: DMA) -> str | None:
    """Shortlex-least non-empty word that no member of the language contains
    as an infix, or None if every word occurs in some member.

    As every state is reachable, w is avoided iff its image of the live
    states misses them.  A breadth-first search in symbol order over those
    images finds the least such w; it is exponential in the worst case, as
    shortest reset words are NP-hard to find (Eppstein 1990).
    """
    live = frozenset(_live_states(a))
    rows = a.transitions
    seen = {live}
    frontier = [(live, "")]
    while frontier:
        nxt = []
        for image, w in frontier:
            for si, sym in enumerate(a.alphabet.symbols):
                t = live.intersection(rows[q][si] for q in image)
                # before the seen check: the empty language starts empty
                if not t:
                    return w + sym
                if t not in seen:
                    seen.add(t)
                    nxt.append((t, w + sym))
        frontier = nxt
    return None


def up_equal_oracle(x: UPWord, y: UPWord, slack: int = 4) -> bool:
    """Do two UP words denote the same sequence?  Brute unrolling comparison."""
    horizon = len(x.prefix) + len(y.prefix) + slack * len(x.period) * len(y.period)
    return all(x.symbol_at(i) == y.symbol_at(i) for i in range(horizon))


def up_normalize_oracle(alphabet: Alphabet, u: str, v: str) -> tuple[str, str]:
    """Minimal (|v|, |u|) representation found by exhaustive comparison."""
    horizon = 2 * (len(u) + len(v)) + 8

    def symbol_at(i: int) -> str:
        if i < len(u):
            return u[i]
        return v[(i - len(u)) % len(v)]

    for plen in range(1, len(v) + 1):
        for ulen in range(0, len(u) + len(v) + 1):
            cu = "".join(symbol_at(i) for i in range(ulen))
            cv = "".join(symbol_at(ulen + i) for i in range(plen))

            def cand(i: int) -> str:
                if i < ulen:
                    return cu[i]
                return cv[(i - ulen) % plen]

            if all(cand(i) == symbol_at(i) for i in range(horizon)):
                return cu, cv
    raise AssertionError("unreachable: (u, v) represents itself")


def lasso_oracle(a: DMA, x: UPWord) -> bool:
    """UP membership by plain symbol-by-symbol simulation.

    Runs the automaton for |u| + |v|*(n+1) symbols, finds two period
    boundaries with equal state, and collects the states strictly inside
    that lap range as the infinitely-visited set.
    """
    u, v = x.prefix, x.period
    horizon = len(u) + len(v) * (a.n_states + 1)
    states = [a.initial]
    for i in range(horizon):
        states.append(a.step(states[-1], x.symbol_at(i)))
    boundaries = [states[len(u) + j * len(v)] for j in range(a.n_states + 1)]
    first = {}
    for j, q in enumerate(boundaries):
        if q in first:
            lo = len(u) + first[q] * len(v)
            hi = len(u) + j * len(v)
            seen = frozenset(states[lo + 1: hi + 1])
            return a.accepts_set(seen)
        first[q] = j
    raise AssertionError("pigeonhole: some boundary state must repeat")


def _subset_has_covering_cycle(rows, subset: frozenset[int]) -> bool:
    """Can a run stay inside `subset` forever while visiting all of it?"""
    internal = {
        q: {t for t in rows[q] if t in subset}
        for q in subset
    }
    if any(not succ for succ in internal.values()):
        return False
    for src in subset:
        seen = {src}
        frontier = [src]
        while frontier:
            q = frontier.pop()
            for t in internal[q]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        if seen != subset:
            return False
    return True


def emptiness_oracle(a: DMA) -> bool:
    """True iff the language is empty, by explicit subset enumeration."""
    reach = {a.initial}
    frontier = [a.initial]
    while frontier:
        q = frontier.pop()
        for t in a.transitions[q]:
            if t not in reach:
                reach.add(t)
                frontier.append(t)
    reachable = sorted(reach)
    for r in range(1, len(reachable) + 1):
        for c in combinations(reachable, r):
            s = frozenset(c)
            if _subset_has_covering_cycle(a.transitions, s) and a.accepts_set(s):
                return False
    return True


def _truth_value(cond: Cond, valuation: dict[Atom, bool]) -> bool:
    if isinstance(cond, Bool):
        return cond.value
    if isinstance(cond, Atom):
        return valuation[cond]
    if isinstance(cond, Not):
        return not _truth_value(cond.inner, valuation)
    if isinstance(cond, And):
        return all(_truth_value(p, valuation) for p in cond.parts)
    return any(_truth_value(p, valuation) for p in cond.parts)


def _tree_atoms(cond: Cond) -> set[Atom]:
    if isinstance(cond, Atom):
        return {cond}
    if isinstance(cond, Not):
        return _tree_atoms(cond.inner)
    if isinstance(cond, (And, Or)):
        return set().union(*map(_tree_atoms, cond.parts))
    return set()


def conditions_agree_oracle(x: Cond, y: Cond) -> bool:
    """True iff ``x`` and ``y`` agree on every row of their joint truth
    table, evaluated directly on each valuation of all their atoms."""
    atoms = list(_tree_atoms(x) | _tree_atoms(y))
    for values in product((False, True), repeat=len(atoms)):
        valuation = dict(zip(atoms, values))
        if _truth_value(x, valuation) != _truth_value(y, valuation):
            return False
    return True


def realizable_sets_oracle(a: DMA) -> list[frozenset[int]]:
    """All cycle-closed subsets of the SCCs of ``a``, by testing every subset.

    The library's enumeration before recursive SCC splitting replaced it,
    without its bound of 18 states per component.
    """
    rows = a.transitions
    out: list[frozenset[int]] = []
    for comp in nontrivial_sccs(a):
        for size in range(1, len(comp) + 1):
            for sub in combinations(comp, size):
                s = frozenset(sub)
                if _is_cycle_closed(rows, s):
                    out.append(s)
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def _is_cycle_closed(rows, states: frozenset[int]) -> bool:
    """Can some run visit exactly ``states`` forever (strongly connected,
    each state with a successor inside)?"""
    if not states:
        return False
    if len(states) == 1:
        (q,) = states
        return any(t == q for t in rows[q])
    start = min(states)
    # forward cover within states
    seen = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for t in rows[q]:
            if t in states and t not in seen:
                seen.add(t)
                stack.append(t)
    if seen != states:
        return False
    # backward cover within states
    preds: dict[int, set[int]] = {q: set() for q in states}
    for q in states:
        for t in rows[q]:
            if t in states:
                preds[t].add(q)
    seen = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for t in preds[q]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen == states


def rerooted(a: DMA, state: int) -> DMA:
    """The same automaton started from `state` (explicit family required)."""
    return DMA.from_parts(a.alphabet, a.n_states, state, a.transitions,
                          a.acceptance)


def accepting_witness_states(a: DMA, state: int) -> bool:
    """Is the language non-empty when started from `state`?"""
    from omegabaire import is_empty

    return not is_empty(rerooted(a, state))


def dma_survival_dp(a: DMA, doomed: frozenset[int], weights, n: int) -> Fraction:
    """P(run avoids `doomed` for the first n steps) by forward DP."""
    wvec = [weights[s] for s in a.alphabet.symbols]
    if a.initial in doomed:
        return Fraction(0)
    dist = {a.initial: Fraction(1)}
    for _ in range(n):
        nxt: dict[int, Fraction] = {}
        for q, p in dist.items():
            for si, t in enumerate(a.transitions[q]):
                if t not in doomed:
                    nxt[t] = nxt.get(t, Fraction(0)) + p * wvec[si]
        dist = nxt
    return sum(dist.values(), Fraction(0))
