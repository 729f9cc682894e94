"""Deterministic Muller automata over omega-words and their algebra.

The main type is :class:`DMA`: a complete deterministic automaton whose run
on an omega-word is accepting iff the set of states visited infinitely often
satisfies the acceptance condition.  User-facing automata carry an explicit
family of state sets; automata derived by boolean combinations, closure and
interior carry a structured condition instead (see ``conditions``), which
keeps products of products tractable.  The explicit family of a derived
automaton can still be materialized on demand: the cycle-closed subsets of
each SCC are listed by recursive SCC splitting, at O(n^2 |alphabet|) work
per listed set, up to 2^18 - 1 sets per component.

:class:`OpenSet` represents an open subset ``W . X^omega`` of the Cantor
space of omega-words as a DFA with absorbing final states.

One iterative Tarjan, :func:`strongly_connected_components`, serves every
graph question: emptiness, closure, interior, density, family
materialization, and the bottom components behind measure, category and
witness synthesis.
It runs directly on the subgraph induced on a region of states.  Each
:class:`DMA` computes its nontrivial SCCs, the accepting set of each SCC
under its own condition and its live states at most once and caches them.
An automaton builds its complement once and keeps it: ``complement`` is an
involution on objects, and the two share their SCCs, since the transitions
are the same, while each searches them under its own condition.  The
states from which some word is rejected, behind the interior, are the live
states of the complement, so repeated interiors search nothing.  A product
that collapses onto an operand, with the operand's states in the operand's
numbering and a condition that agrees with the operand's under every truth
valuation of the atoms, is that operand: containment of a product chain in
one of its factors, or of a factor in the chain, reads the chain's cached
searches instead of repeating them.
Derived automata share their source's transition table wherever the rows
do not change: the complement always, the closure and the prefix DFA when
every state is live, and the interior in every row but its finals'.  The
validating constructors keep tuple rows, and renumbering that finds the
states already in canonical order keeps the table.  Sharing is safe
because rows are tuples, which are immutable; rows given as lists are
copied, so a caller who mutates its lists later changes no automaton.  A
witness's period is built from two breadth-first trees inside its
accepting set, in time linear in the set and the period.

State ids are always normalized to breadth-first shortlex order from the
initial state (which therefore is state 0), and unreachable states are
pruned on construction; serialization of equal automata is thus identical.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Sequence

from .conditions import (
    FALSE,
    TRUE,
    Atom,
    Bool,
    Cond,
    assign,
    atoms_of,
    c_and,
    c_not,
    c_or,
    evaluate,
    family_atom,
    hits_atom,
    remap,
)
from .words import Alphabet, UPWord, up_normalize

# Bound on the cycle-closed subsets of one component that family
# materialization lists, each at a cost of O(n^2 |alphabet|).  2^18 - 1 is the
# number of non-empty subsets of an 18-state component, the largest component
# an earlier subset enumeration accepted, so every such input still passes.
# Emptiness search has no bound.
_MATERIALIZE_LIMIT = 2**18 - 1


class FamilyTooLargeError(ValueError):
    """Raised when an explicit acceptance family would be astronomically big."""


class InvariantError(RuntimeError):
    """A computed result failed the self-check it must pass to be returned.

    Raised by explicit checks rather than ``assert``, so that it also fires
    under ``python -O``.
    """


# ---------------------------------------------------------------------------
# graphs


def strongly_connected_components(rows: Sequence[Sequence[int]],
                                  region: Collection[int]) -> list[list[int]]:
    """Tarjan's algorithm, iterative, on the subgraph induced on ``region``.

    Edges leaving ``region`` are ignored; pass ``range(len(rows))`` for the
    whole graph.  Components are sorted lists and come in emission order,
    which is reverse topological: each one follows every component it
    reaches.
    """
    # Unvisited states have index -1.  A state whose component has been
    # emitted gets index ``done``, above every low-link, so edges into
    # finished components never lower one.
    done = len(rows)
    index = [-1] * done
    low = [-1] * done
    count = 0
    stack: list[int] = []
    comps: list[list[int]] = []
    for root in region:
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(rows[root]))]
        while work:
            q, edges = work[-1]
            for t in edges:
                if t not in region:
                    continue
                it = index[t]
                if it < 0:
                    index[t] = low[t] = count
                    count += 1
                    stack.append(t)
                    work.append((t, iter(rows[t])))
                    break
                if it < low[q]:
                    low[q] = it
            else:
                work.pop()
                lq = low[q]
                if lq == index[q]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == q:
                            break
                    comp.sort()
                    comps.append(comp)
                elif lq < low[work[-1][0]]:
                    low[work[-1][0]] = lq
    return comps


def _induced_sccs(rows: Sequence[Sequence[int]], region: Collection[int]) -> list[frozenset[int]]:
    """SCCs of the subgraph induced on ``region`` that hold a cycle (more
    than one state, or a self-loop), least state first."""
    comps = [c for c in strongly_connected_components(rows, region)
             if len(c) > 1 or c[0] in rows[c[0]]]
    comps.sort()
    return [frozenset(c) for c in comps]


# ---------------------------------------------------------------------------
# word DFAs and open sets


class Dfa:
    """Complete deterministic automaton on finite words."""

    __slots__ = ("alphabet", "n_states", "initial", "transitions", "finals")

    def __init__(self, alphabet: Alphabet, n_states: int, initial: int,
                 transitions: tuple[tuple[int, ...], ...], finals: frozenset[int]):
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = initial
        self.transitions = transitions
        self.finals = finals

    def step(self, state: int, symbol: str) -> int:
        return self.transitions[state][self.alphabet.index(symbol)]

    def run(self, word: str, state: int | None = None) -> int:
        q = self.initial if state is None else state
        for s in word:
            q = self.step(q, s)
        return q

    def accepts(self, word: str) -> bool:
        return self.run(word) in self.finals


def _check_rows(alphabet: Alphabet, n_states: int, rows) -> tuple[tuple[int, ...], ...]:
    """The validated rows as a tuple of tuples.

    Tuple rows are kept, not copied, and so is a tuple of them: tuples are
    immutable, so the automaton can share them with its caller.  Rows of any
    other type are copied, so a caller who later mutates them cannot change
    the automaton.  A state id is an ``int`` in range; a ``bool`` or a float
    that equals one is rejected, because a kept row would carry it unchanged
    into the automaton and its serialization.
    """
    k = len(alphabet)
    if len(rows) != n_states:
        raise ValueError(f"expected {n_states} transition rows, got {len(rows)}")
    shared = type(rows) is tuple
    out = []
    for q, row in enumerate(rows):
        if type(row) is not tuple:
            row = tuple(row)
            shared = False
        if len(row) != k:
            raise ValueError(f"state {q} must have one transition per symbol")
        for si, t in enumerate(row):
            if type(t) is not int or not 0 <= t < n_states:
                raise ValueError(
                    f"transition {q} --{alphabet.symbols[si]}--> {t!r} is not a state "
                    f"in 0..{n_states - 1}"
                )
        out.append(row)
    return rows if shared else tuple(out)


def _rows_from_mapping(alphabet: Alphabet, n_states: int, trans) -> Sequence[Sequence[int]]:
    """Accept either row form or a {(state, symbol): state} mapping."""
    if not isinstance(trans, dict):
        return trans if type(trans) is tuple else list(trans)
    rows = [[None] * len(alphabet) for _ in range(n_states)]
    for (q, sym), t in trans.items():
        if type(q) is not int or not 0 <= q < n_states:
            raise ValueError(
                f"transition from {q!r} on {sym!r}: not a state in 0..{n_states - 1}"
            )
        rows[q][alphabet.index(sym)] = t
    for q, row in enumerate(rows):
        for si, t in enumerate(row):
            if t is None:
                raise ValueError(
                    f"missing transition from state {q} on {alphabet.symbols[si]!r}"
                )
    return rows


def _bfs_renumber(rows, initial: int) -> tuple[dict[int, int], tuple[tuple[int, ...], ...]]:
    """Reachable states renumbered in breadth-first shortlex order.

    Returns the map from old to new ids, whose keys come in the new order,
    and the renumbered transition rows, which must be tuples.  When the
    order is already 0, 1, 2, ... the rows are returned as they are, and a
    tuple of them is returned itself if nothing was pruned.
    """
    renum = {initial: 0}
    order = [initial]
    i = 0
    while i < len(order):
        for t in rows[order[i]]:
            if t not in renum:
                renum[t] = len(order)
                order.append(t)
        i += 1
    if all(old == new for new, old in enumerate(order)):
        if len(order) == len(rows) and type(rows) is tuple:
            return renum, rows
        return renum, tuple(rows[:len(order)])
    return renum, tuple(tuple(renum[t] for t in rows[old]) for old in order)


class OpenSet(Dfa):
    """Open set ``W . X^omega`` as a DFA with absorbing final states.

    Construction canonicalizes: outgoing transitions of final states are
    redirected to self-loops, then unreachable states are pruned and the
    rest renumbered breadth-first.
    """

    @classmethod
    def from_parts(cls, alphabet: Alphabet, n_states: int, initial: int,
                   transitions, finals: Iterable[int]) -> "OpenSet":
        if type(initial) is not int or not 0 <= initial < n_states:
            raise ValueError(f"initial state {initial!r} out of range")
        rows = _rows_from_mapping(alphabet, n_states, transitions)
        rows = _check_rows(alphabet, n_states, rows)
        fin = frozenset(finals)
        for q in fin:
            if type(q) is not int or not 0 <= q < n_states:
                raise ValueError(f"final state {q!r} out of range")
        k = len(alphabet)
        rows = tuple((q,) * k if q in fin else rows[q] for q in range(n_states))
        renum, new_rows = _bfs_renumber(rows, initial)
        new_fin = frozenset(renum[q] for q in fin if q in renum)
        return cls(alphabet, len(new_rows), 0, new_rows, new_fin)

    def is_empty(self) -> bool:
        return not self.finals


def empty_open(alphabet: Alphabet) -> OpenSet:
    return OpenSet.from_parts(alphabet, 1, 0, [[0] * len(alphabet)], [])


def full_open(alphabet: Alphabet) -> OpenSet:
    return OpenSet.from_parts(alphabet, 1, 0, [[0] * len(alphabet)], [0])


def ball_open(alphabet: Alphabet, word: str) -> OpenSet:
    """The basic open ball ``word . X^omega``."""
    alphabet.check_word(word)
    L = len(word)
    k = len(alphabet)
    final, dead = L, L + 1
    rows = []
    for i in range(L):
        rows.append([i + 1 if alphabet.symbols[si] == word[i] else dead for si in range(k)])
    rows.append([final] * k)
    rows.append([dead] * k)
    return OpenSet.from_parts(alphabet, L + 2, 0, rows, [final])


def _reachable_product(a: Dfa | DMA, b: Dfa | DMA
                       ) -> tuple[list[tuple[int, int]], tuple[tuple[int, ...], ...]]:
    """The pairs of states reachable in the synchronous product, numbered
    breadth-first in symbol order from the pair of initial states, and the
    product's transition rows over those numbers."""
    pairs = {(a.initial, b.initial): 0}
    order = [(a.initial, b.initial)]
    rows = []
    i = 0
    while i < len(order):
        qa, qb = order[i]
        row = []
        for t in zip(a.transitions[qa], b.transitions[qb]):
            if t not in pairs:
                pairs[t] = len(order)
                order.append(t)
            row.append(pairs[t])
        rows.append(tuple(row))
        i += 1
    return order, tuple(rows)


def open_union(e1: OpenSet, e2: OpenSet) -> OpenSet:
    """Union of two open sets (product DFA, then absorbing canonical form)."""
    if e1.alphabet != e2.alphabet:
        raise ValueError("alphabet mismatch")
    order, rows = _reachable_product(e1, e2)
    finals = [j for j, (q1, q2) in enumerate(order) if q1 in e1.finals or q2 in e2.finals]
    return OpenSet.from_parts(e1.alphabet, len(order), 0, rows, finals)


# ---------------------------------------------------------------------------
# deterministic Muller automata


class DMA:
    """Deterministic automaton accepting by the set of states seen infinitely often.

    :meth:`from_parts` is the validating constructor, for input from outside
    the program; the plain constructor trusts the rows that the library
    builds itself.  Instances are treated as immutable, so each one caches
    what it learns about its graph: the explicit family, the nontrivial SCCs
    (which depend only on the transitions), the accepting set found in each
    of them so far and the live states (which depend on the condition too),
    and its complement, once built.
    """

    __slots__ = ("alphabet", "n_states", "initial", "transitions", "cond",
                 "_family", "_sccs", "_accepting", "_live", "_complement")

    def __init__(self, alphabet: Alphabet, n_states: int, initial: int,
                 transitions: tuple[tuple[int, ...], ...], cond: Cond,
                 family: tuple[frozenset[int], ...] | None = None):
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = initial
        self.transitions = transitions
        self.cond = cond
        self._family = family
        # Kept as sorted tuples, which take less memory than frozensets.
        self._sccs: tuple[tuple[int, ...], ...] | None = None
        # The search result for ``cond`` in each SCC, in nontrivial_sccs
        # order and as sorted tuples too, filled only as far as some query
        # has needed.
        self._accepting: list[tuple[int, ...] | None] | None = None
        self._live: tuple[int, ...] | None = None
        self._complement: DMA | None = None

    @classmethod
    def from_parts(cls, alphabet: Alphabet, n_states: int, initial: int,
                   transitions, acceptance: Iterable[Iterable[int]]) -> "DMA":
        """Build from an explicit acceptance family.

        Unreachable states are pruned and ids renumbered breadth-first in
        symbol order; family members mentioning pruned states are dropped,
        the empty set is dropped, duplicates are merged.
        """
        if n_states < 1:
            raise ValueError("automaton needs at least one state")
        if type(initial) is not int or not 0 <= initial < n_states:
            raise ValueError(f"initial state {initial!r} out of range")
        rows = _rows_from_mapping(alphabet, n_states, transitions)
        rows = _check_rows(alphabet, n_states, rows)
        members = []
        for t in acceptance:
            member = frozenset(t)
            for q in member:
                if type(q) is not int or not 0 <= q < n_states:
                    raise ValueError(f"acceptance set state {q!r} out of range")
            members.append(member)
        renum, new_rows = _bfs_renumber(rows, initial)
        # with the identity numbering the caller's members are kept, not copied
        moved = any(old != new for new, old in enumerate(renum))
        fam = {
            frozenset(renum[q] for q in member) if moved else member
            for member in members
            if member and all(q in renum for q in member)
        }
        family = tuple(sorted(fam, key=lambda s: (len(s), sorted(s))))
        n = len(new_rows)
        return cls(alphabet, n, 0, new_rows, family_atom(n, family), family)

    # -- evaluation

    def step(self, state: int, symbol: str) -> int:
        return self.transitions[state][self.alphabet.index(symbol)]

    def run_word(self, state: int, word: str) -> int:
        for s in word:
            state = self.transitions[state][self.alphabet.index(s)]
        return state

    def accepts_set(self, states: Iterable[int]) -> bool:
        """Would a run visiting exactly ``states`` infinitely often accept?"""
        return evaluate(self.cond, frozenset(states))

    @property
    def acceptance(self) -> tuple[frozenset[int], ...]:
        """Explicit acceptance family.

        For derived automata this lists every set realizable as the
        infinitely-visited set of some run and keeps the accepted ones; the
        result denotes the same language.  The work is O(n^2 |alphabet|)
        per realizable set.  Raises :class:`FamilyTooLargeError` when one
        SCC holds more than 2^18 - 1 realizable sets.
        """
        if self._family is None:
            fam = tuple(
                frozenset(s) for s in _realizable_sets(self) if evaluate(self.cond, s)
            )
            self._family = fam
        return self._family

    def __repr__(self) -> str:
        return (
            f"DMA(alphabet={''.join(self.alphabet.symbols)!r}, "
            f"states={self.n_states})"
        )


def nontrivial_sccs(a: DMA) -> list[frozenset[int]]:
    """The SCCs of ``a`` that hold a cycle, least state first.

    Computed once per automaton and its complement, and cached on both.
    """
    if a._sccs is None:
        a._sccs = tuple(tuple(sorted(C)) for C in
                        _induced_sccs(a.transitions, range(a.n_states)))
        if a._complement is not None:
            a._complement._sccs = a._sccs
    return [frozenset(C) for C in a._sccs]


def bsccs(a: DMA) -> list[frozenset[int]]:
    """Bottom strongly connected components, least state first.

    Every state is reachable by construction; a random full-support run ends
    up inside one of these and almost surely visits all of it forever, so
    meagerness, nowhere density and almost-sure acceptance are decided on
    them without a solve.  In a complete automaton every state has a
    successor, so a bottom component holds a cycle and is among the cached
    :func:`nontrivial_sccs`.
    """
    rows = a.transitions
    return [C for C in nontrivial_sccs(a)
            if all(t in C for q in C for t in rows[q])]


def _realizable_sets(a: DMA) -> list[tuple[int, ...]]:
    """All candidate infinitely-visited sets: cycle-closed subsets of SCCs,
    as sorted tuples (which take less memory than frozensets), smallest
    first.

    Splits each SCC ``S`` recursively: after reporting ``S``, the i-th state
    ``q`` of ``S`` outside ``kept`` in sorted order spawns the SCCs of
    ``S - {q}`` that contain ``kept``, and then joins ``kept``.  A
    cycle-closed ``D`` inside ``S`` other than ``S`` is strongly connected,
    so it lies in one such SCC, and the branch taken is the one for the
    least state missing from ``D`` that is not kept.  So every set is
    reached along exactly one branch, each at a cost of at most ``|S|``
    Tarjan runs.
    """
    rows = a.transitions
    out: list[tuple[int, ...]] = []
    for comp in nontrivial_sccs(a):
        count = 0
        work: list[tuple[frozenset[int], frozenset[int]]] = [(comp, frozenset())]
        while work:
            S, kept = work.pop()
            count += 1
            if count > _MATERIALIZE_LIMIT:
                raise FamilyTooLargeError(
                    f"cannot materialize acceptance family: a strongly connected "
                    f"component of {len(comp)} states has more than "
                    f"{_MATERIALIZE_LIMIT} cycle-closed subsets"
                )
            out.append(tuple(sorted(S)))
            for q in sorted(S - kept):
                for T in _induced_sccs(rows, S - {q}):
                    if kept <= T:
                        work.append((T, kept))
                kept = kept | {q}
    out.sort(key=lambda s: (len(s), s))
    return out


# ---------------------------------------------------------------------------
# boolean algebra


def _normalize_derived(alphabet: Alphabet, initial: int, rows, cond: Cond) -> DMA:
    renum, new_rows = _bfs_renumber(rows, initial)
    return DMA(alphabet, len(new_rows), 0, new_rows, remap(cond, list(renum), {}))


def _agree(x: Cond, y: Cond) -> bool:
    """Whether ``x`` and ``y`` take the same value under every truth
    valuation of their atoms, split one atom at a time."""
    if isinstance(x, Bool) and isinstance(y, Bool):
        return x.value == y.value
    at = (atoms_of(x) or atoms_of(y))[0]
    return all(_agree(assign(x, {at: v}), assign(y, {at: v})) for v in (True, False))


def boolean_combine(a: DMA, b: DMA, mode: str) -> DMA:
    """Binary boolean algebra on languages: union, intersection, symdiff.

    Runs on the reachable product automaton with the acceptance condition
    obtained from both factors' conditions by projection of the
    infinitely-visited set.

    When the product collapses onto an operand, that is, it has the
    operand's states in the operand's numbering, and the combined condition
    agrees with the operand's under every truth valuation of the atoms, the
    result is the operand itself, with its cached SCCs, searches and
    complement.  Agreement on every valuation implies the same language on
    the same graph; it is not necessary for it, since atoms count as
    independent.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    order, rows = _reachable_product(a, b)
    cache: dict = {}
    cond_a = remap(a.cond, [p[0] for p in order], cache)
    cond_b = remap(b.cond, [p[1] for p in order], cache)
    if mode == "union":
        cond = c_or([cond_a, cond_b])
    elif mode == "intersection":
        cond = c_and([cond_a, cond_b])
    elif mode == "symdiff":
        cond = c_or([c_and([cond_a, c_not(cond_b)]), c_and([c_not(cond_a), cond_b])])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # ``remap`` under the identity keeps the operand's atoms equal to its own,
    # so a collapsed product whose condition agrees is the operand
    for k, o in enumerate((a, b)):
        if (len(order) == o.n_states and all(p[k] == i for i, p in enumerate(order))
                and _agree(cond, o.cond)):
            return o
    return DMA(a.alphabet, len(order), 0, rows, cond)


def union(a: DMA, b: DMA) -> DMA:
    return boolean_combine(a, b, "union")


def intersection(a: DMA, b: DMA) -> DMA:
    return boolean_combine(a, b, "intersection")


def complement(a: DMA) -> DMA:
    """The complement language: the same transitions under the negated
    condition.

    Built once per automaton and kept on it, with ``a`` kept on the result,
    so ``complement(complement(a)) is a`` and each polarity's searches are
    cached on one object.
    """
    if a._complement is None:
        c = DMA(a.alphabet, a.n_states, a.initial, a.transitions, c_not(a.cond))
        c._sccs = a._sccs
        c._complement = a
        a._complement = c
    return a._complement


def symdiff(a: DMA, b: DMA) -> DMA:
    return boolean_combine(a, b, "symdiff")


def empty_dma(alphabet: Alphabet) -> DMA:
    k = len(alphabet)
    return DMA(alphabet, 1, 0, ((0,) * k,), FALSE, ())


def full_dma(alphabet: Alphabet) -> DMA:
    k = len(alphabet)
    fam = (frozenset({0}),)
    return DMA(alphabet, 1, 0, ((0,) * k,), family_atom(1, fam), fam)


def open_to_dma(e: OpenSet) -> DMA:
    """The open set as a Muller automaton: accept iff a final state recurs.

    Because finals are absorbing, the run hits a final state iff it stays
    there forever, so the Buechi-style condition is exact.
    """
    return DMA(e.alphabet, e.n_states, e.initial, e.transitions,
               hits_atom(e.n_states, e.finals), None)


# ---------------------------------------------------------------------------
# emptiness and membership


def _search_scc(rows, cond: Cond, C: frozenset[int]) -> frozenset[int] | None:
    """A cycle-closed ``D`` inside the SCC ``C`` satisfying ``cond``, if any.

    Tries each truth assignment to the atoms that makes ``cond`` true.  An
    atom that must hold has its projection fixed to one family member at a
    time, which narrows the region to the states labelled in that member.
    An atom that must fail is handled by refinement (see :func:`_refine`).
    Sound because a returned set meets every assigned atom value; complete
    because the atom values of any accepting set are among the assignments
    tried, and the set lies inside the region narrowed for them.
    """
    if evaluate(cond, C):
        return C
    for region, exact, failing in _assignments(cond, C, {}, ()):
        D = _refine(rows, region, exact, failing, set())
        if D is not None:
            return D
    return None


def _assignments(cond: Cond, region: frozenset[int], exact: dict[Atom, frozenset[int]],
                 failing: tuple[Atom, ...]
                 ) -> Iterator[tuple[frozenset[int], dict[Atom, frozenset[int]], tuple[Atom, ...]]]:
    """Partial atom assignments under which ``cond`` folds to true.

    Yields the narrowed region, the exact projection of each atom that must
    hold, and the atoms that must fail.
    """
    if isinstance(cond, Bool):
        if cond.value:
            yield region, exact, failing
        return
    at = atoms_of(cond)[0]
    held = assign(cond, {at: True})
    if held is not FALSE:
        present = {at.labels[q] for q in region}
        for T in at.family:
            if T <= present:
                narrowed = frozenset(q for q in region if at.labels[q] in T)
                yield from _assignments(held, narrowed, {**exact, at: T}, failing)
    yield from _assignments(assign(cond, {at: False}), region, exact, failing + (at,))


def _refine(rows, region: frozenset[int], exact: dict[Atom, frozenset[int]],
            failing: tuple[Atom, ...], dead: set[frozenset[int]]) -> frozenset[int] | None:
    """A cycle-closed set inside ``region`` with the ``exact`` projections on
    which every ``failing`` atom fails, if any.

    If an SCC ``S`` of the region projects into the family of a failing
    atom, every answer inside ``S`` misses one of those labels, so the
    search recurses into ``S`` minus one label at a time.  ``dead`` holds
    the SCCs already found to contain no answer.
    """
    for S in _induced_sccs(rows, region):
        if S in dead:
            continue
        if all(frozenset(at.labels[q] for q in S) == T for at, T in exact.items()):
            bad = next((at for at in failing if at.value_on(S)), None)
            if bad is None:
                return S
            for label in sorted({bad.labels[q] for q in S}):
                D = _refine(rows, frozenset(q for q in S if bad.labels[q] != label),
                            exact, failing, dead)
                if D is not None:
                    return D
        dead.add(S)
    return None


def _accepting_sets(a: DMA) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """``(C, D)`` for each SCC ``C`` of ``a``, least state first, holding a
    cycle-closed ``D`` that satisfies ``a``'s condition.

    Each SCC is searched at most once: the results are cached on ``a`` as far
    as the iteration gets.
    """
    if a._accepting is None:
        a._accepting = []
    found = a._accepting
    for i, C in enumerate(nontrivial_sccs(a)):
        if i == len(found):
            D = _search_scc(a.transitions, a.cond, C)
            # an SCC accepted whole shares the cached tuple of its states
            found.append(None if D is None else a._sccs[i] if D == C else tuple(sorted(D)))
        D = found[i]
        if D is not None:
            yield C, frozenset(D)


def _find_accepting_set(a: DMA) -> frozenset[int] | None:
    return next((D for _, D in _accepting_sets(a)), None)


def _bfs_word(a: Dfa | DMA, src: int, targets: frozenset[int]) -> tuple[str, int]:
    """Shortlex-least word from ``src`` into ``targets`` (possibly empty)."""
    if src in targets:
        return "", src
    seen = {src: ("", src)}
    frontier = [src]
    while frontier:
        nxt = []
        for q in frontier:
            w, _ = seen[q]
            for si, sym in enumerate(a.alphabet.symbols):
                t = a.transitions[q][si]
                if t in seen:
                    continue
                seen[t] = (w + sym, t)
                if t in targets:
                    return w + sym, t
                nxt.append(t)
        frontier = nxt
    raise ValueError("targets unreachable")


def _lasso_witness(a: DMA, D: frozenset[int]) -> UPWord:
    """Ultimately periodic word whose run visits exactly ``D`` forever.

    The period is built from two breadth-first trees inside the strongly
    connected ``D``: an out-tree from the entry state and an in-tree to it.
    For each leaf of the out-tree, in increasing order, it follows the tree
    path from the entry to the leaf and the in-tree path back.  Every state
    of ``D`` lies on the way to some leaf, so the period covers ``D``
    exactly, in O(|D| |alphabet| + |period|) steps.
    """
    u, entry = _bfs_word(a, a.initial, D)
    symbols = a.alphabet.symbols
    rows = a.transitions
    inside = sorted(D)
    # out-tree: the parent and the symbol read to reach each state
    parent: dict[int, tuple[int, str]] = {entry: (entry, "")}
    frontier = [entry]
    while frontier:
        nxt = []
        for q in frontier:
            for sym, t in zip(symbols, rows[q]):
                if t in D and t not in parent:
                    parent[t] = (q, sym)
                    nxt.append(t)
        frontier = nxt
    # in-tree: the symbol and the successor one step closer to the entry
    preds: dict[int, list[tuple[int, str]]] = {q: [] for q in inside}
    for q in inside:
        for sym, t in zip(symbols, rows[q]):
            if t in D:
                preds[t].append((q, sym))
    home: dict[int, tuple[str, int]] = {entry: ("", entry)}
    frontier = [entry]
    while frontier:
        nxt = []
        for t in frontier:
            for q, sym in preds[t]:
                if q not in home:
                    home[q] = (sym, t)
                    nxt.append(q)
        frontier = nxt
    inner = {q for q, _ in parent.values()}
    period: list[str] = []
    for leaf in inside:
        if leaf in inner:
            continue
        out = []
        q = leaf
        while q != entry:
            q, sym = parent[q]
            out.append(sym)
        period.extend(reversed(out))
        q = leaf
        while q != entry:
            sym, q = home[q]
            period.append(sym)
    # a one-state D has no leaf: its period is the self-loop at the entry
    v = "".join(period) or next(sym for sym, t in zip(symbols, rows[entry]) if t == entry)
    witness = up_normalize(a.alphabet, u, v)
    if not up_membership(a, witness):
        raise InvariantError("constructed witness must be accepted")
    return witness


def accepting_witness(a: DMA) -> UPWord | None:
    """An ultimately periodic member of the language, or None if empty."""
    D = _find_accepting_set(a)
    if D is None:
        return None
    return _lasso_witness(a, D)


def is_empty(a: DMA) -> bool:
    return _find_accepting_set(a) is None


def up_membership(a: DMA, x: UPWord) -> bool:
    """Exact membership of the ultimately periodic word ``x``.

    Runs the prefix, then iterates the period's state map until a state
    repeats and collects the states traversed along the periodic lasso.
    """
    if a.alphabet != x.alphabet:
        raise ValueError("alphabet mismatch")
    q = a.run_word(a.initial, x.prefix)
    seen: dict[int, int] = {}
    seq = [q]
    while seq[-1] not in seen:
        seen[seq[-1]] = len(seq) - 1
        seq.append(a.run_word(seq[-1], x.period))
    j = seen[seq[-1]]
    laps = len(seq) - 1 - j
    states: set[int] = set()
    cur = seq[j]
    for _ in range(laps):
        for sym in x.period:
            cur = a.step(cur, sym)
            states.add(cur)
    return a.accepts_set(frozenset(states))


def containment_counterexample(a: DMA, b: DMA) -> UPWord | None:
    """An ultimately periodic word in L(b) but not L(a); None iff L(b) <= L(a)."""
    return accepting_witness(intersection(b, complement(a)))


def contains(a: DMA, b: DMA) -> bool:
    """True iff L(b) is a subset of L(a)."""
    return containment_counterexample(a, b) is None


def equivalent(a: DMA, b: DMA) -> bool:
    return contains(a, b) and contains(b, a)


# ---------------------------------------------------------------------------
# topology: closure, interior, density


def _states_reaching(a: Dfa | DMA, targets: Iterable[int]) -> dict[int, int | None]:
    """States with a path into ``targets``, in breadth-first order from them.

    Each target maps to None, and every other such state to the index of the
    first symbol of a shortest path into the targets, so the order lists the
    states by their distance to the targets.
    """
    rows = a.transitions
    preds: list[list[int]] = [[] for _ in range(a.n_states)]
    for q, row in enumerate(rows):
        for t in row:
            preds[t].append(q)
    toward: dict[int, int | None] = dict.fromkeys(targets)
    order = list(toward)  # a dict cannot grow while it is iterated
    for q in order:
        for p in preds[q]:
            if p not in toward:
                toward[p] = rows[p].index(q)
                order.append(p)
    return toward


def _live_states(a: DMA) -> tuple[int, ...]:
    """States with a non-empty forward language, in increasing order.

    Computed once per automaton and cached on it.
    """
    if a._live is None:
        a._live = tuple(sorted(_states_reaching(
            a, {q for C, _ in _accepting_sets(a) for q in C})))
    return a._live


def _live_restriction(a: DMA
                      ) -> tuple[Sequence[tuple[int, ...]], int, int | None] | None:
    """Transitions among the live states, or None if the initial state is dead.

    Live states keep their relative order; edges leaving them go to a sink,
    appended as the last state only when some edge needs it.  Returns the
    rows, the initial state and the sink (or None).  When every state is
    live, the rows are ``a``'s own table.
    """
    live = _live_states(a)
    if len(live) == a.n_states:
        return a.transitions, a.initial, None
    renum = {q: i for i, q in enumerate(live)}
    if a.initial not in renum:
        return None
    sink = len(live)
    rows = [tuple(renum.get(t, sink) for t in a.transitions[q]) for q in live]
    if not any(sink in row for row in rows):
        return rows, renum[a.initial], None
    rows.append((sink,) * len(a.alphabet))
    return rows, renum[a.initial], sink


def closure(a: DMA) -> DMA:
    """Topological closure: runs that stay forever among live states.

    Transitions leaving the live part are redirected into a rejecting sink,
    and a run is accepted iff it never meets the sink.
    """
    restricted = _live_restriction(a)
    if restricted is None:
        return empty_dma(a.alphabet)
    rows, initial, sink = restricted
    cond = TRUE if sink is None else c_not(hits_atom(len(rows), {sink}))
    return _normalize_derived(a.alphabet, initial, rows, cond)


def interior(a: DMA) -> OpenSet:
    """Topological interior, as an open set.

    A state is marked final iff every omega-word read from it is accepted,
    that is, iff it is not live in the complement.
    """
    doomed = set(_live_states(complement(a)))
    full = [q for q in range(a.n_states) if q not in doomed]
    return OpenSet.from_parts(a.alphabet, a.n_states, a.initial, a.transitions, full)


def pref_dfa(a: DMA) -> Dfa:
    """DFA for the prefix language of L(a): live states plus a dead sink."""
    restricted = _live_restriction(a)
    if restricted is None:
        return Dfa(a.alphabet, 1, 0, ((0,) * len(a.alphabet),), frozenset())
    rows, initial, sink = restricted
    renum, new_rows = _bfs_renumber(rows, initial)
    finals = frozenset(new for old, new in renum.items() if old != sink)
    return Dfa(a.alphabet, len(new_rows), 0, new_rows, finals)


def avoid_infix_dma(alphabet: Alphabet, word: str) -> DMA:
    """Omega-words in which ``word`` never occurs as an infix.

    A prefix-matching automaton tracks the longest suffix of the input that
    is a prefix of ``word``; completing a full match falls into an absorbing
    "seen" state, and acceptance is never meeting that state.
    """
    alphabet.check_word(word)
    if not word:
        raise ValueError("avoided infix must be non-empty")
    L = len(word)
    k = len(alphabet)
    # longest proper border of each prefix
    border = [0] * L
    for i in range(1, L):
        b = border[i - 1]
        while b and word[i] != word[b]:
            b = border[b - 1]
        border[i] = b + 1 if word[i] == word[b] else 0
    hit = L
    rows = []
    for m in range(L):
        row = []
        for si in range(k):
            c = alphabet.symbols[si]
            b = m
            while b and word[b] != c:
                b = border[b - 1]
            nxt = b + 1 if word[b] == c else 0
            row.append(hit if nxt == L else nxt)
        rows.append(tuple(row))
    rows.append((hit,) * k)
    cond = c_not(hits_atom(L + 1, {hit}))
    return _normalize_derived(alphabet, 0, rows, cond)
