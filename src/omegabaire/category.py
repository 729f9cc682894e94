"""Topological classification of regular omega-languages in Cantor space.

Density, nowhere density and meagerness are decided on the automaton graph,
from the live states and bottom SCCs that each automaton caches.
Meagerness can also be read as zero uniform measure, but ``mu`` takes its
0s and 1s from the same bottom-SCC verdicts before any solve, so that is no
independent check.  The independent one lives in the tests: a dense solve
over every non-bottom state (``tests/helpers.unreduced_probabilities``)
must vanish at the initial state exactly on meager languages.
"""

from __future__ import annotations

from .automata import (
    DMA,
    InvariantError,
    _live_states,
    _states_reaching,
    avoid_infix_dma,
    bsccs,
    contains,
)
from .measure import mu


def is_meager(a: DMA) -> bool:
    """First Baire category, decided on the graph.

    A full-support random run settles in some bottom SCC and almost surely
    visits all of it; the language is non-meager exactly when one of those
    limit sets is accepting (a player extending prefixes can then steer
    every run into it, making the language comeager in some ball).
    """
    return not any(a.accepts_set(b) for b in bsccs(a))


def is_meager_via_measure(a: DMA, weights=None) -> bool:
    """Meager iff the Bernoulli measure vanishes.

    Any full-support Bernoulli measure gives the same verdict; ``weights``
    defaults to uniform.  ``mu`` reads a 0 off the bottom SCCs that
    ``is_meager`` reads, so this is the same graph fact by another route.
    """
    return mu(a, weights) == 0


def contains_disjunctive(a: DMA) -> bool:
    """Does the language contain a word with every finite word as infix?

    The disjunctive words form a comeager set, and a non-meager regular
    language is comeager in some ball, so it must contain one; a meager
    language cannot contain any (the avoided-infix family covers it).
    """
    return not is_meager(a)


def is_dense(a: DMA) -> bool:
    """Dense iff every finite word is the prefix of some member: every
    state is live, as every state is reachable."""
    return len(_live_states(a)) == a.n_states


def is_nowhere_dense(a: DMA) -> bool:
    """The closure contains no ball: no bottom SCC meets the live states,
    where meagerness asks that no bottom SCC be accepted whole.

    A live bottom SCC is live throughout, so a ball reaching it lies in the
    closure; without one, every state leads into the dead states.
    """
    live = set(_live_states(a))
    return all(live.isdisjoint(b) for b in bsccs(a))


def avoided_infix(a: DMA) -> str | None:
    """A non-empty word of at most m^2 letters that no member of the
    language contains as an infix, m the number of live states; None iff
    the language is not nowhere dense.

    As every state is reachable, w is avoided iff its image of the live
    states misses them.  In a nowhere dense language every live state leads
    to a dead one, so the loop takes the live state of the image nearest to
    the dead states and follows a shortest path from it into them, applying
    each letter to the whole image.  Each round empties at least one state
    in at most m letters.  The word need not be the shortest: finding that
    one generalizes shortest reset words, which is NP-hard (Eppstein 1990).
    The word is verified before it is returned.
    """
    if not is_nowhere_dense(a):
        return None
    live = frozenset(_live_states(a))
    toward = _states_reaching(a, set(range(a.n_states)) - live)
    rows, symbols = a.transitions, a.alphabet.symbols
    word = []
    image = live
    while image:
        q = next(p for p in toward if p in image)
        while q in live:
            si = toward[q]
            word.append(symbols[si])
            q = rows[q][si]
            image = live.intersection(rows[p][si] for p in image)
    # the empty language starts with an empty image
    w = "".join(word) or symbols[0]
    if not contains(avoid_infix_dma(a.alphabet, w), a):
        raise InvariantError(f"every member must avoid {w!r}")
    return w


__all__ = [
    "avoided_infix",
    "contains_disjunctive",
    "is_dense",
    "is_meager",
    "is_meager_via_measure",
    "is_nowhere_dense",
]
