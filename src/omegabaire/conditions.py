"""Acceptance conditions evaluated on sets of infinitely visited states.

A condition is a boolean formula whose atoms look at the *projection* of a
state set: an :class:`Atom` carries a label for every automaton state and an
explicit family of label sets; it holds on a state set ``S`` iff the set of
labels occurring in ``S`` is a member of the family.

A plain Muller automaton with an explicit acceptance family is the special
case of a single atom whose labels are the state ids themselves.  Boolean
combinations and products only ever rewrite atom labels, so derived automata
stay cheap to evaluate even when their explicit families would be huge.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Cond:
    __slots__ = ()


class Bool(Cond):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def __repr__(self):
        return "TRUE" if self.value else "FALSE"


TRUE = Bool(True)
FALSE = Bool(False)


class Atom(Cond):
    """labels[q] names state q; holds on S iff {labels[q] : q in S} in family."""

    __slots__ = ("labels", "family", "_hash")

    def __init__(self, labels: tuple[int, ...], family: frozenset[frozenset[int]]):
        self.labels = labels
        self.family = family
        self._hash = hash((labels, family))

    def value_on(self, states: Iterable[int]) -> bool:
        return frozenset(self.labels[q] for q in states) in self.family

    def __eq__(self, other):
        return (
            isinstance(other, Atom)
            and self._hash == other._hash
            and self.labels == other.labels
            and self.family == other.family
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Atom(labels={self.labels}, family={sorted(map(sorted, self.family))})"


class Not(Cond):
    __slots__ = ("inner",)

    def __init__(self, inner: Cond):
        self.inner = inner


class And(Cond):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Cond, ...]):
        self.parts = parts


class Or(Cond):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Cond, ...]):
        self.parts = parts


def c_not(x: Cond) -> Cond:
    if isinstance(x, Bool):
        return FALSE if x.value else TRUE
    if isinstance(x, Not):
        return x.inner
    return Not(x)


def c_and(parts: Iterable[Cond]) -> Cond:
    flat: list[Cond] = []
    for p in parts:
        if isinstance(p, Bool):
            if not p.value:
                return FALSE
            continue
        if isinstance(p, And):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def c_or(parts: Iterable[Cond]) -> Cond:
    flat: list[Cond] = []
    for p in parts:
        if isinstance(p, Bool):
            if p.value:
                return TRUE
            continue
        if isinstance(p, Or):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def family_atom(n_states: int, family: Iterable[frozenset[int]]) -> Cond:
    """Explicit Muller family over the automaton's own states."""
    fam = frozenset(frozenset(t) for t in family)
    if not fam:
        return FALSE
    return Atom(tuple(range(n_states)), fam)


def hits_atom(n_states: int, hit_states: Iterable[int]) -> Cond:
    """Holds on S iff S meets ``hit_states`` (a Buechi-style atom)."""
    hits = frozenset(hit_states)
    if not hits:
        return FALSE
    if len(hits) == n_states:
        return TRUE
    labels = tuple(1 if q in hits else 0 for q in range(n_states))
    family = frozenset({frozenset({1}), frozenset({0, 1})})
    return Atom(labels, family)


def evaluate(cond: Cond, states: Iterable[int]) -> bool:
    s = states if isinstance(states, (frozenset, set, tuple, list)) else tuple(states)
    return _eval(cond, s)


def _eval(cond: Cond, s) -> bool:
    if isinstance(cond, Bool):
        return cond.value
    if isinstance(cond, Atom):
        return cond.value_on(s)
    if isinstance(cond, Not):
        return not _eval(cond.inner, s)
    if isinstance(cond, And):
        return all(_eval(p, s) for p in cond.parts)
    if isinstance(cond, Or):
        return any(_eval(p, s) for p in cond.parts)
    raise TypeError(f"unknown condition node {cond!r}")


def assign(cond: Cond, mapping: dict[Atom, bool]) -> Cond:
    """Partially evaluate: replace mapped atoms by constants and fold."""
    if isinstance(cond, Bool):
        return cond
    if isinstance(cond, Atom):
        v = mapping.get(cond)
        if v is None:
            return cond
        return TRUE if v else FALSE
    if isinstance(cond, Not):
        return c_not(assign(cond.inner, mapping))
    if isinstance(cond, And):
        return c_and(assign(p, mapping) for p in cond.parts)
    if isinstance(cond, Or):
        return c_or(assign(p, mapping) for p in cond.parts)
    raise TypeError(f"unknown condition node {cond!r}")


def atoms_of(cond: Cond) -> list[Atom]:
    """Distinct atoms in first-seen order."""
    seen: dict[Atom, None] = {}
    for a in _iter_atoms(cond):
        seen.setdefault(a, None)
    return list(seen)


def _iter_atoms(cond: Cond) -> Iterator[Atom]:
    if isinstance(cond, Atom):
        yield cond
    elif isinstance(cond, Not):
        yield from _iter_atoms(cond.inner)
    elif isinstance(cond, (And, Or)):
        for p in cond.parts:
            yield from _iter_atoms(p)


def remap(cond: Cond, state_map: list[int] | tuple[int, ...], cache: dict) -> Cond:
    """Rewrite atoms for a new state space; ``state_map[new] = old``.

    Structurally equal rewritten atoms are shared via ``cache`` so that
    identical sub-automata on both sides of a product collapse to the same
    atom and partial evaluation treats them consistently.
    """
    if isinstance(cond, Bool):
        return cond
    if isinstance(cond, Atom):
        labels = tuple(cond.labels[old] for old in state_map)
        key = (labels, cond.family)
        atom = cache.get(key)
        if atom is None:
            atom = Atom(labels, cond.family)
            cache[key] = atom
        return atom
    if isinstance(cond, Not):
        return c_not(remap(cond.inner, state_map, cache))
    if isinstance(cond, And):
        return c_and(remap(p, state_map, cache) for p in cond.parts)
    if isinstance(cond, Or):
        return c_or(remap(p, state_map, cache) for p in cond.parts)
    raise TypeError(f"unknown condition node {cond!r}")
