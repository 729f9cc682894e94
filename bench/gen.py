"""Seeded input generators.  Standard library only.

Every generator takes a ``random.Random`` and returns plain data, so the
checkers never see the program's objects.  A workload draws one
``random.Random`` per round from ``(workload, seed, round)``; the same
seed always gives the same inputs.

Automata are normalized the way the program numbers states (reachable
states only, breadth-first from the initial state in symbol order), so a
per-state vector from the program lines up with the spec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from graphs import bfs_renumber, cyclic_sccs, product_rows, tarjan


@dataclass(frozen=True)
class Spec:
    """Deterministic Muller automaton with an explicit family."""

    symbols: str
    rows: tuple[tuple[int, ...], ...]
    initial: int
    family: frozenset[frozenset[int]]

    @property
    def n_states(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class OpenSpec:
    """Open set: a DFA whose final states are absorbing."""

    symbols: str
    rows: tuple[tuple[int, ...], ...]
    initial: int
    finals: frozenset[int]


SKEWED = {2: {"a": Fraction(1, 3), "b": Fraction(2, 3)},
          3: {"a": Fraction(1, 6), "b": Fraction(1, 3), "c": Fraction(1, 2)}}
P_EXIT = 0.15  # share of a transient SCC's edges that leave it


def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rnd}")


def normalize(symbols: str, rows, initial: int, family) -> Spec:
    raw = Spec(symbols, tuple(tuple(r) for r in rows), initial, frozenset())
    new_rows, num = bfs_renumber(raw)
    fam = frozenset(
        frozenset(num[q] for q in m) for m in family if m and all(q in num for q in m)
    )
    return Spec(symbols, new_rows, 0, fam)


def _cycle_rows(rng: random.Random, states: list[int], k: int, other) -> list[list[int]]:
    """Symbol 0 follows a random Hamiltonian cycle through ``states``, so
    they form one SCC; ``other(q, si)`` picks the remaining targets."""
    order = states[:]
    rng.shuffle(order)
    nxt = {order[i]: order[(i + 1) % len(order)] for i in range(len(order))}
    return [[nxt[q]] + [other(q, si) for si in range(1, k)] for q in states]


def transient_dma(rng: random.Random, n_scc: int, k: int, inner_members: int = 0) -> Spec:
    """One transient SCC of ``n_scc`` states feeding three small bottom
    components: the first accepting, the second rejecting, the third
    either.  An edge of the transient SCC off its cycle leaves it with
    probability ``P_EXIT``, and fixed leaks reach the first two bottoms,
    so the measure lies strictly between 0 and 1.  ``inner_members`` adds
    that many cycle-closed subsets of the transient SCC to the family.
    """
    symbols = "abc"[:k]
    bottoms = []
    total = n_scc
    for _ in range(3):
        size = rng.randint(1, 3)
        bottoms.append(list(range(total, total + size)))
        total += size
    transient = list(range(n_scc))

    def target(q, si):
        if rng.random() < P_EXIT:
            return rng.choice(rng.choice(bottoms))
        return rng.randrange(n_scc)

    rows = _cycle_rows(rng, transient, k, target)
    # guaranteed leaks into the accepting and the rejecting bottom
    leak_from = rng.sample(transient, 2)
    rows[leak_from[0]][k - 1] = bottoms[0][0]
    rows[leak_from[1]][k - 1] = bottoms[1][0]
    for B in bottoms:  # ids are consecutive, so rows append in state order
        rows.extend(_cycle_rows(rng, B, k, lambda q, si, B=B: rng.choice(B)))
    family = [frozenset(bottoms[0])]
    if rng.random() < 0.5:
        family.append(frozenset(bottoms[2]))
    for _ in range(inner_members):
        member = _random_cycle_set(rng, rows, transient)
        if member:
            family.append(member)
    return normalize(symbols, rows, 0, family)


def _random_cycle_set(rng: random.Random, rows, states: list[int]) -> frozenset[int] | None:
    for _ in range(20):
        sub = rng.sample(states, rng.randint(2, max(2, len(states) - 1)))
        sccs = cyclic_sccs(rows, set(sub))
        if sccs:
            return rng.choice(sccs)
    return None


def sc_dma(rng: random.Random, n: int, k: int, members: int = 4) -> Spec:
    """Strongly connected DMA: the full state set plus up to
    ``members - 1`` random cycle-closed subsets form the family."""
    symbols = "abc"[:k]
    states = list(range(n))
    rows = _cycle_rows(rng, states, k, lambda q, si: rng.randrange(n))
    family = {frozenset(states)}
    for _ in range(members * 5):
        if len(family) >= members:
            break
        member = _random_cycle_set(rng, rows, states)
        if member:
            family.add(member)
    return normalize(symbols, rows, 0, family)


def sc_factors(rng: random.Random, sizes) -> list[Spec]:
    """Strongly connected factors over ``ab`` whose product is strongly
    connected too.

    Then every limit set the emptiness search looks at lies in the one
    SCC, where all factor projections are full (see README.md)."""
    for _ in range(100):
        specs = [sc_dma(rng, n, 2) for n in sizes]
        _, rows = product_rows(specs)
        if len(tarjan(len(rows), rows)) == 1:
            return specs
    raise RuntimeError(f"no strongly connected product for sizes {sizes}")


def open_set(rng: random.Random, n: int) -> OpenSpec:
    """Random DFA over ``abc`` with one or two absorbing finals, all
    states reachable."""
    symbols = "abc"
    k = len(symbols)
    while True:
        rows = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
        finals = set(rng.sample(range(1, n), rng.randint(1, 2)))
        for f in finals:
            rows[f] = [f] * k
        spec = Spec(symbols, tuple(tuple(r) for r in rows), 0, frozenset())
        new_rows, num = bfs_renumber(spec)
        fin = frozenset(num[f] for f in finals if f in num)
        if fin and len(fin) < len(new_rows):
            return OpenSpec(symbols, new_rows, 0, fin)


# ---------------------------------------------------------------------------
# OAF text


def dma_text(spec: Spec, weights=None) -> str:
    lines = ["kind: dma", f"alphabet: {' '.join(spec.symbols)}",
             f"states: {spec.n_states}", f"initial: {spec.initial}"]
    for q, row in enumerate(spec.rows):
        for s, t in zip(spec.symbols, row):
            lines.append(f"trans: {q} {s} {t}")
    members = sorted(sorted(m) for m in spec.family)
    lines.append("accept: " + " ".join("{" + " ".join(map(str, m)) + "}" for m in members))
    if weights is not None:
        lines.append("measure: " + " ".join(f"{s}={weights[s]}" for s in spec.symbols))
    return "\n".join(lines) + "\n"


def open_text(spec: OpenSpec) -> str:
    lines = ["kind: open", f"alphabet: {' '.join(spec.symbols)}",
             f"states: {len(spec.rows)}", f"initial: {spec.initial}"]
    for q, row in enumerate(spec.rows):
        for s, t in zip(spec.symbols, row):
            lines.append(f"trans: {q} {s} {t}")
    lines.append("final: " + " ".join(map(str, sorted(spec.finals))))
    return "\n".join(lines) + "\n"
