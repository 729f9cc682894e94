"""Constructive open-modulo-meager witnesses for regular omega-languages.

A witness for a language F is a pair (E, F') with E a regular open set and
F' a regular meager language such that F and E differ only inside F'
(F symmetric-difference E is contained in F').  Every regular language has
one.  The synthesis here is a graph pass with no linear solve: it marks the
states that reach no rejecting bottom SCC, which are exactly those accepting
with probability 1 under any full-support Bernoulli measure (the Prob1
precomputation of probabilistic model checking, Baier & Katoen 2008,
section 10.1), and takes E as the words that ever reach such a state.  The
symmetric difference is then a null set, hence meager.

Synthesis re-checks only the clause it does not build true: F' is the
symmetric difference itself, so it must be meager, which a wrong E breaks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    DMA,
    InvariantError,
    OpenSet,
    _states_reaching,
    avoid_infix_dma,
    bsccs,
    containment_counterexample,
    empty_open,
    open_to_dma,
    symdiff,
    up_membership,
)
from .category import is_meager
from .words import UPWord, up_non_infix_witness


@dataclass(frozen=True)
class ABPWitness:
    """Open set ``e`` and meager ``fprime`` with  F delta e  inside fprime."""

    e: OpenSet
    fprime: DMA


@dataclass(frozen=True)
class WitnessCheck:
    """Verification outcome; truthy iff the witness is valid.

    ``failed`` is None, "meager" (fprime is not meager) or "containment"
    (some word lies in the symmetric difference but not in fprime, in which
    case ``counterexample`` holds one such ultimately periodic word).
    """

    ok: bool
    failed: str | None = None
    counterexample: UPWord | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_abp_witness(f: DMA, w: ABPWitness) -> WitnessCheck:
    """Check both witness clauses against ``f``; see :class:`WitnessCheck`."""
    if f.alphabet != w.e.alphabet or f.alphabet != w.fprime.alphabet:
        raise ValueError("alphabet mismatch")
    if not is_meager(w.fprime):
        return WitnessCheck(False, "meager")
    delta = symdiff(f, open_to_dma(w.e))
    cx = containment_counterexample(w.fprime, delta)
    if cx is not None:
        return WitnessCheck(False, "containment", cx)
    return WitnessCheck(True)


def synthesize_abp_witness(f: DMA) -> ABPWitness:
    """Witness for an arbitrary DMA; total, and polynomial.

    E is generated by the states that reach no rejecting bottom SCC.  A
    full-support random run settles in some reachable bottom SCC and almost
    surely visits all of it, so from such a state rejection is a null event;
    conversely almost every accepted run enters an accepting bottom SCC,
    whose states are among them.  The symmetric difference is therefore
    null, meager by the measure-category coincidence for regular languages,
    and is returned as fprime unchanged (the tightest verifiable choice).
    fprime covers the difference as built; only its meagerness is re-checked.

    For a meager input every bottom SCC rejects, so E is empty and fprime
    equals f itself.
    """
    rejecting = {q for b in bsccs(f) if not f.accepts_set(b) for q in b}
    doomed = _states_reaching(f, rejecting)
    finals = [q for q in range(f.n_states) if q not in doomed]
    e = OpenSet.from_parts(f.alphabet, f.n_states, f.initial, f.transitions, finals)
    fprime = symdiff(f, open_to_dma(e))
    if not is_meager(fprime):
        raise InvariantError("synthesized witness failed verification: meager")
    return ABPWitness(e, fprime)


def finite_up_abp(xs: list[UPWord]) -> ABPWitness:
    """Witness for a finite set of ultimately periodic words, with E empty.

    Each word misses some finite block as an infix, so it also misses the
    concatenation of all the blocks; the words avoiding that concatenation
    form a closed nowhere-dense superset, so the finite set itself is meager
    with the trivial open part.
    """
    if not xs:
        raise ValueError("need at least one UP word")
    alphabet = xs[0].alphabet
    for x in xs:
        if x.alphabet != alphabet:
            raise ValueError("UP words must share one alphabet")
    word = "".join(up_non_infix_witness(x) for x in xs)
    fprime = avoid_infix_dma(alphabet, word)
    for x in xs:
        if not up_membership(fprime, x):
            raise InvariantError(f"{x} must lie in the covering language")
    if not is_meager(fprime):
        raise InvariantError("finite UP covering must be meager")
    return ABPWitness(empty_open(alphabet), fprime)
