"""Plain-text automaton format: parsing, validation, serialization.

One declaration per line, ``#`` starts a comment.  A document is either a
Muller automaton (``kind: dma``, with an ``accept:`` family of brace-
delimited state sets) or an open set (``kind: open``, with absorbing
``final:`` states).  An optional ``measure:`` line declares Bernoulli
symbol weights for measure queries.

Documents are canonical after parsing (transitions as a table of rows in
symbol order, families deduplicated and ordered), so
``parse_oaf(serialize_oaf(d)) == d`` and serialization is byte-deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .automata import DMA, OpenSet
from .measure import check_weights, format_rational, parse_measure_spec, uniform_weights
from .words import Alphabet

_KINDS = ("dma", "open")
_SET_RE = re.compile(r"\{([^{}]*)\}")


class OafError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class OafDocument:
    kind: str
    alphabet: Alphabet
    n_states: int
    initial: int
    # One row per state, one target per symbol in alphabet order.
    transitions: tuple[tuple[int, ...], ...]
    acceptance: tuple[tuple[int, ...], ...] | None = None
    finals: tuple[int, ...] | None = None
    weights: object = None  # None, "uniform", or tuple of (symbol, Fraction)

    def weight_map(self) -> dict[str, Fraction] | None:
        """The declared measure as a symbol->probability map, if any."""
        if self.weights is None:
            return None
        if self.weights == "uniform":
            return uniform_weights(self.alphabet)
        return dict(self.weights)

    def to_dma(self) -> DMA:
        if self.kind != "dma":
            raise OafError("expected a 'kind: dma' document")
        return DMA.from_parts(
            self.alphabet, self.n_states, self.initial, self.transitions,
            self.acceptance or (),
        )

    def to_open(self) -> OpenSet:
        if self.kind != "open":
            raise OafError("expected a 'kind: open' document")
        return OpenSet.from_parts(
            self.alphabet, self.n_states, self.initial, self.transitions,
            self.finals or (),
        )


def _canonical_family(members) -> tuple[tuple[int, ...], ...]:
    fam = {tuple(sorted(m)) for m in members if m}
    return tuple(sorted(fam, key=lambda t: (len(t), t)))


def from_dma(a: DMA, weights=None) -> OafDocument:
    """Document for a DMA; materializes the explicit acceptance family."""
    return OafDocument(
        kind="dma",
        alphabet=a.alphabet,
        n_states=a.n_states,
        initial=a.initial,
        transitions=a.transitions,
        acceptance=_canonical_family(a.acceptance),
        weights=_canonical_weights(a.alphabet, weights),
    )


def from_open(e: OpenSet, weights=None) -> OafDocument:
    return OafDocument(
        kind="open",
        alphabet=e.alphabet,
        n_states=e.n_states,
        initial=e.initial,
        transitions=e.transitions,
        finals=tuple(sorted(e.finals)),
        weights=_canonical_weights(e.alphabet, weights),
    )


def _canonical_weights(alphabet: Alphabet, weights):
    if weights is None or weights == "uniform":
        return weights
    check_weights(alphabet, dict(weights))
    return tuple((s, Fraction(dict(weights)[s])) for s in alphabet.symbols)


def serialize_oaf(doc: OafDocument) -> str:
    lines = [
        f"kind: {doc.kind}",
        f"alphabet: {' '.join(doc.alphabet.symbols)}",
        f"states: {doc.n_states}",
        f"initial: {doc.initial}",
    ]
    symbols = doc.alphabet.symbols
    for q, row in enumerate(doc.transitions):
        for s, t in zip(symbols, row):
            lines.append(f"trans: {q} {s} {t}")
    if doc.kind == "dma":
        sets = " ".join("{" + " ".join(map(str, m)) + "}" for m in doc.acceptance or ())
        lines.append(f"accept: {sets}".rstrip())
    else:
        fin = " ".join(map(str, doc.finals or ()))
        lines.append(f"final: {fin}".rstrip())
    if doc.weights == "uniform":
        lines.append("measure: uniform")
    elif doc.weights is not None:
        pairs = " ".join(f"{s}={format_rational(v)}" for s, v in doc.weights)
        lines.append(f"measure: {pairs}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise OafError(f"{what} must be an integer, got {token!r}", lineno) from None


def parse_oaf(text: str, warnings: list[str] | None = None) -> OafDocument:
    """Parse and validate; diagnostics carry 1-based line numbers.

    Open-set finals that are not absorbing are rewritten to absorbing form,
    recording a note in ``warnings`` (the denoted set is unchanged).
    """
    kind = alphabet = n_states = initial = None
    trans_raw: list[tuple[int, list[str]]] = []
    accept_raw: list[tuple[int, str]] = []
    final_raw: list[tuple[int, str]] = []
    measure_raw: tuple[int, str] | None = None
    seen_keys: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise OafError("expected 'key: value'", lineno)
        key = key.strip()
        rest = rest.strip()
        if key in ("kind", "alphabet", "states", "initial", "measure"):
            if key in seen_keys:
                raise OafError(f"duplicate {key!r} declaration", lineno)
            seen_keys[key] = lineno
        if key == "kind":
            if rest not in _KINDS:
                raise OafError(f"kind must be one of {_KINDS}, got {rest!r}", lineno)
            kind = rest
        elif key == "alphabet":
            try:
                alphabet = Alphabet(rest.split())
            except ValueError as exc:
                raise OafError(str(exc), lineno) from None
        elif key == "states":
            n_states = _parse_int(rest, "state count", lineno)
            if n_states < 1:
                raise OafError("state count must be at least 1", lineno)
        elif key == "initial":
            initial = _parse_int(rest, "initial state", lineno)
        elif key == "trans":
            trans_raw.append((lineno, rest.split()))
        elif key == "accept":
            accept_raw.append((lineno, rest))
        elif key == "final":
            final_raw.append((lineno, rest))
        elif key == "measure":
            measure_raw = (lineno, rest)
        else:
            raise OafError(f"unknown declaration {key!r}", lineno)

    for name, value in (("kind", kind), ("alphabet", alphabet),
                        ("states", n_states), ("initial", initial)):
        if value is None:
            raise OafError(f"missing {name!r} declaration")
    if not (0 <= initial < n_states):
        raise OafError(f"initial state {initial} not in 0..{n_states - 1}")

    k = len(alphabet)
    # Transitions are collected by slot q*k + symbol index, and the table is
    # built only once every slot is declared, so a huge state count with few
    # lines allocates nothing.
    slots: dict[int, int] = {}
    for lineno, tokens in trans_raw:
        if len(tokens) != 3:
            raise OafError("trans needs 'state symbol state'", lineno)
        q = _parse_int(tokens[0], "source state", lineno)
        t = _parse_int(tokens[2], "target state", lineno)
        sym = tokens[1]
        if sym not in alphabet:
            raise OafError(f"symbol {sym!r} not in the alphabet", lineno)
        for st in (q, t):
            if not (0 <= st < n_states):
                raise OafError(f"state {st} not in 0..{n_states - 1}", lineno)
        slot = q * k + alphabet.index(sym)
        if slot in slots:
            raise OafError(f"duplicate transition from {q} on {sym!r}", lineno)
        slots[slot] = t
    if len(slots) < n_states * k:
        # one of the first len(slots) + 1 slots is free
        q, si = divmod(next(i for i in range(n_states * k) if i not in slots), k)
        raise OafError(
            f"missing transition from state {q} on symbol {alphabet.symbols[si]!r}: "
            f"{len(slots)} declared, but {n_states} states over {k} symbols "
            f"need {n_states * k}"
        )
    rows = [tuple(slots[q * k + si] for si in range(k)) for q in range(n_states)]

    acceptance = finals = None
    if kind == "dma":
        if final_raw:
            raise OafError("'final:' is only valid for kind: open", final_raw[0][0])
        members = []
        for lineno, rest in accept_raw:
            leftover = _SET_RE.sub(" ", rest).strip()
            if leftover:
                raise OafError(
                    f"acceptance sets must be brace-delimited; stray {leftover!r}",
                    lineno,
                )
            for group in _SET_RE.findall(rest):
                member = [
                    _parse_int(tok, "acceptance state", lineno) for tok in group.split()
                ]
                for st in member:
                    if not (0 <= st < n_states):
                        raise OafError(
                            f"acceptance state {st} not in 0..{n_states - 1}", lineno
                        )
                members.append(member)
        acceptance = _canonical_family(members)
    else:
        if accept_raw:
            raise OafError("'accept:' is only valid for kind: dma", accept_raw[0][0])
        fset = set()
        for lineno, rest in final_raw:
            for tok in rest.split():
                st = _parse_int(tok, "final state", lineno)
                if not (0 <= st < n_states):
                    raise OafError(f"final state {st} not in 0..{n_states - 1}", lineno)
                fset.add(st)
        finals = tuple(sorted(fset))
        for f in finals:
            if any(rows[f][si] != f for si in range(k)):
                if warnings is not None:
                    warnings.append(
                        f"final state {f} was not absorbing; "
                        "its transitions were replaced by self-loops"
                    )
                rows[f] = (f,) * k

    weights = None
    if measure_raw is not None:
        lineno, rest = measure_raw
        if rest == "uniform":
            weights = "uniform"
        else:
            try:
                pairs = parse_measure_spec(rest, alphabet)
            except ValueError as exc:
                raise OafError(str(exc), lineno) from None
            weights = tuple((s, pairs[s]) for s in alphabet.symbols)

    return OafDocument(
        kind=kind,
        alphabet=alphabet,
        n_states=n_states,
        initial=initial,
        transitions=tuple(rows),
        acceptance=acceptance,
        finals=finals,
        weights=weights,
    )
