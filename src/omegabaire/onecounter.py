"""A one-counter prefix-free word family and the omega-languages built on it.

The family V is defined by the recursion  V = d + s . V^m : a terminal
letter d, a branching letter s of arity m.  Membership is decided by a
counter starting at 1 (d adds -1, s adds m-1): a word is a member iff the
counter first reaches 0 exactly at the end.  The language is prefix-free,
and for m = 3 over a binary alphabet the total ball measure of V . X^omega
is the least positive root of  t^3 - |X| t + 1 , an irrational number.

Two omega-languages are derived from V over the default letters:
F1 = V . c . {a,b,c}^omega  (open, not regular) and
F2 = {a,b}^omega minus V . {a,b}^omega  (closed, not regular).
Membership of ultimately periodic words in either is decided exactly by
analysing the counter's drift over one period.  ``f1_refute_open`` shows,
for any regular open E, that F1 and E differ by more than any meager set:
their measures are separated by an exact rational-vs-algebraic gap, and a
whole ball inside the difference is always exhibited.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .automata import (
    DMA,
    InvariantError,
    _live_states,
    ball_open,
    closure,
    complement,
    intersection,
    is_empty,
    open_to_dma,
    OpenSet,
)
from .category import is_nowhere_dense
from .measure import check_weights, format_decimal, format_rational, measure_open
from .words import Alphabet, UPWord

IN_V = "in_V"
PROPER_PREFIX = "proper_prefix"
DEAD = "dead"

F1_ALPHABET = Alphabet("abc")
F1_MARKER = "c"


@dataclass(frozen=True)
class CounterLanguageSpec:
    """Letters and arity of the recursion V = terminal + branching . V^arity."""

    alphabet: Alphabet
    terminal: str = "a"
    branching: str = "b"
    arity: int = 3

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("arity must be at least 2")
        if self.terminal == self.branching:
            raise ValueError("terminal and branching letters must differ")
        if self.terminal not in self.alphabet or self.branching not in self.alphabet:
            raise ValueError("both letters must belong to the alphabet")


def default_counter_spec() -> CounterLanguageSpec:
    return CounterLanguageSpec(Alphabet("ab"))


@dataclass(frozen=True)
class CounterRun:
    """Counter trajectory over a finite word, starting at 1.

    status: ``in_V`` (first zero exactly at the end), ``proper_prefix``
    (positive throughout), or ``dead`` (zero hit early, or a symbol that is
    neither letter).  The trace stops where scanning stopped.
    """

    status: str
    trace: tuple[int, ...]


def counter_run(spec: CounterLanguageSpec, word: str) -> CounterRun:
    c = 1
    trace = [1]
    last = len(word) - 1
    for i, s in enumerate(word):
        if s == spec.terminal:
            c -= 1
        elif s == spec.branching:
            c += spec.arity - 1
        else:
            return CounterRun(DEAD, tuple(trace))
        trace.append(c)
        if c == 0:
            return CounterRun(IN_V if i == last else DEAD, tuple(trace))
    return CounterRun(PROPER_PREFIX, tuple(trace))


def _counter_step(alive: dict[int, int], arity: int,
                  terminal: int, branching: int) -> dict[int, int]:
    """One letter more: each count at counter value c moves to c - 1 (if
    still positive) scaled by ``terminal`` and to c + arity - 1 scaled by
    ``branching``.  Integer weights keep the whole recursion in integers."""
    new: dict[int, int] = {}
    for c, n in alive.items():
        if c > 1:
            new[c - 1] = new.get(c - 1, 0) + n * terminal
        up = c + arity - 1
        new[up] = new.get(up, 0) + n * branching
    return new


# ---------------------------------------------------------------------------
# UP-word membership in F1 and F2 by drift analysis


def _counter_stop(spec: CounterLanguageSpec, x: UPWord) -> tuple[int, int] | None:
    """The first position i of ``x`` where the counter, started at 1, reads
    0 (so x[:i] is a member of V) or x[i] is neither counter letter, with
    the counter value there; ``None`` when neither ever happens.

    The counter is scanned over the prefix and then lap by lap over the
    period.  A lap without a stop that ends at or above where it began can
    never stop later (each later lap repeats the same excursion shifted
    upward), while a lap that ends lower loses at least 1, so a zero comes
    within a bounded number of laps.
    """
    step = {spec.terminal: -1, spec.branching: spec.arity - 1}
    c, i = 1, 0
    for s in x.prefix:
        if c == 0 or s not in step:
            return i, c
        c += step[s]
        i += 1
    first = c
    laps = 0
    while True:
        lap_start = c
        for s in x.period:
            if c == 0 or s not in step:
                return i, c
            c += step[s]
            i += 1
        if c >= lap_start:
            return None
        laps += 1
        if laps > first + 2:
            raise InvariantError("negative drift must reach zero quickly")


def f2_member_up(x: UPWord, spec: CounterLanguageSpec | None = None) -> bool:
    """True iff no prefix of ``x`` is a member of V."""
    spec = spec or default_counter_spec()
    if x.alphabet != spec.alphabet:
        raise ValueError("UP word must be over the counter alphabet")
    return _counter_stop(spec, x) is None


def f1_member_up(x: UPWord, spec: CounterLanguageSpec | None = None,
                 marker: str = F1_MARKER) -> bool:
    """True iff ``x`` has a prefix p . marker with p a member of V.

    Members of V use only V's two letters and V is prefix-free, so the only
    candidate p is the prefix before the counter's first stop: ``x`` is in
    F1 iff that stop is a zero and the marker comes next.
    """
    spec = spec or default_counter_spec()
    if marker in (spec.terminal, spec.branching):
        raise ValueError("marker must differ from the counter letters")
    for s in (spec.terminal, spec.branching, marker):
        if s not in x.alphabet:
            raise ValueError(f"UP word alphabet lacks {s!r}")
    stop = _counter_stop(spec, x)
    return stop is not None and stop[1] == 0 and x.symbol_at(stop[0]) == marker


# ---------------------------------------------------------------------------
# the fixed-point root and its irrationality


@dataclass(frozen=True)
class Interval:
    """Exact rational bracket around a real number."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


def _start_bracket(k: int) -> tuple[int, int, int]:
    """The bracket [lo/2^j, hi/2^j] that isolates the least positive root of
    t^3 - k t + 1, as ``(lo, hi, j)``: [0, 1] for k >= 3, where the
    polynomial is strictly decreasing, and [0, 3/4] for k = 2, which cuts
    off the root at 1 and stays below the turning point sqrt(2/3)."""
    if k < 2:
        raise ValueError("alphabet size must be at least 2")
    return (0, 3, 2) if k == 2 else (0, 1, 0)


def min_positive_root(k: int, precision: int = 64) -> Interval:
    """Bracket of width <= 2^-precision around the least positive root of
    t^3 - k t + 1  (the total ball measure of V . X^omega over |X| = k).

    Bisection with exact endpoints, from the bracket of ``_start_bracket``
    where the sign change is unique.  The endpoints are kept as integer
    numerators lo/2^j and hi/2^j, and the sign at m/2^j is that of
    8^j p(m/2^j) = m^3 - k m 4^j + 8^j, so the search runs in exact integer
    arithmetic; the ``Interval`` is built once at the end.
    """
    lo, hi, j = _start_bracket(k)
    if precision < 1:
        raise ValueError("precision must be positive")

    def cleared(m: int, j: int) -> int:
        return m**3 - (k * m << 2 * j) + (1 << 3 * j)

    if not cleared(lo, j) > 0 > cleared(hi, j):
        raise InvariantError("the ball polynomial must change sign on the bracket")
    # hi - lo never changes, so the width (hi - lo)/2^j is above
    # 2^-precision exactly while (hi - lo) 2^precision > 2^j
    scaled_width = (hi - lo) << precision
    while scaled_width > 1 << j:
        mid = lo + hi
        lo, hi, j = 2 * lo, 2 * hi, j + 1
        v = cleared(mid, j)
        if v == 0:
            raise InvariantError("the root is irrational, a rational midpoint cannot hit it")
        if v > 0:
            lo = mid
        else:
            hi = mid
    return Interval(Fraction(lo, 1 << j), Fraction(hi, 1 << j))


@dataclass(frozen=True)
class IrrationalityCertificate:
    """Replayable evidence that the least positive root is irrational.

    The polynomial changes sign on ``bracket``, so a root lies inside it.
    A rational root of the monic cubic with constant term 1 would be an
    integer dividing 1, and each candidate +-1 is recorded with its value:
    every one is either no root or outside the bracket, so the root inside
    is irrational.  (For k = 2 the candidate 1 is a root, outside [0, 3/4].)
    """

    k: int
    bracket: Interval
    candidates: tuple[tuple[Fraction, Fraction], ...]

    def _poly_value(self, t: Fraction) -> Fraction:
        return t**3 - self.k * t + 1

    def replay(self) -> bool:
        if not self._poly_value(self.bracket.lo) > 0 > self._poly_value(self.bracket.hi):
            return False
        if sorted(c for c, _ in self.candidates) != [-1, 1]:
            return False
        return all(
            self._poly_value(c) == v and (v != 0 or c not in self.bracket)
            for c, v in self.candidates
        )

    def render(self) -> str:
        lo, hi = self.bracket.lo, self.bracket.hi
        pairs = ", ".join(
            f"{format_rational(c)} -> {format_rational(v)}" for c, v in self.candidates
        )
        return "\n".join([
            f"least positive root of t^3 - {self.k}*t + 1",
            f"bracket: {self.bracket}, where p changes sign: "
            f"{format_rational(self._poly_value(lo))} > 0 > "
            f"{format_rational(self._poly_value(hi))}",
            f"rational-root candidates: {pairs}",
            "no candidate is a root inside the bracket: no rational root there",
            "conclusion: the root is irrational",
        ])


def irrationality_certificate(k: int) -> IrrationalityCertificate:
    lo, hi, j = _start_bracket(k)
    cands = tuple((Fraction(c), Fraction(c**3 - k * c + 1)) for c in (1, -1))
    cert = IrrationalityCertificate(
        k, Interval(Fraction(lo, 1 << j), Fraction(hi, 1 << j)), cands
    )
    if not cert.replay():
        raise InvariantError("fresh certificate must replay")
    return cert


# ---------------------------------------------------------------------------
# quantitative and topological probes


def survival_sequence(spec: CounterLanguageSpec, n: int,
                      weights: dict[str, Fraction] | None = None
                      ) -> list[Fraction]:
    """P(counter stays positive for 0..n steps), exact; decreases to the
    measure of the omega-language F2.

    Both letter weights are scaled by D, the lcm of their denominators, so
    the distribution is kept as integer counts; after k steps the counts
    are probabilities times D^k, and only the per-step sums are turned into
    fractions.
    """
    if n < 0:
        raise ValueError("step count must be >= 0")
    wvec = check_weights(spec.alphabet, weights)
    wt = wvec[spec.alphabet.index(spec.terminal)]
    wb = wvec[spec.alphabet.index(spec.branching)]
    d = lcm(wt.denominator, wb.denominator)
    terminal, branching = int(wt * d), int(wb * d)
    dist = {1: 1}  # counter value -> probability times d^k after k steps
    out = [Fraction(1)]
    scale = 1
    for _ in range(n):
        dist = _counter_step(dist, spec.arity, terminal, branching)
        scale *= d
        out.append(Fraction(sum(dist.values()), scale))
    return out


def survival_probability(spec: CounterLanguageSpec, n: int,
                         weights: dict[str, Fraction] | None = None) -> Fraction:
    return survival_sequence(spec, n, weights)[n]


def f2_nowhere_dense_witness(spec: CounterLanguageSpec, w: str) -> str:
    """Extension z such that w z falls out of F2's prefixes.

    For w with a positive counter value c, appending the terminal letter c
    times drives the counter straight to zero, so w z is a member of V and
    no word through it stays in F2.  Verified by a counter run.
    """
    r = counter_run(spec, w)
    if r.status != PROPER_PREFIX:
        raise ValueError("witness extension needs a word with positive counter")
    z = spec.terminal * r.trace[-1]
    if counter_run(spec, w + z).status != IN_V:
        raise InvariantError("the extended word must lie in V")
    return z


# ---------------------------------------------------------------------------
# refuting open approximations of F1


@dataclass(frozen=True)
class RefutationReport:
    """Certificate that a regular open E cannot approximate F1 modulo meager.

    mu_e is exact and rational; the root interval brackets the (irrational)
    measure of V . X^omega over two letters embedded in three, whose third
    is mu(F1); ``side`` states which of mu_e, mu(F1) is larger.  Since the
    two measures differ while any meager regular set is null, F1 delta E is
    non-null, so no meager F' can cover it.  ``witness`` is a finite word
    whose ball lies in F1 delta E, which shows the difference outright:
    inside F1 and disjoint from E (``witness_kind`` "ball_in_f1_not_e") or
    inside E and disjoint from F1 ("ball_in_e_not_f1").
    """

    mu_e: Fraction
    root_interval: Interval
    side: str
    witness: str
    witness_kind: str
    precision: int
    replay_precision: int

    def threshold(self) -> Interval:
        return Interval(self.root_interval.lo / 3, self.root_interval.hi / 3)

    def render(self, digits: int = 10) -> str:
        th = self.threshold()
        return "\n".join([
            f"mu_e: {format_rational(self.mu_e)}",
            f"root_interval: {self.root_interval}",
            f"threshold: {th}",
            f"threshold_decimal: ~ {format_decimal(th.midpoint(), digits)}",
            f"side: {self.side}",
            f"witness_ball: {self.witness}",
            f"witness_kind: {self.witness_kind}",
            f"replay_precision: {self.replay_precision}",
            "replay: ok",
        ])


# absorbing F1 statuses of a prefix: every extension lies in F1 / none does
_IN_F1 = "in"
_OUT_F1 = "out"


def _f1_status(spec: CounterLanguageSpec, status: int | str, s: str) -> int | str:
    """The F1 status of a prefix extended by ``s``.  A status is the
    counter value c >= 0 while undecided, or absorbing: ``in`` once a member
    of V is followed by the marker, ``out`` once another symbol follows a
    member or a non-letter is read at a positive counter."""
    if status == 0:
        return _IN_F1 if s == F1_MARKER else _OUT_F1
    if not isinstance(status, int):
        return status
    if s == spec.terminal:
        return status - 1
    if s == spec.branching:
        return status + spec.arity - 1
    return _OUT_F1


def _f1_difference_ball(e: DMA, spec: CounterLanguageSpec) -> tuple[str, str]:
    """A word whose ball lies in F1 delta E, and its kind.

    Breadth-first search, in symbol order, over pairs (state of E, F1
    status of the prefix), so the word is the shortlex-least one reaching
    its pair.  It stops at the first pair (q, in) with q dead in E's
    automaton ``e``, or (q, out) with q not doomed, so that every extension
    from q lies in E.  Such a pair is always reachable: without one, every
    ball of E meets F1 and every ball of F1 meets E, so cl(E) = cl(F1),
    whose part over {a, b} is F2, which is not regular.  Each length has
    finitely many pairs, so the search ends.
    """
    rows = e.transitions
    live = set(_live_states(e))
    doomed = set(_live_states(complement(e)))
    start = (e.initial, 1)
    words = {start: ""}
    order = [start]
    for q, status in order:
        w = words[q, status]
        if status == _IN_F1 and q not in live:
            return w, "ball_in_f1_not_e"
        if status == _OUT_F1 and q not in doomed:
            return w, "ball_in_e_not_f1"
        for s, t in zip(e.alphabet.symbols, rows[q]):
            pair = (t, _f1_status(spec, status, s))
            if pair not in words:
                words[pair] = w + s
                order.append(pair)


def _check_difference_ball(e_dma: DMA, spec: CounterLanguageSpec,
                           w: str, kind: str) -> None:
    """Re-verify, independently of the search, that the ball of ``w`` lies
    in F1 delta E: by counter runs on prefixes of ``w`` and by product
    emptiness on E's automaton."""
    run = counter_run(spec, w)
    n = len(run.trace) - 1  # the counter stopped before w[n]
    decided = run.status == DEAD
    in_f1 = (decided and w[n] == F1_MARKER
             and counter_run(spec, w[:n]).status == IN_V)
    ball = open_to_dma(ball_open(F1_ALPHABET, w))
    if kind == "ball_in_f1_not_e":
        ok = in_f1 and is_empty(intersection(ball, e_dma))
    else:
        ok = decided and not in_f1 and is_empty(intersection(ball, complement(e_dma)))
    if not ok:
        raise InvariantError(f"witness ball {w!r} must lie in F1 delta E ({kind})")


def f1_refute_open(e: OpenSet, precision: int = 64) -> RefutationReport:
    """Strict-inequality certificate mu(E) != mu(F1), plus a witness ball.

    mu(F1) is one third of the least positive root of t^3 - 3t + 1, which
    is irrational, while mu(E) is rational, so refining the root bracket
    must eventually separate them; the separation is re-verified at doubled
    precision.  Independently, ``_f1_difference_ball`` finds a ball inside
    F1 delta E, which always exists; either shows that no meager set covers
    the difference.  The ball is re-verified before it is returned.
    """
    if e.alphabet != F1_ALPHABET:
        raise ValueError("expected an open set over the alphabet a b c")
    if precision < 1:
        raise ValueError("precision must be positive")
    spec = default_counter_spec()
    mu_e = measure_open(e)
    e_dma = open_to_dma(e)
    if not is_nowhere_dense(intersection(closure(e_dma), complement(e_dma))):
        raise InvariantError("a regular open set has a nowhere dense boundary")
    bits = max(8, precision)
    iv = min_positive_root(3, bits)
    while iv.lo <= 3 * mu_e <= iv.hi:
        bits *= 2
        iv = min_positive_root(3, bits)
        if bits > 1 << 24:
            raise InvariantError("separation must occur at finite precision")
    side = "less" if 3 * mu_e < iv.lo else "greater"
    replay_bits = 2 * bits
    iv2 = min_positive_root(3, replay_bits)
    if not (3 * mu_e < iv2.lo if side == "less" else 3 * mu_e > iv2.hi):
        raise InvariantError("the separation must replay at double precision")
    witness, kind = _f1_difference_ball(e_dma, spec)
    _check_difference_ball(e_dma, spec, witness, kind)
    return RefutationReport(
        mu_e=mu_e,
        root_interval=iv,
        side=side,
        witness=witness,
        witness_kind=kind,
        precision=bits,
        replay_precision=replay_bits,
    )
