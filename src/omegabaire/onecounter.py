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
their measures are separated by an exact rational-vs-algebraic gap, and in
concrete cases a whole ball inside the difference is exhibited.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .automata import (
    InvariantError,
    ball_open,
    closure,
    intersection,
    is_empty,
    open_to_dma,
    OpenSet,
)
from .measure import check_weights, format_decimal, format_rational, measure_open, mu
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


def member_length_counts(spec: CounterLanguageSpec, max_len: int) -> list[int]:
    """Number of members of V of each length 0..max_len (exact DP)."""
    alive = {1: 1}  # counter value -> number of still-positive words
    counts = [0]
    for _ in range(max_len):
        counts.append(alive.get(1, 0))
        alive = _counter_step(alive, spec.arity, 1, 1)
    return counts


# ---------------------------------------------------------------------------
# UP-word membership in F1 and F2 by drift analysis


def f2_member_up(x: UPWord, spec: CounterLanguageSpec | None = None) -> bool:
    """True iff no prefix of ``x`` is a member of V.

    The counter is scanned over the prefix and then period by period; a full
    period without a zero and with non-negative drift can never produce a
    zero later (each later lap repeats the same excursion shifted upward),
    while negative drift forces a zero within a bounded number of laps.
    """
    spec = spec or default_counter_spec()
    if x.alphabet != spec.alphabet:
        raise ValueError("UP word must be over the counter alphabet")
    step = {spec.terminal: -1, spec.branching: spec.arity - 1}
    c = 1
    for s in x.prefix:
        c += step[s]
        if c == 0:
            return False
    drift = sum(step[s] for s in x.period)
    first = c
    laps = 0
    while True:
        for s in x.period:
            c += step[s]
            if c == 0:
                return False
        if drift >= 0:
            return True
        laps += 1
        if laps > first + 2:
            raise InvariantError("negative drift must reach zero quickly")


def f1_member_up(x: UPWord, spec: CounterLanguageSpec | None = None,
                 marker: str = F1_MARKER) -> bool:
    """True iff ``x`` has a prefix p . marker with p a member of V.

    Scans the symbol stream: when the counter first reaches 0 the very next
    symbol decides; any other symbol outside V's two letters kills every
    later candidate (members of V use only those letters); and a marker-free
    period with positive running counter and non-negative drift can never
    produce a candidate again.
    """
    spec = spec or default_counter_spec()
    if marker in (spec.terminal, spec.branching):
        raise ValueError("marker must differ from the counter letters")
    for s in (spec.terminal, spec.branching, marker):
        if s not in x.alphabet:
            raise ValueError(f"UP word alphabet lacks {s!r}")
    step = {spec.terminal: -1, spec.branching: spec.arity - 1}
    c = 1
    for s in x.prefix:
        if c == 0:
            return s == marker
        if s not in step:
            return False
        c += step[s]
    clean = all(s in step for s in x.period)
    drift = sum(step[s] for s in x.period if s in step)
    first = c
    laps = 0
    while True:
        for s in x.period:
            if c == 0:
                return s == marker
            if s not in step:
                return False
            c += step[s]
        if clean and drift >= 0:
            # the whole lap ran with positive counter and no marker; later
            # laps repeat it shifted upward, so no candidate ever completes
            return False
        laps += 1
        if laps > first + 2:
            raise InvariantError("negative drift must reach zero quickly")


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


def _ball_poly(k: int, t: Fraction) -> Fraction:
    return t * t * t - k * t + 1


def min_positive_root(k: int, precision: int = 64) -> Interval:
    """Bracket of width <= 2^-precision around the least positive root of
    t^3 - k t + 1  (the total ball measure of V . X^omega over |X| = k).

    Bisection with exact endpoints.  The bracket starts at (0, 1) where the
    polynomial is strictly decreasing, so the sign change is unique; for
    k = 2 the upper end is lowered to 3/4 to cut off the spurious root at 1.
    The endpoints are kept as integer numerators lo/2^j and hi/2^j, and
    the sign at m/2^j is that of 8^j p(m/2^j) = m^3 - k m 4^j + 8^j, so
    the search runs in exact integer arithmetic; the ``Interval`` is built
    once at the end.
    """
    if k < 2:
        raise ValueError("alphabet size must be at least 2")
    if precision < 1:
        raise ValueError("precision must be positive")

    def cleared(m: int, j: int) -> int:
        return m**3 - (k * m << 2 * j) + (1 << 3 * j)

    lo, hi, j = (0, 3, 2) if k == 2 else (0, 1, 0)  # the bracket [lo/2^j, hi/2^j]
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

    For the monic cubic with constant term 1, every rational root would be
    an integer dividing 1; the recorded candidate evaluations are all
    nonzero.  For k = 2 the cubic factors off (t - 1) and the certificate
    instead shows the remaining quadratic has a non-square discriminant.
    """

    k: int
    cubic: tuple[int, int, int, int]
    candidates: tuple[tuple[Fraction, Fraction], ...]
    quadratic: tuple[int, int, int] | None = None
    discriminant: int | None = None
    nonsquare_bracket: tuple[int, int] | None = None

    def _poly_value(self, t: Fraction) -> Fraction:
        coeffs = self.quadratic if self.quadratic is not None else self.cubic
        v = Fraction(0)
        for co in coeffs:
            v = v * t + co
        return v

    def replay(self) -> bool:
        for cand, recorded in self.candidates:
            v = self._poly_value(cand)
            if v != recorded or v == 0:
                return False
        if self.quadratic is not None:
            qa, qb, qc = self.quadratic
            if self.discriminant != qb * qb - 4 * qa * qc:
                return False
            r, s = self.nonsquare_bracket
            if not (s == r + 1 and r * r < self.discriminant < s * s):
                return False
        return True

    def render(self) -> str:
        k = self.k
        lines = [f"least positive root of t^3 - {k}*t + 1"]
        if self.quadratic is None:
            pairs = ", ".join(
                f"{format_rational(c)} -> {format_rational(v)}" for c, v in self.candidates
            )
            lines.append(f"rational-root candidates: {pairs}")
            lines.append("all candidate evaluations nonzero: no rational root")
        else:
            lines.append("factorization: (t - 1) * (t^2 + t - 1); "
                         "the bracket (0, 3/4) excludes the root t = 1")
            pairs = ", ".join(
                f"{format_rational(c)} -> {format_rational(v)}" for c, v in self.candidates
            )
            lines.append(f"quadratic rational-root candidates: {pairs}")
            r, s = self.nonsquare_bracket
            lines.append(
                f"quadratic discriminant: {self.discriminant} "
                f"(not a square: {r}^2 < {self.discriminant} < {s}^2)"
            )
        lines.append("conclusion: the root is irrational")
        return "\n".join(lines)


def irrationality_certificate(k: int) -> IrrationalityCertificate:
    if k < 2:
        raise ValueError("alphabet size must be at least 2")
    cubic = (1, 0, -k, 1)
    if k == 2:
        quad = (1, 1, -1)
        cands = tuple(
            (Fraction(c), Fraction(c * c + c - 1)) for c in (1, -1)
        )
        cert = IrrationalityCertificate(
            k, cubic, cands, quadratic=quad, discriminant=5, nonsquare_bracket=(2, 3)
        )
    else:
        cands = tuple(
            (Fraction(c), _ball_poly(k, Fraction(c))) for c in (1, -1)
        )
        cert = IrrationalityCertificate(k, cubic, cands)
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
    non-null, so no meager F' can cover it.  When a witness ball was found
    within the cap it exhibits the difference outright.
    """

    mu_e: Fraction
    root_interval: Interval
    side: str
    witness: str | None
    witness_kind: str | None
    search_cap: int
    precision: int
    replay_precision: int

    def threshold(self) -> Interval:
        return Interval(self.root_interval.lo / 3, self.root_interval.hi / 3)

    def render(self, digits: int = 10) -> str:
        th = self.threshold()
        lines = [
            f"mu_e: {format_rational(self.mu_e)}",
            f"root_interval: {self.root_interval}",
            f"threshold: {th}",
            f"threshold_decimal: ~ {format_decimal(th.midpoint(), digits)}",
            f"side: {self.side}",
        ]
        if self.witness is None:
            lines.append(f"witness_ball: none within cap {self.search_cap}")
        else:
            lines.append(f"witness_ball: {self.witness}")
            lines.append(f"witness_kind: {self.witness_kind}")
        lines.append(f"replay_precision: {self.replay_precision}")
        lines.append("replay: ok")
        return "\n".join(lines)


def f1_refute_open(e: OpenSet, precision: int = 64,
                   search_cap: int = 8) -> RefutationReport:
    """Strict-inequality certificate mu(E) != mu(F1), plus a witness ball.

    mu(F1) is one third of the least positive root of t^3 - 3t + 1, which
    is irrational, while mu(E) is rational, so refining the root bracket
    must eventually separate them; the separation is re-verified at doubled
    precision.  The witness search looks for a ball inside F1 avoiding the
    closure of E (side "less") or a ball inside E disjoint from F1 (side
    "greater"); either shows the symmetric difference has non-empty
    interior, which no meager set can cover.
    """
    if e.alphabet != F1_ALPHABET:
        raise ValueError("expected an open set over the alphabet a b c")
    spec = default_counter_spec()
    mu_e = measure_open(e)
    e_dma = open_to_dma(e)
    cl = closure(e_dma)
    if mu(cl) != mu_e:
        raise InvariantError("a regular open set has a null boundary")
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
    witness = kind = None
    if side == "less":
        for v in spec.alphabet.iter_words(1, max(0, search_cap - 1)):
            if counter_run(spec, v).status != IN_V:
                continue
            ball = ball_open(F1_ALPHABET, v + F1_MARKER)
            if is_empty(intersection(open_to_dma(ball), cl)):
                witness, kind = v + F1_MARKER, "ball_in_f1_not_e"
                break
    else:
        for u in F1_ALPHABET.iter_words(1, search_cap):
            if F1_MARKER not in u:
                continue
            if not e.accepts(u):
                continue
            if any(
                u[j] == F1_MARKER and counter_run(spec, u[:j]).status == IN_V
                for j in range(len(u))
            ):
                continue
            witness, kind = u, "ball_in_e_not_f1"
            break
    return RefutationReport(
        mu_e=mu_e,
        root_interval=iv,
        side=side,
        witness=witness,
        witness_kind=kind,
        search_cap=search_cap,
        precision=bits,
        replay_precision=replay_bits,
    )
