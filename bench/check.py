"""Independent checkers for the benchmark, standard library only.

Nothing here imports ``omegabaire``.  Automata are plain data: a symbol
string, transition rows ``rows[q][symbol_index]``, an initial state and an
explicit Muller family of frozensets (see ``gen.Spec``).  Boolean chains
are expression trees over such factors (see ``gen``), and every check is
made on the benchmark's own product of the factors.

Each ``check_*`` function returns ``None`` when the program's answer holds
and a one-line reason when it does not.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from graphs import bottom_sccs, cyclic_sccs, product_rows, reachable, reaching

# ---------------------------------------------------------------------------
# ultimately periodic words and lasso simulation

_UP_RE = re.compile(r"(.*)\((.+)\)\^w\Z")


def parse_up(text: str) -> tuple[str, str]:
    m = _UP_RE.match(text.strip())
    if not m:
        raise ValueError(f"not an ultimately periodic word: {text!r}")
    return m.group(1), m.group(2)


def inf_set(symbols: str, rows, initial: int, prefix: str, period: str) -> frozenset[int]:
    """States a run on ``prefix period^omega`` visits infinitely often."""
    idx = {s: i for i, s in enumerate(symbols)}
    q = initial
    for s in prefix:
        q = rows[q][idx[s]]
    first_seen: dict[int, int] = {}
    starts = []
    while q not in first_seen:
        first_seen[q] = len(starts)
        starts.append(q)
        for s in period:
            q = rows[q][idx[s]]
    states = set()
    for start in starts[first_seen[q]:]:
        cur = start
        for s in period:
            cur = rows[cur][idx[s]]
            states.add(cur)
    return frozenset(states)


def spec_accepts(spec, prefix: str, period: str) -> bool:
    return inf_set(spec.symbols, spec.rows, spec.initial, prefix, period) in spec.family


def cond_accepts(a, prefix: str, period: str) -> bool:
    """Membership in a program automaton: the limit set comes from this
    module's own run simulation, its verdict from ``a.accepts_set``."""
    symbols = "".join(a.alphabet.symbols)
    return a.accepts_set(inf_set(symbols, a.transitions, a.initial, prefix, period))


def open_accepts(ospec, prefix: str, period: str) -> bool:
    """Membership in an open set: some prefix of the word reaches a final."""
    idx = {s: i for i, s in enumerate(ospec.symbols)}
    q = ospec.initial
    if q in ospec.finals:
        return True
    for s in prefix:
        q = ospec.rows[q][idx[s]]
        if q in ospec.finals:
            return True
    seen = set()
    while q not in seen:
        seen.add(q)
        for s in period:
            q = ospec.rows[q][idx[s]]
            if q in ospec.finals:
                return True
    return False


def expr_accepts(expr, factors, prefix: str, period: str) -> bool:
    """Membership in a boolean chain, by simulating every factor."""
    op = expr[0]
    if op == "atom":
        return spec_accepts(factors[expr[1]], prefix, period)
    if op == "compl":
        return not expr_accepts(expr[1], factors, prefix, period)
    left = expr_accepts(expr[1], factors, prefix, period)
    right = expr_accepts(expr[2], factors, prefix, period)
    if op == "union":
        return left or right
    if op == "inter":
        return left and right
    if op == "symdiff":
        return left != right
    raise ValueError(f"unknown chain node {op!r}")


def sample_words(rng, symbols: str, count: int) -> list[tuple[str, str]]:
    """``count`` UP words ``u v^omega``, ``|u|`` at most 6, ``|v|`` 1 to 5."""
    out = []
    for _ in range(count):
        u = "".join(rng.choice(symbols) for _ in range(rng.randint(0, 6)))
        v = "".join(rng.choice(symbols) for _ in range(rng.randint(1, 5)))
        out.append((u, v))
    return out


# ---------------------------------------------------------------------------
# products of factors and their acceptance search


def expr_factors(expr) -> list[int]:
    if expr[0] == "atom":
        return [expr[1]]
    out = []
    for sub in expr[1:]:
        for i in expr_factors(sub):
            if i not in out:
                out.append(i)
    return out


class Product:
    """Reachable product of the factors one chain mentions.

    ``holds(D)`` evaluates the chain's condition on a set ``D`` of product
    states visited infinitely often: each factor accepts iff its projection
    of ``D`` is a member of its family.
    """

    def __init__(self, expr, factors):
        self.expr = expr
        self.ids = expr_factors(expr)
        specs = [factors[i] for i in self.ids]
        self.specs = specs
        self.symbols = specs[0].symbols
        self.states, self.rows = product_rows(specs)

    def atoms(self, D) -> dict[int, bool]:
        out = {}
        for j, fid in enumerate(self.ids):
            proj = frozenset(self.states[q][j] for q in D)
            out[fid] = proj in self.specs[j].family
        return out

    def holds(self, D) -> bool:
        return eval_expr(self.expr, self.atoms(D))

    def find(self, region, negate: bool = False):
        """A cycle-closed subset of ``region`` on which the condition (or,
        with ``negate``, its negation) holds, or None.

        For each assignment of factor verdicts that satisfies the
        condition, factors that must accept fix their projection to one
        family member at a time; the rest are handled by refinement: a
        strongly connected ``S`` whose projection on such a factor is a
        member can only contain answers that miss one of its labels there.
        """
        m = len(self.ids)
        for verdicts in itertools.product((False, True), repeat=m):
            if eval_expr(self.expr, dict(zip(self.ids, verdicts))) == negate:
                continue
            pos = [j for j in range(m) if verdicts[j]]
            neg = [j for j in range(m) if not verdicts[j]]
            for members in itertools.product(*(self.specs[j].family for j in pos)):
                want = dict(zip(pos, members))
                R = frozenset(q for q in region
                              if all(self.states[q][j] in want[j] for j in pos))
                found = self._refine(R, want, neg)
                if found is not None:
                    return found
        return None

    def _refine(self, region, want, neg):
        dead: set[frozenset[int]] = set()
        states, m = self.states, len(self.ids)

        def rec(R):
            for S in cyclic_sccs(self.rows, R):
                if S in dead:
                    continue
                proj = [frozenset(states[q][j] for q in S) for j in range(m)]
                if any(proj[j] != T for j, T in want.items()):
                    dead.add(S)
                    continue
                bad = next((j for j in neg if proj[j] in self.specs[j].family), None)
                if bad is None:
                    return S
                for lab in sorted(proj[bad]):
                    sub = frozenset(q for q in S if states[q][bad] != lab)
                    if sub:
                        found = rec(sub)
                        if found is not None:
                            return found
                dead.add(S)
            return None

        return rec(region)

    def positive_states(self, negate: bool = False) -> set[int]:
        """States of SCCs that contain an accepting (rejecting) limit set."""
        out: set[int] = set()
        for S in cyclic_sccs(self.rows, range(len(self.rows))):
            if self.find(S, negate) is not None:
                out |= S
        return out


def eval_expr(expr, atom_values: dict[int, bool]) -> bool:
    op = expr[0]
    if op == "atom":
        return atom_values[expr[1]]
    if op == "compl":
        return not eval_expr(expr[1], atom_values)
    left = eval_expr(expr[1], atom_values)
    right = eval_expr(expr[2], atom_values)
    return {"union": left or right, "inter": left and right,
            "symdiff": left != right}[op]


# ---------------------------------------------------------------------------
# topology-search checks


def check_witness(expr, factors, word: str | None, product: Product) -> str | None:
    if word is None:
        if product.find(range(len(product.rows))) is not None:
            return "reported empty, but an accepting limit set exists"
        return None
    u, v = parse_up(word)
    if not expr_accepts(expr, factors, u, v):
        return f"witness {word} is not accepted by the factor simulation"
    return None


def check_meager(product: Product, answer: bool) -> str | None:
    expected = not any(product.holds(B) for B in bottom_sccs(product.rows))
    if answer != expected:
        return f"meager {answer}, bottom SCCs of the product give {expected}"
    return None


def check_dense(product: Product, answer: bool) -> str | None:
    live = reaching(product.rows, product.positive_states())
    expected = len(live) == len(product.rows)
    if answer != expected:
        return f"dense {answer}, expected {expected}"
    return None


def check_nowhere_dense(product: Product, answer: bool) -> str | None:
    expected = not any(product.find(B) is not None for B in bottom_sccs(product.rows))
    if answer != expected:
        return f"nowhere dense {answer}, expected {expected}"
    return None


def check_contains(big_expr, small_expr, factors, answer: bool) -> str | None:
    """L(small) <= L(big) iff small and not big has no accepting limit set."""
    diff = Product(("inter", small_expr, ("compl", big_expr)), factors)
    expected = diff.find(range(len(diff.rows))) is None
    if answer != expected:
        return f"contains {answer}, expected {expected}"
    return None


def check_closure(product: Product, words, in_language, in_closure) -> str | None:
    """Exact on samples: a word is in the closure iff its run stays live."""
    live = reaching(product.rows, product.positive_states())
    for (u, v), member, cl in zip(words, in_language, in_closure):
        stays = run_stays(product, u, v, live)
        if cl != stays:
            return f"closure membership of {u}({v})^w is {cl}, expected {stays}"
        if member and not cl:
            return f"{u}({v})^w is in the language but not in its closure"
    return None


def check_interior(product: Product, words, in_language, in_interior) -> str | None:
    """Exact on samples: a word is interior iff its run reaches a state from
    which no rejecting limit set is reachable."""
    doomed = reaching(product.rows, product.positive_states(negate=True))
    for (u, v), member, inner in zip(words, in_language, in_interior):
        expected = not run_stays(product, u, v, doomed)
        if inner != expected:
            return f"interior membership of {u}({v})^w is {inner}, expected {expected}"
        if inner and not member:
            return f"{u}({v})^w is interior but not in the language"
    return None


def run_stays(product: Product, prefix: str, period: str, region) -> bool:
    """Does the run on ``prefix period^omega`` stay inside ``region``?"""
    idx = {s: i for i, s in enumerate(product.symbols)}
    q = 0
    if q not in region:
        return False
    for s in prefix:
        q = product.rows[q][idx[s]]
        if q not in region:
            return False
    seen = set()
    while q not in seen:
        seen.add(q)
        for s in period:
            q = product.rows[q][idx[s]]
            if q not in region:
                return False
    return True


# ---------------------------------------------------------------------------
# measures


def weight_vector(symbols: str, weights) -> list[Fraction]:
    if weights is None:
        return [Fraction(1, len(symbols))] * len(symbols)
    return [Fraction(weights[s]) for s in symbols]


def check_probability_vector(spec, weights, vec) -> str | None:
    """Exact check of a per-state acceptance-probability vector.

    Bottom SCCs carry 1 or 0 as their family says; every other state
    carries the one-step average.  Every state reaches a bottom SCC, so
    this system has exactly one solution and passing it proves ``vec``.
    Specs from ``gen`` are numbered the way the program numbers states,
    so ``vec`` lines up with ``spec.rows``.
    """
    rows = spec.rows
    if len(vec) != len(rows):
        return f"vector has {len(vec)} entries for {len(rows)} states"
    w = weight_vector(spec.symbols, weights)
    in_bottom = {}
    for B in bottom_sccs(rows):
        val = Fraction(1) if B in spec.family else Fraction(0)
        for q in B:
            in_bottom[q] = val
    if len(reaching(rows, in_bottom)) != len(rows):
        return "some state reaches no bottom SCC"
    for q, row in enumerate(rows):
        if q in in_bottom:
            if vec[q] != in_bottom[q]:
                return f"state {q} lies in a bottom SCC but has value {vec[q]}"
        elif vec[q] != sum((wi * vec[t] for wi, t in zip(w, row)), Fraction(0)):
            return f"state {q} breaks the one-step equation"
    return None


def absorption_value(rows, initial, w, bottom_value) -> Fraction:
    """Exact absorption probability by fraction-free (Bareiss) elimination.

    ``bottom_value(B)`` gives the value on the bottom SCC ``B``; the
    transient states are solved as one integer system.
    """
    bottoms = bottom_sccs(rows)
    fixed: dict[int, Fraction] = {}
    for B in bottoms:
        val = bottom_value(B)
        for q in B:
            fixed[q] = val
    if initial in fixed:
        return fixed[initial]
    free = sorted(set(range(len(rows))) - set(fixed))
    pos = {q: i for i, q in enumerate(free)}
    den = 1
    for wi in w:
        den = den * wi.denominator // _gcd(den, wi.denominator)
    wint = [int(wi * den) for wi in w]
    m = len(free)
    mat = []
    rhs_frac = []
    for q in free:
        row = [0] * m
        row[pos[q]] += den
        b = Fraction(0)
        for wi, t in zip(wint, rows[q]):
            if t in pos:
                row[pos[t]] -= wi
            else:
                b += wi * fixed[t]
        mat.append(row)
        rhs_frac.append(b)
    scale = 1
    for b in rhs_frac:
        scale = scale * b.denominator // _gcd(scale, b.denominator)
    for row, b in zip(mat, rhs_frac):
        row.append(int(b * scale))
    x = _bareiss_solve(mat)
    return x[pos[initial]] / scale


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _bareiss_solve(aug: list[list[int]]) -> list[Fraction]:
    """Fraction-free Gauss-Jordan on an integer augmented matrix."""
    m = len(aug)
    prev = 1
    for k in range(m):
        piv = next((i for i in range(k, m) if aug[i][k]), None)
        if piv is None:
            raise ValueError("singular system")
        aug[k], aug[piv] = aug[piv], aug[k]
        pk = aug[k]
        akk = pk[k]
        for i in range(m):
            if i == k:
                continue
            ri = aug[i]
            aik = ri[k]
            for j in range(m + 1):
                if j != k:
                    ri[j] = (akk * ri[j] - aik * pk[j]) // prev
            ri[k] = 0
        prev = akk
    return [Fraction(aug[i][m], aug[i][i]) for i in range(m)]


def spec_measure(spec, weights) -> Fraction:
    family = {frozenset(m) for m in spec.family}
    return absorption_value(
        spec.rows, spec.initial, weight_vector(spec.symbols, weights),
        lambda B: Fraction(1) if B in family else Fraction(0),
    )


def open_measure(ospec) -> Fraction:
    """Uniform probability of ever reaching a final state of an open set."""
    finals = set(ospec.finals)
    k = len(ospec.symbols)
    rows = tuple((q,) * k if q in finals else ospec.rows[q] for q in range(len(ospec.rows)))
    live = reachable(rows, ospec.initial)
    order = sorted(live)
    pos = {q: i for i, q in enumerate(order)}
    sub = tuple(tuple(pos[t] for t in rows[q]) for q in order)
    fin = {pos[q] for q in finals if q in pos}
    return absorption_value(
        sub, pos[ospec.initial], weight_vector(ospec.symbols, None),
        lambda B: Fraction(1) if B & fin else Fraction(0),
    )


def check_measure(spec, weights, value) -> str | None:
    expected = spec_measure(spec, weights)
    if value != expected:
        return f"measure {value}, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# OAF text written by the program


def parse_oaf_text(text: str):
    """Minimal reader for the program's own OAF output.

    Returns ``("dma", symbols, rows, initial, family)`` or
    ``("open", symbols, rows, initial, finals)``.
    """
    fields: dict[str, str] = {}
    trans = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "trans":
            q, s, t = rest.split()
            trans.append((int(q), s, int(t)))
        else:
            fields[key] = rest
    symbols = "".join(fields["alphabet"].split())
    n = int(fields["states"])
    idx = {s: i for i, s in enumerate(symbols)}
    rows = [[None] * len(symbols) for _ in range(n)]
    for q, s, t in trans:
        rows[q][idx[s]] = t
    if any(t is None for row in rows for t in row):
        raise ValueError("incomplete transition table")
    rows = tuple(tuple(r) for r in rows)
    initial = int(fields["initial"])
    if fields["kind"] == "dma":
        family = frozenset(
            frozenset(int(x) for x in g.split())
            for g in re.findall(r"\{([^{}]*)\}", fields.get("accept", ""))
        )
        return ("dma", symbols, rows, initial, family)
    finals = frozenset(int(x) for x in fields.get("final", "").split())
    return ("open", symbols, rows, initial, finals)


# ---------------------------------------------------------------------------
# one-counter language


def counter_survivors(n: int) -> int:
    """Words over {a, b} of length n whose counter (start 1, a: -1, b: +2)
    stays positive throughout, counted exactly."""
    alive = {1: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for c, cnt in alive.items():
            if c > 1:
                nxt[c - 1] = nxt.get(c - 1, 0) + cnt
            nxt[c + 2] = nxt.get(c + 2, 0) + cnt
        alive = nxt
    return sum(alive.values())


def check_survival(n: int, value: Fraction) -> str | None:
    expected = Fraction(counter_survivors(n), 2**n)
    if value != expected:
        return f"survival({n}) = {value}, expected {expected}"
    return None


def cubic(k: int, t: Fraction) -> Fraction:
    return t * t * t - k * t + 1


def check_root(k: int, precision: int, lo: Fraction, hi: Fraction) -> str | None:
    if not (0 < lo < hi or lo == 0 < hi):
        return f"bad bracket [{lo}, {hi}]"
    if hi - lo > Fraction(1, 2**precision):
        return f"bracket width {hi - lo} exceeds 2^-{precision}"
    if not (cubic(k, lo) > 0 > cubic(k, hi)):
        return f"no sign change of t^3-{k}t+1 on [{lo}, {hi}]"
    return None


def check_refutation(ospec, report: dict) -> str | None:
    """``v3 f1-refute``: mu_e is the open set's absorption probability and
    lies, times three, on the side of the root bracket the report names."""
    mu_e = Fraction(report["mu_e"])
    expected = open_measure(ospec)
    if mu_e != expected:
        return f"mu_e {mu_e}, expected {expected}"
    lo, hi = (Fraction(x) for x in report["root_interval"].strip("[]").split(","))
    if not cubic(3, lo) > 0 > cubic(3, hi):
        return "root interval does not bracket a root of t^3-3t+1"
    side = report["side"]
    if side == "less" and not 3 * mu_e < lo:
        return "side 'less' but 3*mu_e is not below the bracket"
    if side == "greater" and not 3 * mu_e > hi:
        return "side 'greater' but 3*mu_e is not above the bracket"
    if side not in ("less", "greater"):
        return f"unknown side {side!r}"
    return None
