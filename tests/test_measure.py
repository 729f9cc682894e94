import random
from fractions import Fraction

import pytest

from omegabaire import (
    DMA,
    OpenSet,
    acceptance_probabilities,
    accepting_witness,
    ball_open,
    bsccs,
    closure,
    complement,
    empty_dma,
    format_decimal,
    format_rational,
    full_dma,
    intersection,
    measure_open,
    mu,
    open_to_dma,
    parse_rational,
    uniform_weights,
    union,
)
from omegabaire import measure
from omegabaire.measure import solve_linear_system

from helpers import (
    AB,
    ABC,
    bareiss_oracle,
    dma_ball_a,
    dma_inf_a,
    dma_survival_dp,
    dma_transient_scc,
    gauss_jordan_oracle,
    random_dma,
    random_weights,
    rerooted,
)


# ---------------------------------------------------------------------------
# formatting


def test_format_rational():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(0)) == "0"


def test_parse_rational():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("2") == Fraction(2)
    with pytest.raises(ValueError):
        parse_rational("one half")


def test_format_decimal_rounds_half_away():
    assert format_decimal(Fraction(1, 2), 4) == "0.5000"
    assert format_decimal(Fraction(1, 3), 4) == "0.3333"
    assert format_decimal(Fraction(2, 3), 4) == "0.6667"
    assert format_decimal(Fraction(1, 8), 2) == "0.13"
    assert format_decimal(Fraction(5), 2) == "5.00"


def test_uniform_weights():
    w = uniform_weights(AB)
    assert w == {"a": Fraction(1, 2), "b": Fraction(1, 2)}


# ---------------------------------------------------------------------------
# the exact linear solver


def _oracle_solve(matrix, rhs):
    return gauss_jordan_oracle([[Fraction(v) for v in row] for row in matrix],
                               [Fraction(v) for v in rhs])


def _random_system(rng: random.Random):
    """A square system mixing int, Fraction and zero entries.

    A third of the systems zero the leading block of one row, which forces
    a row swap at that pivot; a fifth are made singular, by a zero column
    or by one row being a combination of two others.
    """
    m = rng.randint(1, 12)

    def entry():
        r = rng.random()
        if r < 0.3:
            return 0
        if r < 0.6:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    A = [[entry() for _ in range(m)] for _ in range(m)]
    b = [entry() for _ in range(m)]
    kind = rng.random()
    if kind < 0.35:
        t = rng.randrange(m)
        A[t][:t + 1] = [0] * (t + 1)
    elif kind < 0.45:
        col = rng.randrange(m)
        for row in A:
            row[col] = 0
    elif kind < 0.55 and m >= 3:
        i, j, k = rng.sample(range(m), 3)
        x, y = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3)
        A[k] = [x * u + y * v for u, v in zip(A[i], A[j])]
    return A, b


def test_solver_matches_gauss_jordan_oracle():
    rng = random.Random(71)
    solved = singular = 0
    for _ in range(300):
        A, b = _random_system(rng)
        try:
            expected = _oracle_solve(A, b)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                solve_linear_system(A, b)
            singular += 1
            continue
        got = solve_linear_system(A, b)
        assert got == expected
        assert all(type(v) is Fraction for v in got)
        solved += 1
    assert solved >= 150 and singular >= 30


def test_solver_swaps_zero_pivots():
    # each leading pivot is zero until rows are exchanged
    A = [[0, 0, 1], [0, 2, 0], [Fraction(1, 3), 0, 0]]
    b = [5, Fraction(1, 2), 1]
    assert solve_linear_system(A, b) == [Fraction(3), Fraction(1, 4), Fraction(5)]
    # a zero pivot appears only after the first elimination step
    A = [[1, 2, 3], [2, 4, 7], [1, 3, 1]]
    assert solve_linear_system(A, [6, 13, 5]) == _oracle_solve(A, [6, 13, 5])
    with pytest.raises(ValueError, match="singular"):
        solve_linear_system([[1, 2], [Fraction(1, 2), 1]], [1, 1])


def test_solver_matches_sympy_on_larger_systems():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(72)
    for m in (30, 34, 38):
        A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
              if rng.random() < 0.4 else 0 for _ in range(m)] for _ in range(m)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m)]
        M = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                          for row in A])
        B = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in b])
        expected = [Fraction(int(v.p), int(v.q)) for v in M.LUsolve(B)]
        assert solve_linear_system(A, b) == expected


# ---------------------------------------------------------------------------
# bottom strongly connected components


def test_bsccs_single_state():
    a = full_dma(AB)
    assert bsccs(a) == [frozenset({0})]


def test_bsccs_two_absorbing():
    got = bsccs(dma_ball_a())
    assert sorted(len(b) for b in got) == [1, 1]
    assert all(len(b) == 1 for b in got)


def test_bsccs_inf_a_whole_graph():
    assert bsccs(dma_inf_a()) == [frozenset({0, 1})]


# ---------------------------------------------------------------------------
# acceptance probabilities and mu


def test_probabilities_trivial():
    assert acceptance_probabilities(full_dma(AB)) == (Fraction(1),)
    a = DMA.from_parts(AB, 1, 0, [[0, 0]], [])
    assert acceptance_probabilities(a) == (Fraction(0),)


def test_probabilities_eventually_a():
    # state 0 waits for the first a; state 1 is absorbing-accepting
    a = DMA.from_parts(AB, 2, 0, [[1, 0], [1, 1]], [{1}])
    assert acceptance_probabilities(a) == (Fraction(1), Fraction(1))


def test_mu_known_values():
    assert mu(full_dma(AB)) == 1
    assert mu(empty_dma(AB)) == 0
    assert mu(dma_ball_a()) == Fraction(1, 2)
    assert mu(dma_inf_a()) == 1


def test_mu_respects_weights():
    w = {"a": Fraction(1, 3), "b": Fraction(2, 3)}
    assert mu(dma_ball_a(), w) == Fraction(1, 3)
    assert mu(dma_inf_a(), w) == 1


def test_weights_validation():
    with pytest.raises(ValueError):
        mu(dma_ball_a(), {"a": Fraction(1, 2)})
    with pytest.raises(ValueError):
        mu(dma_ball_a(), {"a": Fraction(1, 2), "b": Fraction(1, 3)})
    with pytest.raises(ValueError):
        mu(dma_ball_a(), {"a": Fraction(1), "b": Fraction(0)})


def test_mu_complement_and_additivity():
    rng = random.Random(31)
    for _ in range(40):
        a = random_dma(rng, 5, alphabets=(AB,))
        b = random_dma(rng, 5, alphabets=(AB,))
        w = random_weights(rng, AB)
        assert mu(a, w) + mu(complement(a), w) == 1
        assert mu(union(a, b), w) + mu(intersection(a, b), w) == mu(a, w) + mu(b, w)


def test_mu_in_unit_interval_and_rational():
    rng = random.Random(32)
    for _ in range(60):
        a = random_dma(rng)
        m = mu(a)
        assert isinstance(m, Fraction)
        assert 0 <= m <= 1


def test_measure_open_agrees_with_dma():
    rng = random.Random(33)
    from helpers import random_open
    for _ in range(30):
        e = random_open(rng)
        w = random_weights(rng, AB)
        assert measure_open(e, w) == mu(open_to_dma(e), w)
    assert measure_open(ball_open(AB, "ab")) == Fraction(1, 4)


def test_safety_bracketing_dp():
    # finite-horizon survival is an upper bound decreasing toward mu
    rng = random.Random(34)
    checked = 0
    for _ in range(20):
        c = closure(random_dma(rng, 5, alphabets=(AB,)))
        doomed = frozenset(
            q for q in range(c.n_states)
            if accepting_witness(rerooted(c, q)) is None
        )
        w = uniform_weights(AB)
        m = mu(c, w)
        values = [dma_survival_dp(c, doomed, w, n) for n in (8, 16, 32)]
        assert values[0] >= values[1] >= values[2] >= m
        checked += 1
    assert checked == 20


# ---------------------------------------------------------------------------
# sigma(W), the measure of the open set W.X^omega of a finite word set


def _word_set_open(words):
    """The open set of the balls of the given finite words, from their trie."""
    states = {"": 0}
    for w in words:
        for i in range(1, len(w) + 1):
            states.setdefault(w[:i], len(states))
    dead = len(states)
    k = len(AB.symbols)
    rows = [[dead] * k for _ in range(dead + 1)]
    for pre, q in states.items():
        for si, s in enumerate(AB.symbols):
            ext = pre + s
            if ext in states:
                rows[q][si] = states[ext]
    return OpenSet.from_parts(AB, dead + 1, 0, rows, [states[w] for w in words])


def test_sigma_known_values():
    assert measure_open(_word_set_open(["a"])) == Fraction(1, 2)
    assert measure_open(_word_set_open(["a", "ba"])) == Fraction(3, 4)


def test_sigma_geometric_series():
    # a* b: all words of a's followed by one b; sigma = sum 2^-(k+1) = 1
    e = OpenSet.from_parts(AB, 3, 0, ((0, 1), (2, 2), (2, 2)), {1})
    assert measure_open(e) == 1


def test_open_word_set_counts_nested_balls_once():
    # ab.X^omega lies inside a.X^omega, so W = {a, ab} measures as {a}
    assert measure_open(_word_set_open(["a", "ab"])) == Fraction(1, 2)


def test_sigma_weighted():
    w = {"a": Fraction(1, 4), "b": Fraction(3, 4)}
    expected = Fraction(1, 4) + Fraction(3, 4) * Fraction(1, 4)
    assert measure_open(_word_set_open(["a", "ba"]), w) == expected


# ---------------------------------------------------------------------------
# cross-checks at realistic sizes


WEIGHTINGS = pytest.mark.parametrize("weights", [
    None,
    {"a": Fraction(2, 7), "b": Fraction(5, 7)},
], ids=["uniform", "skewed"])


def _check_fixpoint(n: int, weights) -> None:
    a = dma_transient_scc(random.Random(73), n)
    p = acceptance_probabilities(a, weights)
    w = uniform_weights(AB) if weights is None else weights
    wvec = [w[s] for s in a.alphabet.symbols]
    bottoms = bsccs(a)
    on_bottom = set().union(*bottoms)
    assert a.n_states - len(on_bottom) == n
    for C in bottoms:
        assert all(p[q] == (1 if a.accepts_set(C) else 0) for q in C)
    for q in range(a.n_states):
        assert type(p[q]) is Fraction
        if q not in on_bottom:
            assert 0 < p[q] < 1
            assert p[q] == sum(x * p[t] for x, t in zip(wvec, a.transitions[q]))


@WEIGHTINGS
def test_probabilities_satisfy_fixpoint_at_200_states(weights):
    _check_fixpoint(200, weights)


@WEIGHTINGS
def test_probabilities_satisfy_fixpoint_at_800_states(weights):
    # an 800-state block: elimination that skipped removing each row's
    # content would run for minutes here
    _check_fixpoint(800, weights)


def _accept_sink_open(a: DMA) -> OpenSet:
    """The set of runs reaching an accepting sink, as an open set."""
    finals = [q for C in bsccs(a) if a.accepts_set(C) for q in C]
    return OpenSet.from_parts(a.alphabet, a.n_states, a.initial, a.transitions, finals)


@pytest.mark.parametrize("n,alphabet,oracle_solve", [
    (12, AB, _oracle_solve), (25, ABC, _oracle_solve), (40, AB, _oracle_solve),
    (205, AB, bareiss_oracle),
], ids=["12-ab", "25-abc", "40-ab", "205-ab"])
def test_measures_match_oracle_solver(monkeypatch, n, alphabet, oracle_solve):
    rng = random.Random(74 + n)
    a = dma_transient_scc(rng, n, alphabet)
    e = _accept_sink_open(a)
    w = random_weights(rng, alphabet)
    got = [(f(x), f(x, w)) for f, x in ((mu, a), (measure_open, e))]
    sizes = []

    def oracle(matrix, rhs):
        sizes.append(len(rhs))
        return oracle_solve(matrix, rhs)

    monkeypatch.setattr(measure, "solve_linear_system", oracle)
    expected = [(f(x), f(x, w)) for f, x in ((mu, a), (measure_open, e))]
    assert sizes == [n] * 4
    assert got == expected
    # the only accepting bottom is a sink, so both measure one event
    assert got[0] == got[1]
