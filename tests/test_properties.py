"""Property tests that cross-check independent implementations at realistic sizes."""

import random
from fractions import Fraction
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from omegabaire import (  # noqa: E402
    DMA,
    OpenSet,
    acceptance_probabilities,
    avoid_infix_dma,
    avoided_infix,
    closure,
    complement,
    contains,
    equivalent,
    f1_refute_open,
    from_dma,
    from_open,
    interior,
    intersection,
    is_dense,
    is_meager,
    is_meager_via_measure,
    is_nowhere_dense,
    mu,
    open_to_dma,
    parse_oaf,
    pref_dfa,
    serialize_oaf,
    synthesize_abp_witness,
    union,
    up_membership,
    up_normalize,
    verify_abp_witness,
)
from omegabaire import automata  # noqa: E402
from omegabaire.automata import (  # noqa: E402
    _lasso_witness,
    _live_states,
    _realizable_sets,
    nontrivial_sccs,
)
from omegabaire import measure  # noqa: E402
from omegabaire.conditions import FALSE, TRUE, Atom, c_and, c_not, c_or, family_atom  # noqa: E402

from helpers import (  # noqa: E402
    AB,
    ABC,
    abp_finals_oracle,
    bareiss_oracle,
    conditions_agree_oracle,
    dense_matrix,
    f1_ball_kind_oracle,
    lasso_oracle,
    realizable_sets_oracle,
    shortlex_avoided_infix_oracle,
    sparse_rows,
    unreduced_probabilities,
)


def _reach(rows, q) -> frozenset[int]:
    seen = {q}
    stack = [q]
    while stack:
        for t in rows[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


@st.composite
def block_dmas(draw):
    """DMAs of 20-60 reachable states in up to five blocks of consecutive
    states.

    Symbol 0 walks each block from its first state to its last, and the
    first block's states 0, 1, ... enter the later blocks on symbol 1.  All
    other edges stay inside their block, except that a leaky block's last
    state leaves it for a later block on symbol 0; so there are transient
    states and often several bottom SCCs.  The family mixes arbitrary sets
    with sets reachable from one state, which are bottom SCCs when that
    state lies in one.
    """
    n = draw(st.integers(20, 60))
    alphabet = draw(st.sampled_from([AB, ABC]))
    starts = [0, *sorted(draw(st.sets(st.integers(4, n - 1), max_size=4)))]
    rows = []
    for lo, hi in zip(starts, [*starts[1:], n]):
        for q in range(lo, hi):
            rows.append([q + 1 if si == 0 and q + 1 < hi else draw(st.integers(lo, hi - 1))
                         for si in range(len(alphabet))])
        if 0 < lo and hi < n and draw(st.booleans()):
            rows[hi - 1][0] = draw(st.integers(hi, n - 1))
    for j, lo in enumerate(starts[1:]):
        rows[j][1] = lo
    members = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=3))
    members += [_reach(rows, q) for q in draw(st.lists(st.integers(0, n - 1), max_size=4))]
    return DMA.from_parts(alphabet, n, 0, rows, members)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(block_dmas())
def test_graph_meagerness_matches_measure(a):
    # the complement reuses the SCCs cached on ``a`` by the first call;
    # ``acceptance_probabilities`` reads its 0s off the same bottom SCCs as
    # ``is_meager``, so the independent side is the unreduced solve
    for d in (a, complement(a)):
        unreduced = unreduced_probabilities(d)
        assert is_meager(d) == is_meager_via_measure(d) == (unreduced[d.initial] == 0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(block_dmas())
def test_synthesized_finals_match_the_exact_solve(a):
    # the graph pass keeps exactly the states of acceptance probability 1,
    # so the symmetric difference it leaves is null
    for f in (a, complement(a)):
        w = synthesize_abp_witness(f)
        e = OpenSet.from_parts(f.alphabet, f.n_states, f.initial, f.transitions,
                               abp_finals_oracle(f))
        assert (w.e.transitions, w.e.finals) == (e.transitions, e.finals)
        assert mu(w.fprime) == 0


def _refuse_search(rows, cond, C):
    raise AssertionError("witness synthesis must run no emptiness search")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(block_dmas())
def test_synthesized_witness_passes_full_verification(a):
    # synthesis checks only that fprime is meager, and runs no emptiness
    # search; the containment it holds by construction is searched here
    for f in (a, complement(a)):
        with patch.object(automata, "_search_scc", _refuse_search):
            w = synthesize_abp_witness(f)
        assert verify_abp_witness(f, w)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(block_dmas())
def test_density_and_avoided_infix_match_the_topology(a):
    # closure, interior and the prefix DFA build fresh automata, while the
    # decisions read only the live set and the bottom SCCs of ``a``
    nowhere_dense = is_nowhere_dense(a)
    assert nowhere_dense == interior(closure(a)).is_empty()
    p = pref_dfa(a)
    assert is_dense(a) == (len(p.finals) == p.n_states)
    w = avoided_infix(a)
    assert (w is None) == (not nowhere_dense)
    if w is not None:
        assert contains(avoid_infix_dma(a.alphabet, w), a)
        # the empty language avoids a first symbol
        assert len(w) <= max(1, len(_live_states(a)) ** 2)
        assert len(w) >= len(shortlex_avoided_infix_oracle(a))


@st.composite
def up_words(draw, alphabet):
    """Ultimately periodic words with a prefix of up to 20 symbols, long
    enough to reach later blocks of ``block_dmas``, and a period of 1-8."""
    symbols = st.sampled_from(alphabet.symbols)
    prefix = "".join(draw(st.lists(symbols, max_size=20)))
    period = "".join(draw(st.lists(symbols, min_size=1, max_size=8)))
    return up_normalize(alphabet, prefix, period)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(block_dmas(), st.data())
def test_up_membership_matches_the_lasso_oracle(a, data):
    # a closure whose every state is live runs on ``a``'s own table
    words = [data.draw(up_words(a.alphabet)) for _ in range(4)]
    for d in (a, complement(a), closure(a)):
        for x in words:
            assert up_membership(d, x) == lasso_oracle(d, x)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(block_dmas())
def test_synthesized_open_part_is_regular_open(a):
    # E = int(cl(E)): the synthesized E is the canonical representative
    e = open_to_dma(synthesize_abp_witness(a).e)
    assert equivalent(open_to_dma(interior(closure(e))), e)


def _periodic_states(a, x) -> tuple[int, frozenset[int]]:
    """The state at which the run of ``x`` starts repeating its period, and
    the states it visits from there on, by stepping symbol by symbol."""
    q = a.run_word(a.initial, x.prefix)
    starts = []
    while q not in starts:
        starts.append(q)
        q = a.run_word(q, x.period)
    visited = set()
    p = q
    for _ in range(len(starts) - starts.index(q)):
        for sym in x.period:
            p = a.step(p, sym)
            visited.add(p)
    return q, frozenset(visited)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(block_dmas())
def test_lasso_witness_visits_exactly_its_set(a):
    # each SCC is accepted by exactly one of ``a`` and its complement, which
    # builds the witness; ``only`` is ``a`` with the family {C}
    c = complement(a)
    for C in nontrivial_sccs(a):
        d, other = (a, c) if a.accepts_set(C) else (c, a)
        x = _lasso_witness(d, C)
        start, visited = _periodic_states(a, x)
        assert start in C and visited == C
        only = DMA(a.alphabet, a.n_states, a.initial, a.transitions,
                   family_atom(a.n_states, (C,)), (C,))
        assert up_membership(only, x) and not up_membership(other, x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(block_dmas())
def test_probabilities_match_the_bareiss_oracle(a):
    for d in (a, complement(a)):
        got = acceptance_probabilities(d)
        assert list(got) == unreduced_probabilities(d)
        with patch.object(measure, "solve_linear_system",
                          lambda rows, rhs: bareiss_oracle(dense_matrix(rows), rhs)):
            assert acceptance_probabilities(d) == got


@st.composite
def sparse_systems(draw):
    """Square systems of 20-60 unknowns with a few nonzeros per row.

    Hypothesis draws the shape and a seed, and the seed draws the entries:
    ``int`` or ``Fraction``, nonzero in column ``perm[i]`` of row ``i`` for
    a random permutation, plus up to three more per row.  Then a drawn
    number of rows lose their diagonal entry, which may be that nonzero,
    and up to two rows become combinations of two other rows, which makes
    the system singular unless those two were already dependent.
    """
    m = draw(st.integers(20, 60))
    zeroed = draw(st.integers(0, m))
    combined = draw(st.sampled_from((0, 0, 0, 1, 2)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entry():
        if rng.random() < 0.5:
            return rng.choice([-1, 1]) * rng.randint(1, 9)
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 12))

    perm = rng.sample(range(m), m)
    A = [[0] * m for _ in range(m)]
    for i in range(m):
        A[i][perm[i]] = entry()
        for _ in range(rng.randint(0, 3)):
            A[i][rng.randrange(m)] = entry()
    for i in rng.sample(range(m), zeroed):
        A[i][i] = 0
    for _ in range(combined):
        i, j, k = rng.sample(range(m), 3)
        x, y = entry(), rng.randint(-3, 3)
        A[k] = [x * u + y * v for u, v in zip(A[i], A[j])]
    b = [entry() if rng.random() < 0.8 else 0 for _ in range(m)]
    return A, b


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_systems())
def test_sparse_solver_matches_the_bareiss_oracle(system):
    A, b = system
    try:
        expected = bareiss_oracle(A, b)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            measure.solve_linear_system(sparse_rows(A), b)
        return
    got = measure.solve_linear_system(sparse_rows(A), b)
    assert got == expected
    assert all(type(v) is Fraction for v in got)


@st.composite
def abc_open_sets(draw):
    """Open sets over ``abc`` drawn on 20-60 states with up to three finals.

    Symbol ``a`` walks the non-final states in increasing order, so all of
    them are reachable; every other edge is arbitrary.
    """
    n = draw(st.integers(20, 60))
    finals = draw(st.sets(st.integers(1, n - 1), max_size=3))
    rows = [[draw(st.integers(0, n - 1)) for _ in ABC] for _ in range(n)]
    walk = [q for q in range(n) if q not in finals]
    for q, t in zip(walk, walk[1:]):
        rows[q][0] = t
    return OpenSet.from_parts(ABC, n, 0, rows, finals)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(abc_open_sets())
def test_f1_refutation_ball_lies_in_the_difference(e):
    rep = f1_refute_open(e)
    assert f1_ball_kind_oracle(e, rep.witness) == rep.witness_kind


@st.composite
def random_dmas(draw, max_states, alphabets=(AB, ABC)):
    """DMAs of 1 to ``max_states`` states with up to four family members.

    Symbol 0 walks the states ``0 .. m-1`` round a cycle, for a drawn ``m``,
    so one SCC has at least ``m`` states; every other edge is arbitrary.
    """
    n = draw(st.sampled_from(range(1, max_states + 1)))
    m = draw(st.sampled_from(range(1, n + 1)))
    alphabet = draw(st.sampled_from(alphabets))
    rows = [[(q + 1) % m if si == 0 and q < m else draw(st.integers(0, n - 1))
             for si in range(len(alphabet))] for q in range(n)]
    members = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=4))
    return DMA.from_parts(alphabet, n, 0, rows, members)


@st.composite
def derived_dmas(draw):
    """Random DMAs of up to 12 states, their complements and closures, and
    unions of 4- and 3-state ones: every SCC has at most 12 states."""
    op = draw(st.sampled_from(["plain", "complement", "closure", "union"]))
    if op == "union":
        a = draw(random_dmas(4))
        b = draw(random_dmas(3, (a.alphabet,)))
        return union(a, b)
    a = draw(random_dmas(12))
    return {"plain": a, "complement": complement(a), "closure": closure(a)}[op]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(derived_dmas())
def test_realizable_sets_match_subset_enumeration(a):
    assert [frozenset(s) for s in _realizable_sets(a)] == realizable_sets_oracle(a)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(block_dmas(), st.data())
def test_product_collapses_onto_the_operand_it_refines(a, data):
    # p's state determines a's, and p ∧ a agrees with p; p ∨ ¬a is built on
    # the same graph but under another condition, so it is a fresh automaton
    b = data.draw(random_dmas(4, (a.alphabet,)))
    p = intersection(a, b)
    assert intersection(p, a) is p
    q = union(p, complement(a))
    for _ in range(4):
        x = data.draw(up_words(a.alphabet))
        assert up_membership(q, x) == lasso_oracle(q, x)


_ATOMS = [Atom((i,), frozenset({frozenset({i})})) for i in range(4)]


def condition_trees(atoms):
    """Condition trees over ``atoms``, built by the folding constructors
    that every automaton's condition is built by."""
    parts = st.lists
    return st.recursive(
        st.sampled_from([TRUE, FALSE, *atoms]),
        lambda sub: st.one_of(sub.map(c_not), parts(sub, min_size=2, max_size=3).map(c_and),
                              parts(sub, min_size=2, max_size=3).map(c_or)),
        max_leaves=10)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(condition_trees(_ATOMS), condition_trees(_ATOMS))
def test_condition_agreement_matches_the_truth_table(x, y):
    assert automata._agree(x, y) == conditions_agree_oracle(x, y)
    # absorption and De Morgan give agreeing pairs of different shapes
    for u, v in ((x, c_or([x, c_and([x, y])])),
                 (c_and([x, y]), c_not(c_or([c_not(x), c_not(y)])))):
        assert automata._agree(u, v) and conditions_agree_oracle(u, v)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(block_dmas())
def test_oaf_round_trip_at_realistic_sizes(a):
    doc = from_dma(a)
    parsed = parse_oaf(serialize_oaf(doc))
    assert parsed == doc and equivalent(parsed.to_dma(), a)
    e = interior(a)
    doc = from_open(e)
    parsed = parse_oaf(serialize_oaf(doc))
    assert parsed == doc and equivalent(open_to_dma(parsed.to_open()), open_to_dma(e))
