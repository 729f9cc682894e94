import random

import pytest

from omegabaire import automata
from omegabaire import (
    DMA,
    OpenSet,
    UPWord,
    accepting_witness,
    avoid_infix_dma,
    ball_open,
    closure,
    complement,
    containment_counterexample,
    contains,
    empty_open,
    equivalent,
    full_dma,
    full_open,
    interior,
    intersection,
    is_dense,
    is_empty,
    is_nowhere_dense,
    mu,
    open_to_dma,
    open_union,
    parse_up,
    pref_dfa,
    symdiff,
    union,
    up_membership,
)

from helpers import (
    AB,
    ABC,
    dma_a_ball_or_bw,
    dma_ball_a,
    dma_inf_a,
    dma_one_b,
    dma_singleton,
    dma_transient_cycle,
    emptiness_oracle,
    lasso_oracle,
    random_dma,
    random_open,
    random_up,
)


# ---------------------------------------------------------------------------
# construction and normal form


def test_from_parts_prunes_and_renumbers():
    # state 2 unreachable; family members touching it vanish
    a = DMA.from_parts(AB, 3, 0, [[0, 1], [0, 1], [2, 2]], [{0}, {2}, {0, 2}])
    assert a.n_states == 2
    assert a.initial == 0
    assert a.acceptance == (frozenset({0}),)


def test_from_parts_rejects_bad_input():
    with pytest.raises(ValueError):
        DMA.from_parts(AB, 2, 5, [[0, 1], [0, 1]], [{0}])
    with pytest.raises(ValueError):
        DMA.from_parts(AB, 2, 0, [[0, 1], [0, 9]], [{0}])
    with pytest.raises(ValueError):
        DMA.from_parts(AB, 2, 0, [[0, 1], [0, 1]], [{7}])


@pytest.mark.parametrize("build", [
    lambda initial, rows: DMA.from_parts(AB, 2, initial, rows, [{0}]),
    lambda initial, rows: OpenSet.from_parts(AB, 2, initial, rows, [0]),
], ids=["dma", "open"])
@pytest.mark.parametrize("initial, rows, named", [
    (0, [[0, 1], [0, True]], "1 --b--> True"),
    (0, [[0, 1.0], [0, 1]], "0 --b--> 1.0"),
    (0, [["1", 1], [0, 1]], "0 --a--> '1'"),
    (0, [[0, 1], [0, -1]], "1 --b--> -1"),
    (0, {(0, "a"): 0, (0, "b"): 1, (True, "a"): 0, (True, "b"): 1},
     "from True on 'a'"),
    (5, [[0, 1], [0, 1]], "initial state 5"),
    (-1, [[0, 1], [0, 1]], "initial state -1"),
    (True, [[0, 1], [0, 1]], "initial state True"),
    (0.0, [[0, 1], [0, 1]], "initial state 0.0"),
])
def test_from_parts_rejects_non_state_ids(build, initial, rows, named):
    # a bool, float or str is no state id, even where it compares equal to one
    with pytest.raises(ValueError, match=named.replace(".", r"\.")):
        build(initial, rows)


def test_from_parts_keeps_tuple_rows():
    # tuples are immutable, so a canonical table is shared with the caller
    rows = ((1, 0), (1, 1))
    assert DMA.from_parts(AB, 2, 0, rows, [{1}]).transitions is rows
    listed = [(1, 0), (1, 1)]
    a = DMA.from_parts(AB, 2, 0, listed, [{1}])
    assert all(a.transitions[q] is listed[q] for q in range(2))
    e = OpenSet.from_parts(AB, 2, 0, rows, [])
    assert all(e.transitions[q] is rows[q] for q in range(2))


def test_from_parts_keeps_family_members_under_identity_numbering():
    # state 2 is unreachable, so it is pruned, but 0 and 1 keep their ids
    rows = ((1, 0), (1, 1), (2, 2))
    family = [frozenset({1}), frozenset({0, 1}), frozenset({2})]
    a = DMA.from_parts(AB, 3, 0, rows, family)
    assert a.n_states == 2 and a.acceptance == tuple(family[:2])
    assert all(kept is given for kept, given in zip(a.acceptance, family))
    # with the initial state moved the ids change, so the members are new
    b = DMA.from_parts(AB, 2, 1, ((1, 0), (0, 1)), family[:2])
    assert b.acceptance == (frozenset({0}), frozenset({0, 1}))
    assert b.acceptance[0] is not family[0]


def test_from_parts_copies_list_rows():
    rows = [[0, 1], [0, 1]]
    a = DMA.from_parts(AB, 2, 0, rows, [{0}, {0, 1}])
    before, measure = a.transitions, mu(a)
    rows[0][1] = 0
    rows[1][:] = [1, 1]
    assert a.transitions == before == ((0, 1), (0, 1))
    assert mu(a) == measure == 1


def test_closure_and_interior_share_the_table():
    rng = random.Random(41)
    dense = 0
    for _ in range(200):
        a = random_dma(rng, 8)
        if len(automata._live_states(a)) == a.n_states:
            dense += 1
            assert closure(a).transitions is a.transitions
        e = interior(a)
        if e.n_states == a.n_states:
            assert all(e.transitions[q] is a.transitions[q]
                       for q in range(a.n_states) if q not in e.finals)
    assert dense >= 20


def test_accepts_set_uses_family():
    a = dma_inf_a()
    assert a.accepts_set({0}) and a.accepts_set({0, 1})
    assert not a.accepts_set({1}) and not a.accepts_set(set())


# ---------------------------------------------------------------------------
# strongly connected components


def _random_region(rng, n, trial):
    if trial % 10 == 0:
        return frozenset()
    if trial % 10 == 1:
        return range(n)
    if trial % 10 == 2:
        return frozenset(range(n))
    density = rng.random()
    return frozenset(q for q in range(n) if rng.random() < density)


def test_scc_matches_networkx_on_random_regions():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for trial in range(300):
        n = rng.randint(1, 60)
        rows = [tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))) for _ in range(n)]
        region = _random_region(rng, n, trial)
        g = nx.DiGraph()
        g.add_nodes_from(region)
        g.add_edges_from((q, t) for q in region for t in rows[q] if t in region)
        expected = {frozenset(c) for c in nx.strongly_connected_components(g)}

        comps = automata.strongly_connected_components(rows, region)
        assert all(c == sorted(c) for c in comps)
        assert {frozenset(c) for c in comps} == expected
        assert sum(len(c) for c in comps) == len(region)
        # reverse topological: each component follows every one it reaches
        pos = {q: i for i, c in enumerate(comps) for q in c}
        assert all(pos[t] <= pos[q] for q in region for t in rows[q] if t in region)

        cyclic = sorted((c for c in expected if len(c) > 1 or g.has_edge(min(c), min(c))),
                        key=min)
        assert automata._induced_sccs(rows, region) == cyclic


# ---------------------------------------------------------------------------
# boolean algebra


def test_complement_involution_and_excluded_middle():
    rng = random.Random(11)
    for _ in range(25):
        a = random_dma(rng, 5)
        assert equivalent(complement(complement(a)), a)
        assert equivalent(union(a, complement(a)), full_dma(a.alphabet))
        assert is_empty(intersection(a, complement(a)))


def test_symdiff_hand_case():
    a, b = dma_inf_a(), dma_ball_a()
    d = symdiff(a, b)
    assert up_membership(d, parse_up(AB, "b(a)^w"))
    assert not up_membership(d, parse_up(AB, "(a)^w"))


def test_de_morgan_on_random_pairs():
    rng = random.Random(12)
    for _ in range(15):
        a = random_dma(rng, 4, alphabets=(AB,))
        b = random_dma(rng, 4, alphabets=(AB,))
        assert equivalent(complement(union(a, b)),
                          intersection(complement(a), complement(b)))


def test_boolean_alphabet_mismatch():
    with pytest.raises(ValueError):
        union(dma_inf_a(), full_dma(ABC))


# ---------------------------------------------------------------------------
# emptiness and witnesses


def test_empty_family_is_empty():
    a = DMA.from_parts(AB, 1, 0, [[0, 0]], [])
    assert is_empty(a)
    assert accepting_witness(a) is None


def test_full_space_witness():
    a = DMA.from_parts(AB, 1, 0, [[0, 0]], [{0}])
    w = accepting_witness(a)
    assert w == UPWord(AB, "", "a")


def test_inf_a_witness_period_contains_a():
    w = accepting_witness(dma_inf_a())
    assert w is not None and "a" in w.period
    assert up_membership(dma_inf_a(), w)


def test_emptiness_matches_subset_oracle():
    rng = random.Random(13)
    cases = [random_dma(rng) for _ in range(150)]
    # negated atoms: complements and symmetric differences of small pairs
    for _ in range(100):
        alphabet = rng.choice((AB, ABC))
        x, y = (random_dma(rng, 3, (alphabet,)) for _ in range(2))
        cases += [complement(x), symdiff(x, y), complement(symdiff(x, y))]
    for a in cases:
        empty = is_empty(a)
        assert empty == emptiness_oracle(a)
        w = accepting_witness(a)
        assert (w is None) == empty
        if w is not None:
            assert up_membership(a, w)


def test_nested_family_complement_search_is_polynomial(monkeypatch):
    # a: q -> n-1 and b: q -> max(q-1, 0); the cycle-closed sets are
    # {m, ..., n-1} for every m and {0}, all in the family, so the complement
    # is empty.  Refinement peels one label at a time off each nested member:
    # about n^2/2 Tarjan passes, the bound stated in the README
    n = 100
    rows = [[n - 1, max(q - 1, 0)] for q in range(n)]
    a = DMA.from_parts(AB, n, 0, rows, [set(range(m, n)) for m in range(n)] + [{0}])
    calls = []
    refine = automata._refine

    def counting_refine(*args):
        calls.append(None)
        return refine(*args)

    monkeypatch.setattr(automata, "_refine", counting_refine)
    assert is_empty(complement(a))
    assert len(calls) <= n * (n + 1) // 2 + n


# ---------------------------------------------------------------------------
# UP membership


def test_up_membership_full_space():
    rng = random.Random(14)
    f = full_dma(AB)
    for _ in range(10):
        assert up_membership(f, random_up(rng))


def test_up_membership_hand_cases():
    a = dma_inf_a()
    assert not up_membership(a, parse_up(AB, "a(b)^w"))
    assert up_membership(a, parse_up(AB, "(ab)^w"))


def test_up_membership_matches_lasso_oracle():
    rng = random.Random(15)
    for _ in range(200):
        a = random_dma(rng)
        x = random_up(rng, a.alphabet)
        assert up_membership(a, x) == lasso_oracle(a, x)


def test_up_membership_alphabet_mismatch():
    with pytest.raises(ValueError):
        up_membership(dma_inf_a(), parse_up(ABC, "(c)^w"))


# ---------------------------------------------------------------------------
# closure and interior


def test_closure_idempotent_on_closed():
    c = closure(dma_singleton("a"))
    assert equivalent(c, dma_singleton("a"))
    assert equivalent(closure(c), c)


def test_closure_one_b_adds_a_power():
    c = closure(dma_one_b())
    assert up_membership(c, parse_up(AB, "(a)^w"))
    assert up_membership(c, parse_up(AB, "b(a)^w"))
    assert not up_membership(c, parse_up(AB, "(b)^w"))


def test_closure_contains_language_and_is_closed():
    rng = random.Random(16)
    for _ in range(40):
        a = random_dma(rng, 5)
        c = closure(a)
        assert contains(c, a)
        assert equivalent(closure(c), c)


def test_closure_of_large_transient_scc():
    # 20 projection labels inside one SCC, none of them in the family
    a = dma_transient_cycle()
    cl = closure(a)
    assert contains(cl, a)
    assert up_membership(cl, parse_up(AB, "(a)^w"))
    assert not up_membership(a, parse_up(AB, "(a)^w"))
    assert up_membership(cl, parse_up(AB, "a" * 19 + "b(a)^w"))
    assert not up_membership(cl, parse_up(AB, "a" * 10 + "b(a)^w"))


def test_interior_hand_cases():
    assert interior(full_dma(AB)).accepts("")
    assert interior(dma_singleton("a")).is_empty()
    it = interior(dma_a_ball_or_bw())
    d = open_to_dma(it)
    assert up_membership(d, parse_up(AB, "a(b)^w"))
    assert up_membership(d, parse_up(AB, "a(a)^w"))
    assert not up_membership(d, parse_up(AB, "(b)^w"))


def test_interior_is_contained_open_subset():
    rng = random.Random(17)
    for _ in range(40):
        a = random_dma(rng, 5)
        it = open_to_dma(interior(a))
        assert contains(a, it)
        assert equivalent(open_to_dma(interior(it)), it)


def test_closure_interior_duality():
    rng = random.Random(18)
    for _ in range(25):
        a = random_dma(rng, 4)
        lhs = open_to_dma(interior(a))
        rhs = complement(closure(complement(a)))
        assert equivalent(lhs, rhs)


def _difference_chain():
    # a.X^w  ∩  (a.X^w ∪ {b^w})  minus  a*ba^w; its live states and those of
    # its complement differ, and neither language is dense or nowhere dense
    return intersection(intersection(dma_ball_a(), dma_a_ball_or_bw()),
                        complement(dma_one_b()))


def _query_results(a):
    it, pd = interior(a), pref_dfa(a)
    return (accepting_witness(a), (it.transitions, it.finals), (pd.transitions, pd.finals))


def test_graph_of_each_automaton_analysed_once(monkeypatch):
    searches, reaching, passes = [], [], []
    search_scc, states_reaching = automata._search_scc, automata._states_reaching
    induced_sccs = automata._induced_sccs

    def counting_search(rows, cond, C):
        searches.append((cond, C))
        return search_scc(rows, cond, C)

    def counting_reaching(d, targets):
        reaching.append(d)
        return states_reaching(d, targets)

    def counting_induced(rows, region):
        # a region given as a range is the whole-graph pass of nontrivial_sccs
        if isinstance(region, range):
            passes.append(rows)
        return induced_sccs(rows, region)

    def own_searches(d):
        return sum(1 for cond, _ in searches if cond is d.cond)

    monkeypatch.setattr(automata, "_search_scc", counting_search)
    monkeypatch.setattr(automata, "_states_reaching", counting_reaching)
    monkeypatch.setattr(automata, "_induced_sccs", counting_induced)
    a = _difference_chain()
    # the complement is built once, before either polarity has its SCCs, and
    # the one Tarjan pass that computes them serves both
    c = complement(a)
    assert complement(a) is c and complement(c) is a
    n_sccs = len(automata.nontrivial_sccs(a))
    assert n_sccs > 1 and automata.nontrivial_sccs(c) == automata.nontrivial_sccs(a)
    assert len(passes) == 1
    # the interior reads the complement's live set: it searches every SCC
    # under the complement's condition and none under ``a``'s
    it = interior(a)
    assert own_searches(a) == 0 and own_searches(c) == len(searches) == n_sccs
    assert not any(d is a for d in reaching)
    # a second interior, and the complement's emptiness, search nothing: the
    # complement's least SCC rejects and its second accepts
    again = interior(a)
    assert (again.transitions, again.finals) == (it.transitions, it.finals)
    assert not is_empty(complement(a))
    assert len(searches) == n_sccs
    # the least SCC of ``a`` accepts, so the witness needs one search
    x = accepting_witness(a)
    assert up_membership(a, x) and own_searches(a) == 1
    assert not is_empty(a) and own_searches(a) == 1
    first = _query_results(a)
    assert not is_dense(a)
    closure(a)
    assert not is_nowhere_dense(a)
    # the live set of ``a`` is computed once
    assert sum(1 for d in reaching if d is a) == 1
    assert own_searches(a) == n_sccs
    # density and nowhere density read the cached live set and search nothing
    searched = len(searches)
    assert not is_dense(a) and not is_nowhere_dense(a)
    assert len(searches) == searched
    assert _query_results(a) == first and own_searches(a) == n_sccs

    # the complement answers from its own caches, as a complement built
    # afresh from an equal automaton does
    fresh = complement(_difference_chain())
    y = accepting_witness(c)
    assert up_membership(c, y) and not up_membership(a, y)
    assert not equivalent(closure(a), closure(fresh))
    last = _query_results(fresh)
    cl, fresh_cl = closure(c), closure(fresh)
    assert cl.transitions == fresh_cl.transitions and equivalent(cl, fresh_cl)
    assert _query_results(c) == last
    # over the whole test each SCC was searched at most once per polarity,
    # and the SCCs of ``a`` and ``c`` came from one pass
    assert own_searches(a) == own_searches(c) == n_sccs
    mine = [(id(cond), C) for cond, C in searches if cond is a.cond or cond is c.cond]
    assert len(set(mine)) == len(mine) == 2 * n_sccs
    assert sum(1 for rows in passes if rows is a.transitions) == 1


# ---------------------------------------------------------------------------
# products that collapse onto an operand


def _refuse_search(rows, cond, C):
    raise AssertionError("the search must not run again")


def test_containment_on_a_difference_chain_is_the_chain(monkeypatch):
    # the third factor's state is a function of the chain's, and the
    # condition chain ∧ ¬z agrees with the chain's on every valuation
    z, chain = dma_one_b(), _difference_chain()
    assert intersection(chain, complement(z)) is chain
    x = accepting_witness(chain)
    assert x is not None
    monkeypatch.setattr(automata, "_search_scc", _refuse_search)
    assert not contains(z, chain)
    assert containment_counterexample(z, chain) == x


def test_containment_in_a_complemented_chain_reuses_the_interior_search(monkeypatch):
    # x ⊆ z, so x lies in the chain ¬(x ∩ y) ∪ z: the containment search
    # proves the complement empty, SCC by SCC, and the interior needs no more
    x, z = dma_ball_a(), dma_a_ball_or_bw()
    chain = union(complement(intersection(x, dma_one_b())), z)
    assert intersection(x, complement(chain)) is complement(chain)
    assert contains(chain, x)
    monkeypatch.setattr(automata, "_search_scc", _refuse_search)
    it = interior(chain)
    assert (it.n_states, it.finals) == (1, {0})


def test_collapsed_product_with_another_condition_is_fresh():
    z, chain = dma_one_b(), _difference_chain()
    either = union(chain, complement(z))
    assert either is not chain and either.transitions == chain.transitions
    rng = random.Random(36)
    for _ in range(200):
        x = random_up(rng)
        assert up_membership(either, x) == lasso_oracle(either, x)
        assert up_membership(either, x) == (up_membership(chain, x)
                                            or not up_membership(z, x))


def test_product_of_independent_operands_is_fresh():
    a, b = dma_ball_a(), dma_one_b()
    p = intersection(a, b)
    assert p is not a and p is not b
    assert p.n_states > max(a.n_states, b.n_states)


# ---------------------------------------------------------------------------
# containment


def test_contains_reflexive_and_full():
    rng = random.Random(19)
    for _ in range(20):
        a = random_dma(rng, 4)
        assert contains(a, a)
        assert contains(full_dma(a.alphabet), a)


def test_containment_counterexample_shape():
    x = containment_counterexample(dma_ball_a(), dma_inf_a())
    assert x is not None and x.symbol_at(0) == "b"
    assert up_membership(dma_inf_a(), x)
    assert not up_membership(dma_ball_a(), x)


def test_containment_counterexample_always_separates():
    rng = random.Random(20)
    for _ in range(60):
        a = random_dma(rng, 4, alphabets=(AB,))
        b = random_dma(rng, 4, alphabets=(AB,))
        x = containment_counterexample(a, b)
        if x is None:
            assert contains(a, b)
        else:
            assert up_membership(b, x) and not up_membership(a, x)


# ---------------------------------------------------------------------------
# open sets


def test_open_to_dma_trivial():
    assert is_empty(open_to_dma(empty_open(AB)))
    assert equivalent(open_to_dma(full_open(AB)), full_dma(AB))


def test_open_to_dma_ball_probes():
    d = open_to_dma(ball_open(AB, "a"))
    assert up_membership(d, parse_up(AB, "(a)^w"))
    assert not up_membership(d, parse_up(AB, "(b)^w"))


def test_open_union_matches_dma_union():
    rng = random.Random(21)
    for _ in range(30):
        e1 = random_open(rng)
        e2 = random_open(rng)
        u = open_union(e1, e2)
        assert equivalent(open_to_dma(u),
                          union(open_to_dma(e1), open_to_dma(e2)))


def test_open_final_states_absorb():
    e = OpenSet.from_parts(AB, 2, 0, [[1, 0], [0, 1]], [1])
    for q in e.finals:
        assert all(t == q for t in e.transitions[q])


# ---------------------------------------------------------------------------
# prefix language


def _accepted_words(d, up_to):
    return [w for w in d.alphabet.iter_words(0, up_to) if d.accepts(w)]


def test_pref_dfa_full_and_singleton():
    assert _accepted_words(pref_dfa(full_dma(AB)), 2) == ["", "a", "b", "aa", "ab", "ba", "bb"]
    assert _accepted_words(pref_dfa(dma_singleton("a")), 3) == ["", "a", "aa", "aaa"]


def test_pref_dfa_one_b():
    got = set(_accepted_words(pref_dfa(dma_one_b()), 3))
    expected = {w for w in AB.iter_words(0, 3) if w.count("b") <= 1}
    assert got == expected


def test_pref_dfa_random_agrees_with_nonempty_suffix():
    rng = random.Random(22)
    for _ in range(30):
        a = random_dma(rng, 4, alphabets=(AB,))
        d = pref_dfa(a)
        for w in AB.iter_words(0, 3):
            expected = not is_empty(_suffix_language(a, w))
            assert d.accepts(w) == expected


def _suffix_language(a, w):
    q = a.run_word(a.initial, w)
    return DMA.from_parts(a.alphabet, a.n_states, q, a.transitions, a.acceptance)


# ---------------------------------------------------------------------------
# infix avoidance automaton


def test_avoid_infix_dma_membership():
    d = avoid_infix_dma(AB, "ab")
    assert up_membership(d, parse_up(AB, "(a)^w"))
    assert up_membership(d, parse_up(AB, "(b)^w"))
    assert up_membership(d, parse_up(AB, "b(a)^w"))
    assert not up_membership(d, parse_up(AB, "(ab)^w"))
    assert not up_membership(d, parse_up(AB, "ab(b)^w"))


def test_avoid_infix_dma_overlapping_pattern():
    d = avoid_infix_dma(AB, "aba")
    assert not up_membership(d, parse_up(AB, "ab(ab)^w"))
    assert up_membership(d, parse_up(AB, "ab(b)^w"))
