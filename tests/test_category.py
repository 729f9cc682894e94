import random

import pytest

from omegabaire import (
    DMA,
    avoid_infix_dma,
    avoided_infix,
    contains_disjunctive,
    empty_dma,
    full_dma,
    is_dense,
    is_empty,
    is_meager,
    is_meager_via_measure,
    is_nowhere_dense,
    open_to_dma,
    union,
)
from omegabaire import ball_open, complement, contains, intersection
from omegabaire.automata import _live_states

from helpers import (
    AB,
    ABC,
    avoided_infix_oracle,
    dma_ball_a,
    dma_inf_a,
    dma_singleton,
    dma_transient_cycle,
    nowhere_dense_block_dma,
    random_dma,
    shortlex_avoided_infix_oracle,
)


def dma_eventually_only_a() -> DMA:
    """Words with finitely many b: meager yet dense."""
    return DMA.from_parts(AB, 2, 0, [[1, 0], [1, 0]], [{1}])


# ---------------------------------------------------------------------------
# meagerness


def test_is_meager_trivial():
    assert is_meager(empty_dma(AB))
    assert not is_meager(full_dma(AB))


def test_singleton_is_meager():
    assert is_meager(dma_singleton("a"))


def test_meager_via_measure_trivial():
    assert is_meager_via_measure(empty_dma(AB))
    assert not is_meager_via_measure(dma_ball_a())


def test_meager_implementations_agree():
    rng = random.Random(41)
    for _ in range(200):
        a = random_dma(rng, 5)
        assert is_meager(a) == is_meager_via_measure(a)


# ---------------------------------------------------------------------------
# disjunctive words


def test_contains_disjunctive_trivial():
    assert contains_disjunctive(full_dma(AB))
    assert contains_disjunctive(dma_inf_a())


def test_finite_up_sets_have_no_disjunctive_word():
    two = union(dma_singleton("a"), dma_singleton("b"))
    assert not contains_disjunctive(dma_singleton("a"))
    assert not contains_disjunctive(two)


# ---------------------------------------------------------------------------
# density


def test_is_dense_cases():
    assert is_dense(full_dma(AB))
    assert not is_dense(dma_singleton("a"))
    # complement of the ball ab.X^omega: closed, misses prefix "ab"
    no_ab_start = complement(open_to_dma(ball_open(AB, "ab")))
    assert not is_dense(no_ab_start)


def test_meager_can_still_be_dense():
    a = dma_eventually_only_a()
    assert is_meager(a) and is_dense(a)


# ---------------------------------------------------------------------------
# nowhere density


def test_is_nowhere_dense_cases():
    assert is_nowhere_dense(empty_dma(AB))
    assert not is_nowhere_dense(dma_ball_a())
    assert is_nowhere_dense(dma_singleton("a"))


def test_nowhere_dense_implies_meager():
    rng = random.Random(42)
    for _ in range(60):
        a = random_dma(rng, 5)
        if is_nowhere_dense(a):
            assert is_meager(a)


# ---------------------------------------------------------------------------
# avoided infixes


def _assert_avoided(a: DMA, w: str) -> None:
    """No member contains ``w``, it has at most m^2 letters, m the number of
    live states, and no shortlex word is longer."""
    assert contains(avoid_infix_dma(a.alphabet, w), a)
    assert 1 <= len(w) <= max(1, len(_live_states(a)) ** 2)
    assert len(w) >= len(shortlex_avoided_infix_oracle(a))


def test_avoided_infix_known():
    ab_cycle = DMA.from_parts(AB, 3, 0, [[2, 1], [0, 2], [2, 2]], [{0, 1}])
    two = union(dma_singleton("a"), dma_singleton("b"))
    for a in (dma_singleton("a"), ab_cycle, two):
        _assert_avoided(a, avoided_infix(a))


def test_avoided_infix_requires_meager():
    # a non-meager language has every word as an infix: the answer is None
    for a in (full_dma(AB), dma_ball_a(), dma_inf_a()):
        assert not is_meager(a) and avoided_infix(a) is None
    # the empty language avoids every word, the first symbol least
    assert avoided_infix(empty_dma(AB)) == "a"


def test_avoided_infix_dense_meager_exhausts():
    # meager but dense: still every word is an infix, decided without a cap
    a = dma_eventually_only_a()
    assert is_meager(a) and is_dense(a)
    assert not is_nowhere_dense(a) and avoided_infix(a) is None


def test_avoided_infix_matches_capped_enumeration():
    rng = random.Random(43)
    found = 0
    for _ in range(80):
        a = random_dma(rng, 5, alphabets=(AB,))
        w = avoided_infix(a)
        assert (w is None) == (not is_nowhere_dense(a))
        # the two oracles agree wherever the capped one finds a word
        expected = avoided_infix_oracle(a, 6)
        if expected is not None:
            found += 1
            assert shortlex_avoided_infix_oracle(a) == expected
        elif w is not None:
            assert len(w) > 6
        if w is not None:
            _assert_avoided(a, w)
            # no member exhibits the infix
            assert is_empty(intersection(a, complement(avoid_infix_dma(a.alphabet, w))))
    assert found >= 10


def cerny_dma(n: int) -> DMA:
    """States 0..n-1 and a sink over {a, b}: ``a`` turns the cycle, ``b``
    moves 0 to 1 and n-1 to the sink and fixes the rest; the cycle accepts."""
    rows = [[(q + 1) % n, 1 if q == 0 else n if q == n - 1 else q] for q in range(n)]
    rows.append([n, n])
    return DMA.from_parts(AB, n + 1, 0, rows, [set(range(n))])


@pytest.mark.parametrize("n", [6, 10, 14, 100])
def test_avoided_infix_cerny_family(n):
    # driving every state into the sink needs a word of length 2n - 3, and
    # the nearest state first finds one that short
    w = avoided_infix(cerny_dma(n))
    assert w is not None and len(w) == 2 * n - 3
    if n <= 10:
        assert len(shortlex_avoided_infix_oracle(cerny_dma(n))) == len(w)


def test_avoided_infix_on_block_automata():
    # inputs like these, of 40-60 states, took the shortlex image search
    # up to seconds each; the words are checked, not timed
    rng = random.Random(1)
    drawn = 0
    while drawn < 10:
        a = nowhere_dense_block_dma(rng, rng.randint(40, 60), rng.choice((AB, ABC)))
        if is_empty(a):
            continue
        drawn += 1
        assert is_nowhere_dense(a)
        w = avoided_infix(a)
        assert contains(avoid_infix_dma(a.alphabet, w), a)
        assert len(w) <= len(_live_states(a)) ** 2


def test_large_transient_scc_is_neither_dense_nor_nowhere_dense():
    # a prefix into the rejecting sink has no extension in the language,
    # and the ball of a prefix into the accepting sink lies inside it
    a = dma_transient_cycle()
    assert not is_dense(a)
    assert not is_nowhere_dense(a)
