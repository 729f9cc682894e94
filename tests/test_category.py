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
from omegabaire import ball_open, complement, intersection

from helpers import (
    AB,
    avoided_infix_oracle,
    dma_ball_a,
    dma_inf_a,
    dma_singleton,
    dma_transient_cycle,
    random_dma,
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


def test_avoided_infix_known():
    assert avoided_infix(dma_singleton("a")) == "b"
    ab_cycle = DMA.from_parts(AB, 3, 0, [[2, 1], [0, 2], [2, 2]], [{0, 1}])
    assert avoided_infix(ab_cycle) == "aa"
    two = union(dma_singleton("a"), dma_singleton("b"))
    assert avoided_infix(two) == "ab"


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
        expected = avoided_infix_oracle(a, 6)
        if expected is not None:
            found += 1
            assert w == expected
        elif w is not None:
            assert len(w) > 6
        if w is not None:
            # no member exhibits the infix
            assert is_empty(intersection(a, complement(avoid_infix_dma(a.alphabet, w))))
    assert found >= 10


def cerny_dma(n: int) -> DMA:
    """States 0..n-1 and a sink over {a, b}: ``a`` turns the cycle, ``b``
    moves 0 to 1 and n-1 to the sink and fixes the rest; the cycle accepts."""
    rows = [[(q + 1) % n, 1 if q == 0 else n if q == n - 1 else q] for q in range(n)]
    rows.append([n, n])
    return DMA.from_parts(AB, n + 1, 0, rows, [set(range(n))])


@pytest.mark.parametrize("n", [6, 10, 14])
def test_avoided_infix_cerny_family(n):
    # driving every state into the sink needs a word of length 2n - 3
    w = avoided_infix(cerny_dma(n))
    assert w is not None and len(w) == 2 * n - 3
    if n == 6:
        assert w == avoided_infix_oracle(cerny_dma(n), 2 * n - 3)


def test_large_transient_scc_is_neither_dense_nor_nowhere_dense():
    # a prefix into the rejecting sink has no extension in the language,
    # and the ball of a prefix into the accepting sink lies inside it
    a = dma_transient_cycle()
    assert not is_dense(a)
    assert not is_nowhere_dense(a)
