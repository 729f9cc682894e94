import os
import random
import subprocess
import sys
import textwrap

import pytest

from omegabaire import (
    ABPWitness,
    InvariantError,
    avoid_infix_dma,
    complement,
    contains,
    empty_dma,
    empty_open,
    equivalent,
    finite_up_abp,
    from_dma,
    from_open,
    full_dma,
    full_open,
    intersection,
    is_empty,
    is_meager,
    mu,
    open_to_dma,
    parse_oaf,
    parse_up,
    serialize_oaf,
    symdiff,
    synthesize_abp_witness,
    union,
    up_membership,
    up_non_infix_witness,
    verify_abp_witness,
)
from omegabaire import automata, baire, measure

from helpers import (
    AB,
    ABC,
    dma_ball_a,
    dma_inf_a,
    dma_singleton,
    dma_strongly_connected_16,
    dma_transient_cycle,
    random_dma,
)


def dma_fin_a():
    return complement(dma_inf_a())


# ---------------------------------------------------------------------------
# synthesis


def test_synth_inf_a():
    w = synthesize_abp_witness(dma_inf_a())
    assert equivalent(open_to_dma(w.e), full_dma(AB))
    assert equivalent(w.fprime, dma_fin_a())
    assert is_meager(w.fprime)


def test_synth_clopen_ball():
    w = synthesize_abp_witness(dma_ball_a())
    assert equivalent(open_to_dma(w.e), dma_ball_a())
    assert is_empty(w.fprime)


def test_synth_singleton():
    w = synthesize_abp_witness(dma_singleton("a"))
    assert w.e.is_empty()
    assert equivalent(w.fprime, dma_singleton("a"))


def test_synth_meager_inputs_covered_by_fprime():
    rng = random.Random(51)
    seen = 0
    for _ in range(60):
        f = random_dma(rng, 5)
        if not is_meager(f):
            continue
        w = synthesize_abp_witness(f)
        assert w.e.is_empty()
        assert contains(w.fprime, f)
        seen += 1
    assert seen >= 8


def test_synth_always_verifies():
    rng = random.Random(52)
    for _ in range(50):
        f = random_dma(rng, 5)
        w = synthesize_abp_witness(f)
        assert verify_abp_witness(f, w)
        assert mu(w.fprime) == 0


# ---------------------------------------------------------------------------
# verification


def test_verify_rejects_bad_witness():
    f = full_dma(AB)
    bad = ABPWitness(empty_open(AB), empty_dma(AB))
    check = verify_abp_witness(f, bad)
    assert not check
    assert check.failed == "containment"
    assert check.counterexample is not None
    assert up_membership(f, check.counterexample)


def test_verify_accepts_empty_on_empty():
    check = verify_abp_witness(empty_dma(AB), ABPWitness(empty_open(AB), empty_dma(AB)))
    assert check and check.failed is None


def test_verify_rejects_nonmeager_fprime():
    f = full_dma(AB)
    check = verify_abp_witness(f, ABPWitness(full_open(AB), full_dma(AB)))
    assert not check and check.failed == "meager"


def test_verify_alphabet_mismatch():
    with pytest.raises(ValueError):
        verify_abp_witness(full_dma(ABC), ABPWitness(empty_open(AB), empty_dma(AB)))


# ---------------------------------------------------------------------------
# witnesses of unions and complements: synthesis on the combined automaton


def test_union_witness_trivial():
    f = empty_dma(AB)
    u = synthesize_abp_witness(union(f, f))
    assert u.e.is_empty() and is_empty(u.fprime)


def test_union_witness_clopen_cover():
    b_ball = complement(dma_ball_a())  # over {a,b} this is b.X^omega
    u = synthesize_abp_witness(union(dma_ball_a(), b_ball))
    assert equivalent(open_to_dma(u.e), full_dma(AB))
    assert is_empty(u.fprime)


def test_union_witness_two_singletons():
    f = union(dma_singleton("a"), dma_singleton("b"))
    u = synthesize_abp_witness(f)
    assert u.e.is_empty()
    assert equivalent(u.fprime, f)
    assert is_meager(u.fprime)


def test_union_witness_random_pairs():
    rng = random.Random(53)
    for _ in range(25):
        f1 = random_dma(rng, 4, alphabets=(AB,))
        f2 = random_dma(rng, 4, alphabets=(AB,))
        f = union(f1, f2)
        assert verify_abp_witness(f, synthesize_abp_witness(f))


def test_union_witness_rejects_unverified_inputs():
    f = union(full_dma(AB), dma_ball_a())
    check = verify_abp_witness(f, ABPWitness(empty_open(AB), empty_dma(AB)))
    assert not check and check.failed == "containment"
    assert up_membership(f, check.counterexample)


def test_complement_witness_full():
    c = synthesize_abp_witness(complement(full_dma(AB)))
    assert c.e.is_empty() and is_empty(c.fprime)


def test_complement_witness_clopen():
    f = dma_ball_a()
    c = synthesize_abp_witness(complement(f))
    assert equivalent(open_to_dma(c.e), complement(f))
    assert is_empty(c.fprime)


def test_complement_witness_inf_a():
    f = complement(dma_inf_a())
    c = synthesize_abp_witness(f)
    assert c.e.is_empty()
    assert equivalent(c.fprime, dma_fin_a())
    assert verify_abp_witness(f, c)


def test_complement_witness_random():
    rng = random.Random(54)
    for _ in range(25):
        f = complement(random_dma(rng, 4, alphabets=(AB,)))
        assert verify_abp_witness(f, synthesize_abp_witness(f))


# ---------------------------------------------------------------------------
# finite UP sets


def test_finite_up_single_a_power():
    w = finite_up_abp([parse_up(AB, "(a)^w")])
    assert w.e.is_empty()
    assert equivalent(w.fprime, dma_singleton("a"))


def test_finite_up_ab_cycle():
    x = parse_up(AB, "(ab)^w")
    w = finite_up_abp([x])
    assert up_membership(w.fprime, x)
    assert is_meager(w.fprime)
    # "aa" never occurs in any member
    assert not up_membership(w.fprime, parse_up(AB, "aa(b)^w"))


def test_finite_up_two_words():
    xs = [parse_up(AB, "(a)^w"), parse_up(AB, "(b)^w")]
    w = finite_up_abp(xs)
    for x in xs:
        assert up_membership(w.fprime, x)
    assert is_meager(w.fprime)


def test_finite_up_random_sets():
    from helpers import random_up
    rng = random.Random(55)
    for _ in range(25):
        xs = [random_up(rng) for _ in range(rng.randint(1, 4))]
        w = finite_up_abp(xs)
        assert w.e.is_empty()
        assert is_meager(w.fprime)
        for x in xs:
            assert up_membership(w.fprime, x)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_finite_up_cover_avoids_one_concatenated_word(k):
    xs = [parse_up(AB, t) for t in ("(a)^w", "(b)^w", "(ab)^w", "b(aab)^w")[:k]]
    word = "".join(up_non_infix_witness(x) for x in xs)
    w = finite_up_abp(xs)
    assert w.fprime.n_states <= len(word) + 1
    assert equivalent(w.fprime, avoid_infix_dma(AB, word))


def test_finite_up_rejects_bad_input():
    with pytest.raises(ValueError):
        finite_up_abp([])
    with pytest.raises(ValueError):
        finite_up_abp([parse_up(AB, "(a)^w"), parse_up(ABC, "(c)^w")])


def test_synthesis_runs_no_linear_solve(monkeypatch):
    def refuse(matrix, rhs):
        raise AssertionError("witness synthesis must not solve a linear system")

    monkeypatch.setattr(measure, "solve_linear_system", refuse)
    f = dma_transient_cycle()
    assert verify_abp_witness(f, synthesize_abp_witness(f))


def test_synth_large_transient_scc():
    f = dma_transient_cycle()
    w = synthesize_abp_witness(f)
    assert verify_abp_witness(f, w)
    assert w.e.accepts("a" * 19 + "b")
    assert not w.e.accepts("a" * 10 + "b")


def _transient_cycle_chain():
    # five factors, each with an accepting and a rejecting sink, combined by
    # union and by intersection with a complement in turn: 210 states with
    # eight bottom SCCs and transient states on both sides of E
    a = dma_transient_cycle(3)
    for i, n in enumerate((4, 5, 3, 4)):
        g = dma_transient_cycle(n)
        a = union(a, g) if i % 2 == 0 else intersection(a, complement(g))
    return a


def _witness_tables(w):
    return (w.e.transitions, w.e.finals), (w.fprime.transitions, w.fprime.acceptance)


def test_synthesis_runs_no_emptiness_search(monkeypatch):
    def refuse(rows, cond, C):
        raise AssertionError("witness synthesis must run no emptiness search")

    expected = [_witness_tables(synthesize_abp_witness(f))
                for f in (dma_transient_cycle(), _transient_cycle_chain())]
    monkeypatch.setattr(automata, "_search_scc", refuse)
    # fresh automata, so no SCC search result is cached on them
    got = [_witness_tables(synthesize_abp_witness(f))
           for f in (dma_transient_cycle(), _transient_cycle_chain())]
    assert got == expected


def test_synthesis_rejects_a_wrong_open_part(monkeypatch):
    # without the backward pass E keeps the transient cycle, which reaches
    # the rejecting sink, so F delta E has positive measure
    monkeypatch.setattr(baire, "_states_reaching", lambda a, targets: dict.fromkeys(targets))
    with pytest.raises(InvariantError, match="failed verification: meager"):
        synthesize_abp_witness(dma_transient_cycle())


def test_verify_round_tripped_witness_of_strongly_connected_dma():
    # read back from OAF, fprime carries its materialized family as one
    # explicit atom that shares nothing with the condition of f
    f = dma_strongly_connected_16()
    w = synthesize_abp_witness(f)
    e = parse_oaf(serialize_oaf(from_open(w.e))).to_open()
    fprime = parse_oaf(serialize_oaf(from_dma(w.fprime))).to_dma()
    assert verify_abp_witness(f, ABPWitness(e, fprime))
    check = verify_abp_witness(f, ABPWitness(empty_open(AB), fprime))
    assert check.failed == "containment"
    assert up_membership(f, check.counterexample)
    assert not up_membership(fprime, check.counterexample)


# ---------------------------------------------------------------------------
# the modulo-open-sets identity itself


def test_witness_symdiff_is_meager():
    rng = random.Random(56)
    for _ in range(30):
        f = random_dma(rng, 5)
        w = synthesize_abp_witness(f)
        delta = symdiff(f, open_to_dma(w.e))
        assert is_meager(delta)
        assert contains(w.fprime, delta)


def test_synthesis_self_check_survives_optimized_mode():
    # Under ``python -O`` every ``assert`` is stripped; the check that stops
    # an unverified witness from being returned must still fire.
    code = textwrap.dedent("""
        import sys
        from omegabaire import InvariantError, baire
        from helpers import dma_ball_a

        print("optimize:", sys.flags.optimize)
        baire.is_meager = lambda a: False
        try:
            baire.synthesize_abp_witness(dma_ball_a())
        except InvariantError as exc:
            print("raised:", exc)
        else:
            print("returned an unverified witness")
    """)
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, here, env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "optimize: 1",
        "raised: synthesized witness failed verification: meager",
    ]
