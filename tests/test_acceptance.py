"""Acceptance gate: one test per headline guarantee of the package.

Each test prints a single PASS line on success; with `pytest -v` the test
name itself gives the one-line pass/fail verdict per criterion.
"""

import random
from fractions import Fraction

from omegabaire import (
    ball_open,
    closure,
    complement,
    contains,
    counter_run,
    default_counter_spec,
    empty_open,
    f1_refute_open,
    f2_nowhere_dense_witness,
    finite_up_abp,
    format_decimal,
    full_open,
    intersection,
    irrationality_certificate,
    is_meager,
    is_meager_via_measure,
    measure_open,
    min_positive_root,
    mu,
    survival_sequence,
    synthesize_abp_witness,
    union,
    uniform_weights,
    up_membership,
    verify_abp_witness,
)
from omegabaire.onecounter import F1_ALPHABET, IN_V, PROPER_PREFIX

from helpers import (
    AB,
    ABC,
    accepting_witness_states,
    dma_survival_dp,
    f1_ball_kind_oracle,
    lasso_oracle,
    random_dma,
    random_open,
    random_up,
    random_weights,
)


def test_c01_meagerness_coincides_with_measure_zero():
    rng = random.Random(101)
    for _ in range(1000):
        a = random_dma(rng, 6)
        verdict = is_meager(a)
        assert verdict == is_meager_via_measure(a)
        for _ in range(3):
            w = random_weights(rng, a.alphabet)
            while len(set(w.values())) == 1:
                w = random_weights(rng, a.alphabet)
            assert verdict == is_meager_via_measure(a, w)
    print("PASS C1: graph meagerness == measure-zero on 1000 random automata, "
          "uniform plus 3 non-uniform measures each")


def test_c02_measures_are_rational_and_additive():
    rng = random.Random(102)
    for _ in range(300):
        a = random_dma(rng, 5, alphabets=(AB,))
        b = random_dma(rng, 5, alphabets=(AB,))
        values = [mu(a), mu(b), mu(union(a, b)), mu(intersection(a, b))]
        assert all(isinstance(v, Fraction) for v in values)
        assert values[2] + values[3] == values[0] + values[1]
    print("PASS C2: exact rational measures, additive on 300 random pairs")


def test_c03_witness_synthesis_always_verifies():
    rng = random.Random(103)
    meager_count = 0
    for _ in range(200):
        f = random_dma(rng, 6)
        w = synthesize_abp_witness(f)
        assert verify_abp_witness(f, w)
        if is_meager(f):
            meager_count += 1
            assert w.e.is_empty()
            assert contains(w.fprime, f)
    assert meager_count >= 20
    print(f"PASS C3: 200/200 synthesized witnesses verify; all {meager_count} "
          "meager inputs got E = empty with F' covering F")


def test_c04_union_and_complement_witnesses():
    rng = random.Random(104)
    for _ in range(100):
        alphabet = rng.choice((AB, ABC))
        f1 = random_dma(rng, 4, alphabets=(alphabet,))
        f2 = random_dma(rng, 4, alphabets=(alphabet,))
        for f in (union(f1, f2), complement(f1)):
            assert verify_abp_witness(f, synthesize_abp_witness(f))
    print("PASS C4: witnesses synthesized for unions and complements verified "
          "on 100 random pairs")


def test_c05_finite_up_sets_get_meager_covers():
    rng = random.Random(105)
    for _ in range(100):
        alphabet = rng.choice((AB, ABC))
        xs = [random_up(rng, alphabet) for _ in range(rng.randint(1, 4))]
        w = finite_up_abp(xs)
        assert w.e.is_empty()
        assert is_meager(w.fprime)
        for x in xs:
            assert up_membership(w.fprime, x)
    print("PASS C5: 100 random finite UP sets covered by verified meager "
          "languages with E = empty")


def test_c06_root_intervals_meet_closed_forms():
    iv2 = min_positive_root(2, 64)
    lo_val = iv2.lo * iv2.lo + iv2.lo - 1
    hi_val = iv2.hi * iv2.hi + iv2.hi - 1
    assert lo_val < 0 < hi_val  # (sqrt(5)-1)/2 lies strictly inside
    iv3 = min_positive_root(3, 64)
    assert iv3.width() <= Fraction(1, 2**64)
    assert format_decimal(iv3.midpoint(), 10) == "0.3472963553"
    print("PASS C6: k=2 interval brackets (sqrt(5)-1)/2 by exact sign change; "
          "k=3 interval has width <= 2^-64 and midpoint 0.3472963553")


def test_c07_irrationality_certificates_replay():
    c3 = irrationality_certificate(3)
    assert c3.replay()
    c2 = irrationality_certificate(2)
    assert (c2.bracket.lo, c2.bracket.hi) == (0, Fraction(3, 4))
    assert dict(c2.candidates)[Fraction(1)] == 0 and 1 not in c2.bracket
    assert c2.replay()
    print("PASS C7: k=3 and k=2 certificates (sign change on the start bracket, "
          "rational-root candidates +-1 no root inside it) produce and replay")


def test_c08_survival_converges_to_golden_limit():
    seq = survival_sequence(default_counter_spec(), 64)
    for n in range(1, 64):
        assert seq[n] >= seq[n + 1]
    iv = min_positive_root(2, 64)
    assert 1 - iv.lo <= seq[64] <= 1 - iv.hi + Fraction(1, 100)
    print("PASS C8: survival at n=64 is within 1/100 above (3-sqrt(5))/2, "
          "monotone over n=1..64")


def test_c09_every_proper_prefix_extends_into_the_language():
    spec = default_counter_spec()
    checked = 0
    for n in range(0, 8):
        for w in AB.words_of_length(n):
            if counter_run(spec, w).status != PROPER_PREFIX:
                continue
            z = f2_nowhere_dense_witness(spec, w)
            assert counter_run(spec, w + z).status == IN_V
            checked += 1
    assert checked >= 50
    print(f"PASS C9: all {checked} surviving prefixes up to length 7 got "
          "verified killing extensions")


def test_c10_open_approximations_of_f1_always_refuted():
    handcrafted = [
        empty_open(F1_ALPHABET),
        full_open(F1_ALPHABET),
        ball_open(F1_ALPHABET, "c"),
        ball_open(F1_ALPHABET, "a"),
    ]
    rng = random.Random(110)
    corpus = handcrafted + [random_open(rng, F1_ALPHABET, 4) for _ in range(16)]
    for e in corpus:
        rep = f1_refute_open(e)
        thr = rep.threshold()
        m = measure_open(e)
        assert (m < thr.lo) if rep.side == "less" else (m > thr.hi)
        assert f1_ball_kind_oracle(e, rep.witness) == rep.witness_kind
    print(f"PASS C10: {len(corpus)}/{len(corpus)} open sets strictly separated "
          "from the F1 measure, each with a verified witness ball in F1 delta E")


def test_c11_up_membership_matches_step_simulation():
    rng = random.Random(111)
    for _ in range(500):
        a = random_dma(rng, 6)
        x = random_up(rng, a.alphabet)
        assert up_membership(a, x) == lasso_oracle(a, x)
    print("PASS C11: up_membership agrees with lasso step-simulation on "
          "500 random pairs")


def test_c12_finite_horizon_bracketing_of_safety_measures():
    rng = random.Random(112)
    widened = 0
    for _ in range(50):
        c = closure(random_dma(rng, 5, alphabets=(AB,)))
        doomed = frozenset(
            q for q in range(c.n_states)
            if not accepting_witness_states(c, q)
        )
        w = uniform_weights(AB)
        m = mu(c, w)
        dp = dma_survival_dp(c, doomed, w, 32)
        assert dp >= m
        if dp - m > Fraction(5, 100):
            widened += 1
            dp = dma_survival_dp(c, doomed, w, 128)
            assert dp >= m
            assert dp - m <= Fraction(5, 100)
    print(f"PASS C12: 50 safety-language measures bracketed by horizon-32 "
          f"survival within 0.05 ({widened} needed widening to 128)")
