import dataclasses
import random
from fractions import Fraction

import pytest

from omegabaire import (
    Alphabet,
    CounterLanguageSpec,
    OpenSet,
    ball_open,
    counter_run,
    default_counter_spec,
    empty_open,
    f1_member_up,
    f1_refute_open,
    f2_member_up,
    f2_nowhere_dense_witness,
    full_open,
    irrationality_certificate,
    measure_open,
    min_positive_root,
    parse_up,
    survival_probability,
    survival_sequence,
)
from omegabaire.onecounter import (
    DEAD,
    F1_ALPHABET,
    IN_V,
    PROPER_PREFIX,
    Interval,
)

from helpers import (
    AB,
    f1_ball_kind_oracle,
    marked_member_balls,
    member_length_counts,
    random_open,
    root_bisection_oracle,
    survival_sequence_oracle,
)

SPEC = default_counter_spec()


# ---------------------------------------------------------------------------
# the counter language itself


def test_counter_run_known():
    assert counter_run(SPEC, "a").status == IN_V
    assert counter_run(SPEC, "baaa").status == IN_V
    assert counter_run(SPEC, "aa").status == DEAD
    assert counter_run(SPEC, "b").status == PROPER_PREFIX
    assert counter_run(SPEC, "").status == PROPER_PREFIX


def test_counter_run_trace():
    r = counter_run(SPEC, "baaa")
    assert r.trace == (1, 3, 2, 1, 0)
    r2 = counter_run(SPEC, "aa")
    assert r2.trace == (1, 0)


def test_counter_run_foreign_symbol_dead():
    assert counter_run(SPEC, "ca").status == DEAD


def test_member_counts_match_bruteforce():
    counts = member_length_counts(SPEC, 10)
    assert counts[0] == 0 and counts[1] == 1 and counts[4] == 1
    for n in range(0, 11):
        brute = sum(
            counter_run(SPEC, w).status == IN_V
            for w in AB.words_of_length(n)
        )
        assert counts[n] == brute


def test_spec_validation():
    with pytest.raises(ValueError):
        CounterLanguageSpec(AB, "a", "a", 3)
    with pytest.raises(ValueError):
        CounterLanguageSpec(AB, "c", "b", 3)
    with pytest.raises(ValueError):
        CounterLanguageSpec(AB, "a", "b", 1)


# ---------------------------------------------------------------------------
# UP membership in F1 and F2


def test_f1_member_known():
    assert f1_member_up(parse_up(F1_ALPHABET, "a(c)^w"))
    assert not f1_member_up(parse_up(F1_ALPHABET, "(c)^w"))
    assert not f1_member_up(parse_up(F1_ALPHABET, "(b)^w"))
    assert f1_member_up(parse_up(F1_ALPHABET, "ac(a)^w"))
    assert f1_member_up(parse_up(F1_ALPHABET, "baaac(ab)^w"))
    assert not f1_member_up(parse_up(F1_ALPHABET, "aac(a)^w"))


def test_f2_member_known():
    assert f2_member_up(parse_up(AB, "(b)^w"))
    assert not f2_member_up(parse_up(AB, "a(b)^w"))
    assert f2_member_up(parse_up(AB, "(ba)^w"))
    assert not f2_member_up(parse_up(AB, "b(a)^w"))  # baaa kills it


def test_f2_member_matches_prefix_scan():
    # brute force: x in F2 iff no finite prefix lies in V3
    rng = random.Random(61)
    for _ in range(200):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
        from omegabaire import up_normalize
        x = up_normalize(AB, u, v)
        horizon = len(x.prefix) + 12 * max(1, len(x.period))
        brute = True
        for n in range(1, horizon + 1):
            if counter_run(SPEC, x.unroll(n)).status == IN_V:
                brute = False
                break
        assert f2_member_up(x) == brute


def test_f1_member_matches_prefix_scan():
    rng = random.Random(62)
    for _ in range(200):
        u = "".join(rng.choice("abc") for _ in range(rng.randint(0, 4)))
        v = "".join(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        from omegabaire import up_normalize
        x = up_normalize(F1_ALPHABET, u, v)
        horizon = len(x.prefix) + 12 * max(1, len(x.period))
        brute = False
        for j in range(horizon):
            if x.symbol_at(j) == "c":
                head = x.unroll(j)
                if all(s in "ab" for s in head) and counter_run(SPEC, head).status == IN_V:
                    brute = True
                break  # only the first c can matter
        assert f1_member_up(x) == brute


# ---------------------------------------------------------------------------
# roots of t^3 - k t + 1


def test_root_k2_contains_golden_ratio_conjugate():
    iv = min_positive_root(2, 64)
    # exact sign change of t^2 + t - 1 across the interval
    lo_val = iv.lo * iv.lo + iv.lo - 1
    hi_val = iv.hi * iv.hi + iv.hi - 1
    assert lo_val < 0 < hi_val
    assert iv.width() <= Fraction(1, 2**64)


def test_root_k3_value():
    from omegabaire import format_decimal
    iv = min_positive_root(3, 64)
    assert iv.width() <= Fraction(1, 2**64)
    assert format_decimal(iv.midpoint(), 10) == "0.3472963553"


def test_root_k10_value():
    from omegabaire import format_decimal
    iv = min_positive_root(10, 64)
    assert format_decimal(iv.midpoint(), 7) == "0.1001003"


def test_root_interval_brackets_sign_change():
    for k in (2, 3, 5, 10):
        iv = min_positive_root(k, 32)
        lo_val = iv.lo**3 - k * iv.lo + 1
        hi_val = iv.hi**3 - k * iv.hi + 1
        assert lo_val > 0 > hi_val or lo_val < 0 < hi_val


def test_root_matches_fraction_bisection():
    # the oracle costs O(precision) Fraction steps per call, so above 32
    # bits it is sampled; the library is checked at every precision
    for k in range(2, 13):
        prev = None
        for precision in range(1, 301):
            iv = min_positive_root(k, precision)
            assert iv.width() <= Fraction(1, 2**precision)
            if prev is not None:
                assert prev.lo <= iv.lo and iv.hi <= prev.hi
            prev = iv
            if precision <= 32 or precision % 61 == 0 or precision in (256, 300):
                assert iv == root_bisection_oracle(k, precision), (k, precision)


def test_root_contains_sympy_root():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for k in (2, 3, 4, 7, 12):
        iv = min_positive_root(k, 256)
        roots = [r for r in sympy.real_roots(sympy.Poly(t**3 - k * t + 1, t)) if r > 0]
        least = min(roots)
        assert sympy.Rational(iv.lo.numerator, iv.lo.denominator) < least
        assert least < sympy.Rational(iv.hi.numerator, iv.hi.denominator)


def test_root_rejects_bad_k():
    with pytest.raises(ValueError):
        min_positive_root(1, 16)
    with pytest.raises(ValueError):
        min_positive_root(3, 0)


def test_interval_str_format():
    iv = min_positive_root(2, 8)
    s = str(iv)
    assert s.startswith("[") and s.endswith("]") and ", " in s


# ---------------------------------------------------------------------------
# irrationality certificates


def test_certificate_k3():
    cert = irrationality_certificate(3)
    assert dict(cert.candidates) == {Fraction(1): Fraction(-1), Fraction(-1): Fraction(3)}
    assert cert.replay()


def test_certificate_k2():
    cert = irrationality_certificate(2)
    assert cert.bracket == Interval(Fraction(0), Fraction(3, 4))
    # 1 is a root of t^3 - 2t + 1, but outside the bracket
    assert dict(cert.candidates) == {Fraction(1): Fraction(0), Fraction(-1): Fraction(2)}
    assert cert.replay()


def test_certificate_bracket_must_exclude_rational_roots():
    cert = irrationality_certificate(2)
    for lo in (Fraction(0), Fraction(1, 2)):
        # each bracket holds the rational root 1 (and has no strict sign change)
        assert not dataclasses.replace(cert, bracket=Interval(lo, Fraction(1))).replay()
    assert not dataclasses.replace(cert, candidates=cert.candidates[:1]).replay()
    assert irrationality_certificate(3).bracket == Interval(Fraction(0), Fraction(1))


def test_certificate_render_deterministic():
    for k in (2, 3, 7):
        c = irrationality_certificate(k)
        assert c.render() == irrationality_certificate(k).render()
        assert "conclusion: the root is irrational" in c.render()


# ---------------------------------------------------------------------------
# survival probabilities


def test_survival_base_cases():
    assert survival_probability(SPEC, 0) == 1
    assert survival_probability(SPEC, 1) == Fraction(1, 2)


def test_survival_monotone_and_bracketed():
    seq = survival_sequence(SPEC, 64)
    assert len(seq) == 65
    for i in range(64):
        assert seq[i] >= seq[i + 1]
    iv = min_positive_root(2, 64)
    limit_lo = 1 - iv.hi  # (3 - sqrt 5)/2 through the root interval
    limit_hi = 1 - iv.lo
    assert limit_lo <= seq[64] <= limit_hi + Fraction(1, 100)


def test_survival_plus_death_is_one():
    # enumerate every word of length n; death means hitting zero early
    for n in (1, 2, 5, 8):
        dead_mass = Fraction(0)
        for w in AB.words_of_length(n):
            trace = [1]
            for s in w:
                trace.append(trace[-1] + (SPEC.arity - 1 if s == "b" else -1))
                if trace[-1] == 0:
                    break
            if 0 in trace[1:-1] or (trace[-1] == 0):
                dead_mass += Fraction(1, 2**n)
        assert survival_probability(SPEC, n) + dead_mass == 1


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_survival_matches_fraction_recursion(arity):
    ab = CounterLanguageSpec(Alphabet("ab"), arity=arity)
    abc = CounterLanguageSpec(Alphabet("abc"), arity=arity)
    cases = [
        (ab, None),
        (ab, {"a": Fraction(1, 6), "b": Fraction(5, 6)}),
        # terminal and branching weights with unequal denominators
        (abc, {"a": Fraction(1, 6), "b": Fraction(1, 2), "c": Fraction(1, 3)}),
        (abc, {"a": Fraction(2, 5), "b": Fraction(1, 3), "c": Fraction(4, 15)}),
    ]
    for spec, w in cases:
        assert survival_sequence(spec, 120, w) == survival_sequence_oracle(spec, 120, w)


def test_survival_weighted():
    w = {"a": Fraction(2, 3), "b": Fraction(1, 3)}
    assert survival_probability(SPEC, 1, w) == Fraction(1, 3)


# ---------------------------------------------------------------------------
# nowhere-density witnesses for F2


def test_f2_witness_known():
    assert f2_nowhere_dense_witness(SPEC, "") == "a"
    assert f2_nowhere_dense_witness(SPEC, "b") == "aaa"
    assert f2_nowhere_dense_witness(SPEC, "ba") == "aa"


def test_f2_witness_completion_lands_in_v():
    rng = random.Random(63)
    for _ in range(100):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 7)))
        if counter_run(SPEC, w).status != PROPER_PREFIX:
            continue
        z = f2_nowhere_dense_witness(SPEC, w)
        assert counter_run(SPEC, w + z).status == IN_V


def test_f2_witness_rejects_non_prefixes():
    with pytest.raises(ValueError):
        f2_nowhere_dense_witness(SPEC, "a")  # already in V3
    with pytest.raises(ValueError):
        f2_nowhere_dense_witness(SPEC, "aa")  # dead


# ---------------------------------------------------------------------------
# refuting open approximations of F1


def test_refute_empty_set():
    rep = f1_refute_open(empty_open(F1_ALPHABET))
    assert rep.mu_e == 0
    assert rep.side == "less"
    assert rep.witness == "ac"
    assert rep.witness_kind == "ball_in_f1_not_e"


def test_refute_full_space():
    rep = f1_refute_open(full_open(F1_ALPHABET))
    assert rep.mu_e == 1
    assert rep.side == "greater"
    assert rep.witness == "c"
    assert rep.witness_kind == "ball_in_e_not_f1"


def test_refute_stops_once_every_extension_lies_in_e():
    # X.X.X^omega, written as a chain whose final state comes two letters
    # late, is the whole space, so the ball of c already lies in E
    e = OpenSet.from_parts(F1_ALPHABET, 3, 0, [[1, 1, 1], [2, 2, 2], [2, 2, 2]], [2])
    rep = f1_refute_open(e)
    assert (rep.witness, rep.witness_kind) == ("c", "ball_in_e_not_f1")


def test_refute_c_ball():
    rep = f1_refute_open(ball_open(F1_ALPHABET, "c"))
    assert rep.mu_e == Fraction(1, 3)
    assert rep.side == "greater"
    assert rep.witness == "c"


def test_refute_a_ball():
    rep = f1_refute_open(ball_open(F1_ALPHABET, "a"))
    assert rep.mu_e == Fraction(1, 3)
    assert rep.side == "greater"
    assert rep.witness == "aa"
    assert rep.witness_kind == "ball_in_e_not_f1"


def test_refute_ball_inside_f1():
    # [ac] is a subset of F1 with measure 1/9 < t3/3
    rep = f1_refute_open(ball_open(F1_ALPHABET, "ac"))
    assert rep.mu_e == Fraction(1, 9)
    assert rep.side == "less"
    assert rep.witness is not None
    v_part = rep.witness[:-1]
    assert rep.witness.endswith("c")
    assert counter_run(SPEC, v_part).status == IN_V


@pytest.mark.parametrize("max_len", [7, 10, 13])
def test_refute_union_of_marked_member_balls(max_len):
    # E is the part of F1 marked by the members of V up to max_len, so every
    # ball in F1 delta E marks a longer member
    e = marked_member_balls(max_len)
    rep = f1_refute_open(e)
    assert rep.side == "less"
    assert rep.witness_kind == "ball_in_f1_not_e"
    assert len(rep.witness) > max_len + 1
    assert f1_ball_kind_oracle(e, rep.witness) == rep.witness_kind
    if max_len == 7:
        assert e.n_states == 27 and rep.witness == "baabaabaaac"


def test_refute_no_proper_prefix_is_a_witness():
    rng = random.Random(77)
    for _ in range(20):
        e = random_open(rng, F1_ALPHABET, 6)
        w = f1_refute_open(e).witness
        assert f1_ball_kind_oracle(e, w) is not None
        assert all(f1_ball_kind_oracle(e, w[:j]) is None for j in range(len(w)))


def test_refute_interval_separates_strictly():
    rng = random.Random(64)
    for _ in range(10):
        e = random_open(rng, F1_ALPHABET, 4)
        rep = f1_refute_open(e)
        thr = rep.threshold()
        m = measure_open(e)
        if rep.side == "less":
            assert m < thr.lo
        else:
            assert m > thr.hi


def test_refute_render_mentions_everything():
    rep = f1_refute_open(ball_open(F1_ALPHABET, "c"))
    text = rep.render()
    assert "mu_e: 1/3" in text
    assert "side: greater" in text
    assert "witness_ball: c" in text
    assert "replay: ok" in text
    assert "threshold_decimal: ~ 0.1157654518" in text


def test_refute_requires_abc_alphabet():
    with pytest.raises(ValueError):
        f1_refute_open(empty_open(AB))
