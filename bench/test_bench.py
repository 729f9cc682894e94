"""Tests of the benchmark itself: generators, checkers, and smoke runs.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check as C  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from graphs import bottom_sccs, cyclic_sccs, reaching, tarjan  # noqa: E402

import omegabaire as ob  # noqa: E402

W.load_checkers()

X, Y = ("atom", 0), ("atom", 1)


def spec(symbols, rows, family):
    return gen.Spec(symbols, tuple(tuple(r) for r in rows), 0,
                    frozenset(frozenset(m) for m in family))


# "infinitely many a": state 1 after an a, state 0 after a b
INF_A = spec("ab", [[1, 0], [1, 0]], [{1}, {0, 1}])
# first letter decides: a -> accepting sink 1, b -> rejecting sink 2
FIRST_A = spec("ab", [[1, 2], [1, 1], [2, 2]], [{1}])
# finitely many a: meager and dense, but not nowhere dense
FIN_A = spec("ab", [[1, 0], [1, 0]], [{0}])


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generators_are_deterministic_for_their_seed(name, tmp_path):
    build = W.WORKLOADS[name][0]

    def inputs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        return [repr(q.info).replace(str(d), "DIR") for q in build(ob, seed, 1, str(d))]

    first = inputs(7, "a")
    assert first == inputs(7, "b")
    assert first != inputs(8, "c")


def test_transient_dma_shape():
    rng = random.Random(1)
    for n, k in ((20, 2), (40, 3)):
        s = gen.transient_dma(rng, n, k)
        comps = tarjan(s.n_states, s.rows)
        assert max(len(c) for c in comps) == n
        bottoms = bottom_sccs(s.rows)
        assert any(B in s.family for B in bottoms)
        assert any(B not in s.family for B in bottoms)
        assert len(reaching(s.rows, set().union(*bottoms))) == s.n_states
        assert 0 < C.spec_measure(s, None) < 1


def test_sc_dma_is_strongly_connected_and_family_is_realizable():
    rng = random.Random(2)
    s = gen.sc_dma(rng, 9, 2)
    assert len(tarjan(s.n_states, s.rows)) == 1
    assert frozenset(range(9)) in s.family
    for member in s.family:
        assert member in cyclic_sccs(s.rows, member)


def test_open_set_finals_absorb():
    o = gen.open_set(random.Random(3), 6)
    for f in o.finals:
        assert all(t == f for t in o.rows[f])


# ---------------------------------------------------------------------------
# checkers: a hand-computed case passes, a corrupted result fails


def test_measure_checks():
    assert C.check_measure(INF_A, None, Fraction(1)) is None
    assert C.check_measure(INF_A, None, Fraction(1, 2)) is not None
    assert C.check_measure(FIRST_A, None, Fraction(1, 2)) is None
    assert C.check_measure(FIRST_A, gen.SKEWED[2], Fraction(1, 3)) is None
    assert C.check_measure(FIRST_A, gen.SKEWED[2], Fraction(1, 2)) is not None


def test_probability_vector_checks():
    assert C.check_probability_vector(INF_A, None, (Fraction(1), Fraction(1))) is None
    assert C.check_probability_vector(INF_A, None, (Fraction(1), Fraction(1, 2))) is not None
    good = (Fraction(1, 3), Fraction(1), Fraction(0))
    assert C.check_probability_vector(FIRST_A, gen.SKEWED[2], good) is None
    assert C.check_probability_vector(FIRST_A, gen.SKEWED[2], good[:2]) is not None
    bad = (Fraction(1, 2), Fraction(1), Fraction(0))
    assert C.check_probability_vector(FIRST_A, gen.SKEWED[2], bad) is not None


def test_bareiss_matches_program_on_generated_dmas():
    rng = random.Random(4)
    for n, k in ((6, 2), (10, 3), (14, 2)):
        s = gen.transient_dma(rng, n, k)
        a = W._dma(ob, s)
        for w in (None, gen.SKEWED[k]):
            assert C.spec_measure(s, w) == ob.mu(a, w)


def test_witness_check():
    P = C.Product(X, [INF_A])
    assert C.check_witness(X, [INF_A], "b(a)^w", P) is None
    assert C.check_witness(X, [INF_A], "a(b)^w", P) is not None
    assert C.check_witness(X, [INF_A], None, P) is not None
    empty = spec("ab", FIRST_A.rows, [{0}])  # no run stays in state 0
    assert C.check_witness(X, [empty], None, C.Product(X, [empty])) is None


def test_meager_dense_nowhere_dense_checks():
    P = C.Product(X, [INF_A])
    assert C.check_meager(P, False) is None
    assert C.check_meager(P, True) is not None
    assert C.check_dense(P, True) is None
    assert C.check_dense(P, False) is not None
    assert C.check_nowhere_dense(P, False) is None
    Q = C.Product(X, [FIN_A])
    assert C.check_meager(Q, True) is None
    assert C.check_dense(Q, True) is None  # every prefix extends by b^omega
    assert C.check_nowhere_dense(Q, False) is None  # its closure is everything
    assert C.check_nowhere_dense(Q, True) is not None


def test_contains_check():
    factors = [INF_A, FIN_A]
    # INF_A and FIN_A are complements of each other
    assert C.check_contains(("union", X, Y), X, factors, True) is None
    assert C.check_contains(X, Y, factors, False) is None
    assert C.check_contains(X, Y, factors, True) is not None
    assert C.check_contains(("compl", Y), X, factors, True) is None


def test_closure_and_interior_checks():
    P = C.Product(X, [FIRST_A])
    words = [("a", "b"), ("b", "a"), ("", "ab")]
    member = [True, False, True]
    assert C.check_closure(P, words, member, [True, False, True]) is None
    assert C.check_closure(P, words, member, [True, True, True]) is not None
    assert C.check_interior(P, words, member, [True, False, True]) is None
    assert C.check_interior(P, words, member, [False, False, True]) is not None


def test_chain_product_agrees_with_the_program():
    rng = random.Random(5)
    for shape, (expr, pair) in W.SHAPES.items():
        specs = gen.sc_factors(rng, W.SIZES[0])
        queries = W._chain_queries(ob, shape, expr, specs, pair)
        for q in queries:
            reason = W.check_topology(q, q.call(), random.Random(0))
            assert reason is None, (shape, q.kind, reason)


def test_survival_and_root_checks():
    # length 3: baa, bab, bba, bbb survive
    assert C.counter_survivors(3) == 4
    assert C.check_survival(3, Fraction(1, 2)) is None
    assert C.check_survival(3, Fraction(3, 8)) is not None
    iv = ob.min_positive_root(3, 20)
    assert C.check_root(3, 20, iv.lo, iv.hi) is None
    assert C.check_root(3, 20, iv.lo, iv.hi + Fraction(1, 2**10)) is not None
    assert C.check_root(3, 20, iv.hi, iv.hi + Fraction(1, 2**21)) is not None


def test_refutation_check():
    # words starting with c: measure 1/3, and 3 * 1/3 = 1 lies above the root
    ball_c = gen.OpenSpec("abc", ((2, 2, 1), (1, 1, 1), (2, 2, 2)), 0, frozenset({1}))
    iv = ob.min_positive_root(3, 16)
    report = {"mu_e": "1/3", "root_interval": f"[{iv.lo}, {iv.hi}]", "side": "greater"}
    assert C.check_refutation(ball_c, report) is None
    assert C.check_refutation(ball_c, dict(report, mu_e="1/4")) is not None
    assert C.check_refutation(ball_c, dict(report, side="less")) is not None


def test_abp_file_check_rejects_a_bad_fprime(tmp_path):
    full = spec("ab", [[0, 0]], [{0}])
    f_path = tmp_path / "f.oaf"
    f_path.write_text(gen.dma_text(full))
    e_path = tmp_path / "e.oaf"
    e_path.write_text(gen.open_text(gen.OpenSpec("ab", ((0, 0),), 0, frozenset())))
    info = {"spec": full, "e": str(e_path), "fp": str(tmp_path / "fp.oaf")}
    (tmp_path / "fp.oaf").write_text(gen.dma_text(spec("ab", [[0, 0]], [])))
    assert W._check_abp_files(info, random.Random(0)) is not None  # F delta E not covered
    (tmp_path / "fp.oaf").write_text(gen.dma_text(full))
    assert W._check_abp_files(info, random.Random(0)) is not None  # F' not meager
    e_path.write_text(gen.open_text(gen.OpenSpec("ab", ((0, 0),), 0, frozenset({0}))))
    (tmp_path / "fp.oaf").write_text(gen.dma_text(spec("ab", [[0, 0]], [])))
    assert W._check_abp_files(info, random.Random(0)) is None


def test_corrupted_workload_result_fails_its_check(tmp_path):
    queries = W.build_measure(ob, 1, 1, str(tmp_path))[:4]
    for q in queries:
        result = q.call()
        assert W.check_measure(q, result, None) is None
        if q.kind == "mu":
            corrupt = result + Fraction(1, 1000)
        else:
            corrupt = result[:-1] + (result[-1] + Fraction(1, 1000),)
        assert W.check_measure(q, corrupt, None) is not None


def test_malformed_cli_output_is_reported_not_raised(tmp_path):
    queries = W.build_cli(ob, 1, 1, str(tmp_path))
    by_kind = {q.kind: q for q in queries}
    paths = by_kind["measure"].info["argv"][1:6]
    # each of these makes its checker raise, not return a reason
    malformed = {"measure": "".join(f"{p}: one third\n" for p in paths),
                 "survival": "\n", "root": "", "f1-refute": "mu_e 1/3\n"}
    for kind, out in malformed.items():
        q = by_kind[kind]
        with pytest.raises(Exception):
            W.check_cli(q, (out, ""), random.Random(0))
        problems = run.check_results("cli-witness", 1, [q], [(out, "")])
        assert len(problems) == 1 and kind in problems[0], (kind, problems)


# ---------------------------------------------------------------------------
# runs


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_smoke_run(name):
    code, result = _run(["--workload", name, "--seed", "3", "--seconds", "0.01",
                         "--trace", "0"])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"queries_per_s", "query_p50_ms", "query_p90_ms",
                                      "peak_rss_mb", "setup_s"}


def test_traced_run_reports_every_layer():
    code, result = _run(["--workload", "cli-witness", "--seed", "3", "--seconds", "0.01",
                         "--trace", "1"])
    assert code == 0 and result["correct"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(result["metrics"]) == declared
    assert result["metrics"]["cli.invocations"]["value"] == result["attempted"]


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-witness",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
