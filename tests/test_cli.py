import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from omegabaire import (
    DMA,
    ball_open,
    closure,
    equivalent,
    from_dma,
    from_open,
    is_empty,
    mu,
    open_to_dma,
    parse_oaf,
    serialize_oaf,
)
from omegabaire import automata, cli
from omegabaire.cli import main
from omegabaire.onecounter import F1_ALPHABET

from helpers import (
    AB,
    dma_a_ball_or_bw,
    dma_ball_a,
    dma_inf_a,
    dma_singleton,
    dma_strongly_connected_16,
    dma_transient_cycle,
    marked_member_balls,
)


@pytest.fixture()
def oaf_dir(tmp_path):
    def write(name, doc_text):
        p = tmp_path / name
        p.write_text(doc_text)
        return str(p)

    full = DMA.from_parts(AB, 1, 0, [[0, 0]], [{0}])
    paths = {
        "full": write("full.oaf", serialize_oaf(from_dma(full))),
        "ball_a": write("ball_a.oaf", serialize_oaf(from_dma(dma_ball_a()))),
        "inf_a": write("inf_a.oaf", serialize_oaf(from_dma(dma_inf_a()))),
        "singleton": write("singleton.oaf", serialize_oaf(from_dma(dma_singleton("a")))),
        "ball_c_open": write("ball_c.oaf",
                             serialize_oaf(from_open(ball_open(F1_ALPHABET, "c")))),
        "dir": tmp_path,
    }
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_measure_full(oaf_dir, capsys):
    code, out, _ = run(capsys, "measure", oaf_dir["full"])
    assert code == 0 and out == "1\n"


def test_measure_weight_flag(oaf_dir, capsys):
    code, out, _ = run(capsys, "measure", oaf_dir["ball_a"], "--measure", "a=1/3 b=2/3")
    assert code == 0 and out == "1/3\n"


def test_measure_document_weights_used(oaf_dir, capsys, tmp_path):
    doc_text = (tmp_path / "ball_a.oaf").read_text() + "measure: a=1/4 b=3/4\n"
    p = tmp_path / "weighted.oaf"
    p.write_text(doc_text)
    code, out, _ = run(capsys, "measure", str(p))
    assert code == 0 and out == "1/4\n"
    # explicit flag overrides the document
    code, out, _ = run(capsys, "measure", str(p), "--measure", "uniform")
    assert code == 0 and out == "1/2\n"


def test_multi_file_prefixes_and_jobs(oaf_dir, capsys):
    code, out, _ = run(capsys, "measure", oaf_dir["full"], oaf_dir["ball_a"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"{oaf_dir['full']}: 1"
    assert lines[1] == f"{oaf_dir['ball_a']}: 1/2"
    # files are processed one after another; there is no --jobs option
    code, _, _ = run(capsys, "measure", oaf_dir["full"], oaf_dir["ball_a"],
                     "--jobs", "2")
    assert code == 2


def test_decision_commands(oaf_dir, capsys):
    for cmd, path, expected in [
        ("meager", "singleton", "true"),
        ("meager", "full", "false"),
        ("dense", "full", "true"),
        ("dense", "singleton", "false"),
        ("nowhere-dense", "singleton", "true"),
        ("nowhere-dense", "ball_a", "false"),
        ("disjunctive", "inf_a", "true"),
        ("disjunctive", "singleton", "false"),
    ]:
        code, out, _ = run(capsys, cmd, oaf_dir[path])
        assert (code, out) == (0, expected + "\n"), (cmd, path)


def test_empty_and_witness(oaf_dir, capsys):
    code, out, _ = run(capsys, "empty", oaf_dir["inf_a"])
    assert code == 0 and out.startswith("nonempty ")
    assert "(" in out and ")^w" in out


def test_avoided_infix_decides(oaf_dir, capsys):
    code, out, _ = run(capsys, "avoided-infix", oaf_dir["singleton"])
    assert (code, out) == (0, "b\n")
    # every word is an infix of some word with infinitely many a
    code, out, _ = run(capsys, "avoided-infix", oaf_dir["inf_a"])
    assert (code, out) == (0, "none\n")
    # the search has no length cap to set
    for flag in ("--max-len", "--max-witness-len"):
        code, _, err = run(capsys, "avoided-infix", oaf_dir["singleton"], flag, "3")
        assert code == 2 and "unrecognized arguments" in err


def test_closure_emits_parseable_oaf(oaf_dir, capsys):
    code, out, _ = run(capsys, "closure", oaf_dir["singleton"])
    assert code == 0
    doc = parse_oaf(out)
    assert doc.kind == "dma"
    assert mu(doc.to_dma()) == 0


def test_interior_emits_open_oaf(oaf_dir, capsys):
    code, out, _ = run(capsys, "interior", oaf_dir["ball_a"])
    assert code == 0
    doc = parse_oaf(out)
    assert doc.kind == "open"
    assert mu(open_to_dma(doc.to_open())) == Fraction(1, 2)


def test_boolean_commands(oaf_dir, capsys):
    code, out, _ = run(capsys, "boolean", "complement", oaf_dir["ball_a"])
    assert code == 0
    assert mu(parse_oaf(out).to_dma()) == Fraction(1, 2)
    code, out, _ = run(capsys, "boolean", "union", oaf_dir["ball_a"], oaf_dir["full"])
    assert code == 0
    assert mu(parse_oaf(out).to_dma()) == 1
    code, _, err = run(capsys, "boolean", "complement", oaf_dir["ball_a"], oaf_dir["full"])
    assert code == 2 and err
    code, _, err = run(capsys, "boolean", "union", oaf_dir["ball_a"])
    assert code == 2 and err


def test_union_of_a_file_with_itself_is_that_file(capsys, tmp_path):
    # the product collapses onto its first operand with an agreeing
    # condition, so the output is the operand's own family, including the
    # member {0, 1} that no run realizes, not a materialized one
    a = DMA.from_parts(AB, 3, 0, [[1, 2], [1, 1], [2, 2]], [{1}, {0, 1}])
    text = serialize_oaf(from_dma(a))
    p = tmp_path / "a.oaf"
    p.write_text(text)
    code, out, _ = run(capsys, "boolean", "union", str(p), str(p))
    assert code == 0 and out == text
    assert equivalent(parse_oaf(out).to_dma(), a)


def test_member_up_and_contains(oaf_dir, capsys):
    code, out, _ = run(capsys, "member-up", oaf_dir["inf_a"], "(ab)^w")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "member-up", oaf_dir["inf_a"], "a(b)^w")
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, "contains", oaf_dir["full"], oaf_dir["ball_a"])
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "contains", oaf_dir["ball_a"], oaf_dir["full"])
    assert (code, out) == (0, "false\n")


def test_abp_synth_verify_cycle(oaf_dir, capsys, tmp_path):
    e_path = str(tmp_path / "E.oaf")
    fp_path = str(tmp_path / "FP.oaf")
    code, out, _ = run(capsys, "abp", "synth", oaf_dir["inf_a"],
                       "--out-e", e_path, "--out-fprime", fp_path)
    assert (code, out) == (0, "ok\n")
    code, out, _ = run(capsys, "abp", "verify", oaf_dir["inf_a"], e_path, fp_path)
    assert (code, out) == (0, "true\n")
    # verifying against the wrong language fails but still exits 0
    code, out, err = run(capsys, "abp", "verify", oaf_dir["singleton"], e_path, fp_path)
    assert code == 0 and out == "false\n" and "witness rejected" in err


def test_abp_finite_up(oaf_dir, capsys, tmp_path):
    fp_path = str(tmp_path / "FUP.oaf")
    code, out, _ = run(capsys, "abp", "finite-up", "a(b)^w", "(ab)^w",
                       "--out-fprime", fp_path)
    assert (code, out) == (0, "ok\n")
    doc = parse_oaf(open(fp_path).read())
    from omegabaire import is_meager, parse_up, up_membership
    fprime = doc.to_dma()
    assert is_meager(fprime)
    assert up_membership(fprime, parse_up(AB, "a(b)^w"))
    assert up_membership(fprime, parse_up(AB, "(ab)^w"))


def test_abp_finite_up_infers_symbol_w(capsys, tmp_path):
    # the 'w' of a symbol is told apart from the 'w' of the ')^w' suffix
    inferred, given = tmp_path / "inferred.oaf", tmp_path / "given.oaf"
    code, out, err = run(capsys, "abp", "finite-up", "a(wa)^w", "--out-fprime", str(inferred))
    assert (code, out, err) == (0, "ok\n", "")
    code, out, _ = run(capsys, "abp", "finite-up", "a(wa)^w", "--out-fprime", str(given),
                       "--alphabet", "aw")
    assert (code, out) == (0, "ok\n")
    assert inferred.read_bytes() == given.read_bytes()
    code, _, err = run(capsys, "abp", "finite-up", "a(wa)", "--out-fprime", str(inferred))
    assert code == 2 and "cannot parse UP word" in err


def test_v3_member_prefix(capsys):
    code, out, _ = run(capsys, "v3", "member", "baaa")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "v3", "member", "ba")
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, "v3", "prefix", "ba")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "v3", "prefix", "aa")
    assert (code, out) == (0, "false\n")


@pytest.mark.parametrize("command, word", [
    ("member", "abz"), ("prefix", "abz"), ("f2-witness", "c"),
])
def test_v3_counter_words_must_be_over_ab(capsys, command, word):
    code, out, err = run(capsys, "v3", command, word)
    assert (code, out) == (2, "") and f"symbol {word[-1]!r} not in alphabet" in err


def test_v3_root_decimal_rendering(capsys):
    code, out, _ = run(capsys, "v3", "root", "-k", "2",
                       "--precision", "40", "--digits", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("[") and lines[0].endswith("]")
    assert lines[1] == "~ 0.6180339887"
    # a bad digit count is refused before the interval line is printed
    code, out, err = run(capsys, "v3", "root", "-k", "3", "--digits", "-1")
    assert (code, out) == (2, "") and "digit count must be >= 0" in err


def test_v3_irrational(capsys):
    code, out, _ = run(capsys, "v3", "irrational", "-k", "2")
    assert code == 0 and "conclusion: the root is irrational" in out


def test_v3_survival(capsys):
    code, out, _ = run(capsys, "v3", "survival", "-n", "1")
    assert (code, out) == (0, "1/2\n")
    code, out, _ = run(capsys, "v3", "survival", "-n", "4",
                       "--measure", "a=1/3 b=2/3")
    assert code == 0 and "/" in out


def test_v3_f2_witness(capsys):
    code, out, _ = run(capsys, "v3", "f2-witness", "ba")
    assert (code, out) == (0, "aa\n")
    code, _, err = run(capsys, "v3", "f2-witness", "aa")
    assert code == 2 and err


def test_v3_f1_refute(oaf_dir, capsys):
    code, out, _ = run(capsys, "v3", "f1-refute", oaf_dir["ball_c_open"])
    assert code == 0
    report = dict(line.split(": ", 1) for line in out.splitlines())
    assert report["side"] == "greater" and report["witness_ball"] == "c"
    assert report["witness_kind"] == "ball_in_e_not_f1"
    # the ball search has no length cap to set
    code, _, err = run(capsys, "v3", "f1-refute", oaf_dir["ball_c_open"],
                       "--max-witness-len", "8")
    assert code == 2 and "unrecognized arguments" in err


@pytest.mark.parametrize("precision", ["0", "-3"])
@pytest.mark.parametrize("verb", ["root", "f1-refute"])
def test_v3_rejects_non_positive_precision(oaf_dir, capsys, verb, precision):
    argv = ["f1-refute", oaf_dir["ball_c_open"]] if verb == "f1-refute" else ["root", "-k", "3"]
    code, out, err = run(capsys, "v3", *argv, "--precision", precision)
    assert (code, out) == (2, "") and "precision must be positive" in err


@pytest.mark.parametrize("argv", [
    ["measure", "FILE", "--measure"],
    ["v3", "survival", "-n", "4", "--measure"],
])
def test_measure_spec_rejects_duplicate_entries(oaf_dir, capsys, argv):
    argv = [oaf_dir["ball_a"] if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, *argv, "a=1/4 a=1/2 b=1/2")
    assert (code, out) == (2, "") and "duplicate measure entry for 'a'" in err
    # commas separate entries, as on an OAF measure line
    code, out, _ = run(capsys, *argv, "a=1/4,b=3/4")
    assert code == 0 and out


def test_v3_membership_verbs(capsys):
    code, out, _ = run(capsys, "v3", "f1-member", "ac(a)^w")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "v3", "f2-member", "(b)^w")
    assert (code, out) == (0, "true\n")


def test_error_exit_codes(oaf_dir, capsys, tmp_path):
    code, _, err = run(capsys, "measure", str(tmp_path / "missing.oaf"))
    assert code == 2 and err
    bad = tmp_path / "bad.oaf"
    bad.write_text("kind: dma\n")
    code, _, err = run(capsys, "measure", str(bad))
    assert code == 2 and "alphabet" in err
    code, _, _ = run(capsys, "definitely-not-a-command")
    assert code == 2
    code, _, err = run(capsys, "member-up", oaf_dir["inf_a"], "not-a-upword")
    assert code == 2 and err


def test_huge_state_count_exits_2_at_once(tmp_path):
    # 10^11 states and no transition line: the file is refused from its line
    # count before any table is built.  The child's address space is capped,
    # so a parser that allocated first would fail fast, not fill the memory.
    p = tmp_path / "huge.oaf"
    p.write_text("kind: dma\nalphabet: a b\nstates: 99999999999\ninitial: 0\n")
    assert len(p.read_bytes()) == 55
    code = textwrap.dedent("""
        import resource, sys, time
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
        from omegabaire.cli import main
        t0 = time.perf_counter()
        code = main(["empty", sys.argv[1]])
        print(code, time.perf_counter() - t0)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code, str(p)], capture_output=True,
                         text=True, env=env, timeout=60)
    assert "Traceback" not in out.stderr, out.stderr
    status, seconds = out.stdout.split()
    assert status == "2" and float(seconds) < 0.5
    assert "0 declared" in out.stderr and "need 199999999998" in out.stderr


def test_internal_limit_exit_code(capsys, tmp_path, monkeypatch):
    # the complement's family is materialized for output; past the bound on
    # the cycle-closed subsets of one component the command must exit 3
    p = tmp_path / "sc16.oaf"
    p.write_text(serialize_oaf(from_dma(dma_strongly_connected_16())))
    monkeypatch.setattr(automata, "_MATERIALIZE_LIMIT", 100)
    code, out, err = run(capsys, "boolean", "complement", str(p))
    assert code == 3 and out == ""
    assert err.startswith("limit exceeded in boolean: cannot materialize")
    assert "component of 16 states" in err and "more than 100" in err


def test_complement_of_long_cycle_is_written(capsys, tmp_path):
    # a 20-state single cycle has one cycle-closed subset, which the family
    # accepts, so its complement is empty however large the component
    n = 20
    rows = [[(q + 1) % n, (q + 1) % n] for q in range(n)]
    big = DMA.from_parts(AB, n, 0, rows, [set(range(n))])
    p = tmp_path / "big.oaf"
    p.write_text(serialize_oaf(from_dma(big)))
    code, out, _ = run(capsys, "boolean", "complement", str(p))
    assert code == 0
    assert is_empty(parse_oaf(out).to_dma())


def test_failed_synth_writes_no_output(capsys, tmp_path, monkeypatch):
    p = tmp_path / "sc16.oaf"
    p.write_text(serialize_oaf(from_dma(dma_strongly_connected_16())))
    out_e, out_fp = tmp_path / "e.oaf", tmp_path / "fp.oaf"
    monkeypatch.setattr(automata, "_MATERIALIZE_LIMIT", 100)
    code, out, err = run(capsys, "abp", "synth", str(p),
                         "--out-e", str(out_e), "--out-fprime", str(out_fp))
    assert code == 3 and out == "" and err.startswith("limit exceeded in abp synth: ")
    assert not out_e.exists() and not out_fp.exists()


def test_closure_of_large_transient_scc_is_written(capsys, tmp_path):
    a = dma_transient_cycle()
    p = tmp_path / "cycle.oaf"
    p.write_text(serialize_oaf(from_dma(a)))
    code, out, _ = run(capsys, "closure", str(p))
    assert code == 0
    assert equivalent(parse_oaf(out).to_dma(), closure(a))


def test_synth_and_verify_large_transient_scc(capsys, tmp_path):
    p = tmp_path / "cycle.oaf"
    p.write_text(serialize_oaf(from_dma(dma_transient_cycle())))
    out_e, out_fp = str(tmp_path / "e.oaf"), str(tmp_path / "fp.oaf")
    code, out, _ = run(capsys, "abp", "synth", str(p), "--out-e", out_e,
                       "--out-fprime", out_fp)
    assert (code, out) == (0, "ok\n")
    code, out, _ = run(capsys, "abp", "verify", str(p), out_e, out_fp)
    assert (code, out) == (0, "true\n")


def test_output_deterministic(oaf_dir, capsys):
    code1, out1, _ = run(capsys, "closure", oaf_dir["inf_a"])
    code2, out2, _ = run(capsys, "closure", oaf_dir["inf_a"])
    assert code1 == code2 == 0 and out1 == out2


# ---------------------------------------------------------------------------
# one parser per process


def test_parser_built_once_and_reused(oaf_dir, capsys):
    calls = [
        ("measure", oaf_dir["ball_a"]),
        ("v3", "root", "-k", "3", "--precision", "20"),
        ("no-such-command",),
        ("meager", oaf_dir["singleton"], oaf_dir["full"]),
        ("--help",),
        ("v3", "root", "-k"),
        ("abp", "finite-up", "--help"),
        ("v3", "survival", "-n", "7", "--measure", "a=1/3 b=2/3"),
        ("closure", oaf_dir["inf_a"]),
    ]
    cli._build_parser.cache_clear()
    first = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 2, 0, 0, 2, 0, 0, 0]
    assert "usage: omegabaire" in first[2][2] and "usage: omegabaire" in first[4][1]
    again = [run(capsys, *argv) for argv in calls + calls]
    assert again == first + first
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3 * len(calls) - 1)
    # a parser built afresh gives the same bytes
    cli._build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == first


def test_import_builds_no_parser():
    code = ("import omegabaire.cli as c; "
            "print(c._build_parser.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout == "0\n"


def test_cached_parser_calls_current_functions(oaf_dir, capsys, monkeypatch):
    assert run(capsys, "meager", oaf_dir["full"]) == (0, "false\n", "")
    monkeypatch.setattr(cli, "is_meager", lambda a: True)
    assert run(capsys, "meager", oaf_dir["full"]) == (0, "true\n", "")

    def irrational(args):
        print("replaced")
        return 0

    monkeypatch.setattr(cli, "_cmd_v3_irrational", irrational)
    assert run(capsys, "v3", "irrational", "-k", "3") == (0, "replaced\n", "")
    monkeypatch.undo()
    assert run(capsys, "meager", oaf_dir["full"]) == (0, "false\n", "")


def test_unexpected_fault_exits_3_naming_the_command(oaf_dir, capsys, monkeypatch):
    def fault(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "_cmd_empty", fault)
    code, out, err = run(capsys, "empty", oaf_dir["full"])
    assert code == 3 and out == "" and "Traceback" not in err
    assert err == "internal error in empty: KeyError: 'lost'\n"
    monkeypatch.setattr(cli, "_cmd_v3_irrational", fault)
    code, _, err = run(capsys, "v3", "irrational", "-k", "3")
    assert code == 3 and err.startswith("internal error in v3 irrational: KeyError")


# ---------------------------------------------------------------------------
# fuzzing: mutated OAF input exits 0, 2 or 3 and never with a traceback


_FUZZ_CHARS = "0123456789 abcw{}:#/=-\n"
_FUZZ_TOKENS = ["-1", "0", "1", "3", "17", "99999999999", "1/2", "x", "{}", "{0 0}", "dma",
                "open", "accept:", "trans:", "final:", "measure:", "uniform", "a=1/2 b=1/2"]


def _mutate(rng: random.Random, text: str) -> str:
    op = rng.randrange(7)
    if not text:
        return rng.choice(_FUZZ_TOKENS)
    i = rng.randrange(len(text))
    if op == 0:
        return text[:i] + text[i + 1:]
    if op == 1:
        return text[:i] + rng.choice(_FUZZ_CHARS) + text[i:]
    if op == 2:
        return text[:i]
    lines = text.split("\n")
    j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
    if op == 3:
        del lines[j]
    elif op == 4:
        lines.insert(k, lines[j])
    elif op == 5:
        lines[j], lines[k] = lines[k], lines[j]
    else:
        words = lines[j].split(" ")
        words[rng.randrange(len(words))] = rng.choice(_FUZZ_TOKENS)
        lines[j] = " ".join(words)
    return "\n".join(lines)


def test_cli_fuzz_mutated_oaf(capsys, tmp_path):
    cases = [
        (serialize_oaf(from_dma(dma_a_ball_or_bw())) + "measure: a=1/3 b=2/3\n",
         [["measure"], ["meager"], ["dense"], ["nowhere-dense"], ["avoided-infix"],
          ["empty"], ["closure"], ["interior"], ["boolean", "complement"]]),
        (serialize_oaf(from_open(marked_member_balls(4))), [["v3", "f1-refute"]]),
    ]
    rng = random.Random(2024)
    path = tmp_path / "mutant.oaf"
    for base, commands in cases:
        seen = set()
        for _ in range(250):
            text = base
            for _ in range(rng.randint(1, 3)):
                text = _mutate(rng, text)
            path.write_text(text)
            for cmd in commands:
                code, out, err = run(capsys, *cmd, str(path))
                assert code in (0, 2, 3), (cmd, text, err)
                assert "Traceback" not in out + err, (cmd, text, err)
                seen.add(code)
        assert {0, 2} <= seen
