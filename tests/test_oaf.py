import random
from fractions import Fraction

import pytest

from omegabaire import (
    OafError,
    equivalent,
    from_dma,
    from_open,
    mu,
    open_to_dma,
    parse_oaf,
    serialize_oaf,
)

from helpers import random_dma, random_open

FULL_TEXT = """\
kind: dma
alphabet: a b
states: 1
initial: 0
trans: 0 a 0
trans: 0 b 0
accept: {0}
"""


def test_minimal_full_space_document():
    doc = parse_oaf(FULL_TEXT)
    assert doc.kind == "dma"
    assert doc.acceptance == ((0,),)
    assert doc.transitions == ((0, 0),)
    assert serialize_oaf(doc) == FULL_TEXT
    assert mu(doc.to_dma()) == 1


def test_totality_error_names_state_and_symbol():
    text = FULL_TEXT.replace("trans: 0 b 0\n", "")
    with pytest.raises(OafError) as ei:
        parse_oaf(text)
    msg = str(ei.value)
    assert "state 0" in msg and "'b'" in msg


def test_roundtrip_random_dma_documents():
    rng = random.Random(71)
    for _ in range(40):
        a = random_dma(rng, 5)
        doc = from_dma(a)
        assert doc.transitions is a.transitions
        text = serialize_oaf(doc)
        doc2 = parse_oaf(text)
        assert doc2 == doc
        assert serialize_oaf(doc2) == text
        # the parsed table is in canonical order, so the automaton shares it
        assert doc2.to_dma().transitions is doc2.transitions
        assert equivalent(doc2.to_dma(), a)


def test_roundtrip_random_open_documents():
    rng = random.Random(72)
    for _ in range(30):
        e = random_open(rng)
        doc = from_open(e)
        text = serialize_oaf(doc)
        doc2 = parse_oaf(text)
        assert doc2 == doc
        assert equivalent(open_to_dma(doc2.to_open()), open_to_dma(e))


def test_comments_and_blank_lines_ignored():
    text = "# header\n\n" + FULL_TEXT.replace("states: 1", "states: 1  # one state")
    doc = parse_oaf(text)
    assert doc.n_states == 1


def test_empty_acceptance_family():
    text = FULL_TEXT.replace("accept: {0}", "accept:")
    doc = parse_oaf(text)
    assert doc.acceptance == ()
    from omegabaire import is_empty
    assert is_empty(doc.to_dma())


def test_measure_line_uniform_and_explicit():
    doc = parse_oaf(FULL_TEXT + "measure: uniform\n")
    assert doc.weights == "uniform"
    doc2 = parse_oaf(FULL_TEXT + "measure: a=1/3 b=2/3\n")
    assert doc2.weight_map() == {"a": Fraction(1, 3), "b": Fraction(2, 3)}
    with pytest.raises(OafError):
        parse_oaf(FULL_TEXT + "measure: a=1/3 b=1/3\n")
    with pytest.raises(OafError):
        parse_oaf(FULL_TEXT + "measure: a=1/3\n")


def test_open_documents_and_final_absorption_warning():
    text = """\
kind: open
alphabet: a b
states: 2
initial: 0
trans: 0 a 1
trans: 0 b 0
trans: 1 a 0
trans: 1 b 0
final: 1
"""
    warnings: list[str] = []
    doc = parse_oaf(text, warnings)
    assert warnings and "absorb" in warnings[0]
    e = doc.to_open()
    for q in e.finals:
        assert all(t == q for t in e.transitions[q])


def test_open_absorbing_final_no_warning():
    e_text = serialize_oaf(from_open(random_open(random.Random(73))))
    warnings: list[str] = []
    parse_oaf(e_text, warnings)
    assert warnings == []


def test_kind_mismatch_errors():
    with pytest.raises(OafError):
        parse_oaf(FULL_TEXT.replace("accept: {0}", "final: 0"))
    open_text = FULL_TEXT.replace("kind: dma", "kind: open")
    with pytest.raises(OafError):
        parse_oaf(open_text)  # accept: on an open document


def test_parse_error_diagnostics_carry_line_numbers():
    bad = FULL_TEXT.replace("initial: 0", "initial: 7")
    with pytest.raises(OafError):
        parse_oaf(bad)
    dup = FULL_TEXT + "trans: 0 a 0\n"
    with pytest.raises(OafError) as ei:
        parse_oaf(dup)
    assert "duplicate transition" in str(ei.value)
    with pytest.raises(OafError) as ei2:
        parse_oaf(FULL_TEXT.replace("accept: {0}", "accept: {0} junk"))
    assert "junk" in str(ei2.value) or "stray" in str(ei2.value)


def test_unknown_key_rejected():
    with pytest.raises(OafError):
        parse_oaf(FULL_TEXT + "color: blue\n")


def test_to_dma_on_open_doc_rejected():
    text = """\
kind: open
alphabet: a b
states: 1
initial: 0
trans: 0 a 0
trans: 0 b 0
final: 0
"""
    doc = parse_oaf(text)
    with pytest.raises(OafError):
        doc.to_dma()
    doc.to_open()
