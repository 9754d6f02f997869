import pytest

from nda import cli
from nda.arith import Arithmetic
from nda.errors import LexError, OffCarrierError, ParseError
from nda.exprlang import (
    LT,
    MLL,
    MLLL,
    NUMBER,
    Binary,
    Literal,
    evaluate,
    parse_text,
    tokenize,
)

POW2 = "projective:pow:2@int:0:100"


@pytest.mark.parametrize("text, char", [("٣+1", "٣"), ("²", "²"), ("1+1٣", "٣")])
def test_non_ascii_digits_are_lex_errors(text, char):
    with pytest.raises(LexError, match=f"unknown character {char!r}"):
        tokenize(text)


@pytest.mark.parametrize("text", ["٣+1", "²"])
def test_non_ascii_digits_exit_3(text, monkeypatch, capsys):
    monkeypatch.delenv("NDA_FORMAT", raising=False)
    assert cli.main(["eval", POW2, text]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("evaluation error: unknown character")


def test_longest_match_relations():
    tokens = tokenize("1<<<2<<3<4")
    assert [(t.kind, t.lexeme, t.position) for t in tokens if t.kind != NUMBER] == [
        (MLLL, "<<<", 1), (MLL, "<<", 5), (LT, "<", 8)]


@pytest.mark.parametrize("text, offset", [("٣x", 0), ("12 + ٣٣ + x", 5)])
def test_lex_error_offset_after_multibyte_character(text, offset):
    # only ASCII is consumed, so the error lands on the first two-byte
    # character at its byte offset; a lexer that consumed '٣' as a digit
    # would blame a later character at an offset counted in characters
    with pytest.raises(LexError, match="'٣'") as exc:
        tokenize(text)
    assert exc.value.offset == offset


def test_addition_folds_left():
    assert parse_text("1+2+3") == Binary("add", Binary("add", Literal(1), Literal(2)), Literal(3))


@pytest.mark.parametrize("text", ["+".join(["1"] * 1500), "(" * 400 + "1" + ")" * 400,
                                  "1 == " + "1*" * 300 + "1"], ids=["chain", "nesting", "relation-side"])
def test_deep_trees_are_refused_before_evaluation(text, monkeypatch):
    monkeypatch.setattr(Arithmetic, "add", lambda *args: pytest.fail("evaluated a refused tree"))
    with pytest.raises(ParseError, match="more than 200"):
        parse_text(text)
    monkeypatch.delenv("NDA_FORMAT", raising=False)
    assert cli.main(["eval", POW2, text]) == 3


def test_depth_bound_is_inclusive():
    chain = "+".join(["0"] * 201)  # 200 operators on the left spine
    nested = "(" * 200 + "0" + ")" * 200
    arith = Arithmetic.from_spec(POW2)
    assert evaluate(parse_text(chain), arith) == 0
    assert evaluate(parse_text(nested), arith) == 0
    with pytest.raises(ParseError):
        parse_text(chain + "+0")
    with pytest.raises(ParseError):
        parse_text("(" + nested + ")")


def test_relation_inside_parentheses_rejected():
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_text("(1 == 1)")


def test_off_carrier_literal_rejected():
    node = parse_text("1.5 + 1")
    with pytest.raises(OffCarrierError, match="literal 1.5 is not on carrier int:0:100"):
        evaluate(node, Arithmetic.from_spec(POW2))
