import random

import pytest

from conftest import reference_tokenize
from meshlite.errors import LexError
from meshlite.fixtures import CORPUS, corpus_source
from meshlite.lexer import KEYWORDS, OPERATORS, PUNCTUATION, tokenize
from test_compiler import communicating_program, generate


def kinds_and_lexemes(tokens):
    return [(t.kind, t.lexeme) for t in tokens]


def test_simple_assignment():
    tokens = tokenize("a:=b;")
    assert kinds_and_lexemes(tokens) == [
        ("identifier", "a"),
        ("operator", ":="),
        ("identifier", "b"),
        ("punctuation", ";"),
        ("end", ""),
    ]


def test_empty_source_yields_end_marker():
    tokens = tokenize("")
    assert kinds_and_lexemes(tokens) == [("end", "")]


def test_declaration_with_chain():
    tokens = tokenize("var a : Int :: const")
    assert kinds_and_lexemes(tokens) == [
        ("keyword", "var"),
        ("identifier", "a"),
        ("operator", ":"),
        ("identifier", "Int"),
        ("operator", "::"),
        ("identifier", "const"),
        ("end", ""),
    ]


def test_double_colon_beats_single():
    tokens = tokenize("a::b:c")
    ops = [t.lexeme for t in tokens if t.kind == "operator"]
    assert ops == ["::", ":"]


def test_comments_and_whitespace_are_discarded():
    tokens = tokenize("a := 1; // trailing comment\n// whole line\nb := 2;")
    idents = [t.lexeme for t in tokens if t.kind == "identifier"]
    assert idents == ["a", "b"]


def test_string_and_real_literals():
    tokens = tokenize('readfile(S, "image.dat"); x := 1.5;')
    strings = [t for t in tokens if t.kind == "string-literal"]
    reals = [t for t in tokens if t.kind == "real-literal"]
    assert strings[0].lexeme == '"image.dat"'
    assert reals[0].lexeme == "1.5"


def test_comparison_operators():
    tokens = tokenize("a < b <= c > d >= e == f != g")
    ops = [t.lexeme for t in tokens if t.kind == "operator"]
    assert ops == ["<", "<=", ">", ">=", "==", "!="]


def test_positions_are_one_based():
    tokens = tokenize("a\n  b")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[1].line, tokens[1].column) == (2, 3)


def test_lex_error_position():
    with pytest.raises(LexError) as err:
        tokenize("a := $;")
    assert err.value.line == 1
    assert err.value.column == 6


def test_unterminated_string():
    with pytest.raises(LexError):
        tokenize('x := "oops')


@pytest.mark.parametrize("name", CORPUS)
def test_position_monotonicity_over_corpus(name):
    tokens = tokenize(corpus_source(name))
    positions = [(t.line, t.column) for t in tokens]
    assert positions == sorted(positions)
    for t in tokens[:-1]:
        assert t.lexeme and t.lexeme in corpus_source(name)


# --- digits are decimal digits; identifiers start with a letter or '_' ---


def test_superscript_digit_ends_an_integer_literal():
    with pytest.raises(LexError) as err:
        tokenize("var x := 2²;")
    assert str(err.value) == "1:11: unexpected character '²'"
    assert (err.value.line, err.value.column) == (1, 11)
    assert kinds_and_lexemes(tokenize("var x := 2"))[-2] == ("integer-literal", "2")


def test_superscript_digit_alone_is_rejected():
    with pytest.raises(LexError) as err:
        tokenize("\n ²")
    assert str(err.value) == "2:2: unexpected character '²'"


def test_vulgar_fraction_cannot_start_an_identifier():
    with pytest.raises(LexError) as err:
        tokenize("a := ½x;")
    assert str(err.value) == "1:6: unexpected character '½'"
    # after a letter it is an identifier character, as str.isalnum() says
    assert kinds_and_lexemes(tokenize("x½ a²"))[:2] == [("identifier", "x½"), ("identifier", "a²")]


def test_arabic_indic_digits_are_an_integer_literal():
    tokens = tokenize("x := ١٢;")
    assert kinds_and_lexemes(tokens)[2] == ("integer-literal", "١٢")
    assert int(tokens[2].lexeme) == 12


def test_token_equality_ignores_position():
    a, b = tokenize("x\n  x")[:2]
    assert a == b and hash(a) == hash(b)
    assert a != tokenize("y")[0]
    assert repr(b) == "Token(identifier, 'x', 2:3)"


def test_comment_text_is_never_lexed():
    # were the scan to back into the comment, '$' would be reported first
    with pytest.raises(LexError) as err:
        tokenize("x := 1; // a $\n@")
    assert (err.value.line, err.value.column) == (2, 1)
    assert kinds_and_lexemes(tokenize("a // \"\n//b")) == [("identifier", "a"), ("end", "")]


# --- differential test against the character-at-a-time reference lexer ---


def lexed(tokenize_fn, source):
    """Every token's kind, lexeme and position, or the LexError's."""
    try:
        return [(t.kind, t.lexeme, t.line, t.column) for t in tokenize_fn(source)]
    except LexError as err:
        return ("LexError", str(err), err.line, err.column)


def random_source(rng):
    """Random text over the whole lexical alphabet, errors included."""
    pieces = (
        OPERATORS + sorted(PUNCTUATION) + sorted(KEYWORDS)
        + ["a", "x1", "_", "_t", "é", "éa", "to2", "vars", "12", "0", "3.25", "7.", ".5", "1.2.3",
           '"ab"', '""', '"a b"', '"', '"x\ny"', "//", "// c", "// x :=\n", "// $ ' ² \"", "/",
           " ", "  ", "\t", "\r", "\n", "\r\n", "\f", "²", "½", "١", "١٢", "$", "'"]
    )
    text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
    if rng.random() < 0.2:
        text += "// no newline at the end"
    return text


def test_random_sources_match_the_reference_lexer():
    rng = random.Random(6)
    outcomes = []
    for source in (random_source(rng) for _ in range(600)):
        got = lexed(tokenize, source)
        assert got == lexed(reference_tokenize, source), source
        outcomes.append(got)
    # the sample reaches every outcome: success and both kinds of LexError
    errors = [o[1] for o in outcomes if o[0] == "LexError"]
    assert any("unexpected character" in e for e in errors)
    assert any("unterminated string literal" in e for e in errors)
    assert len(outcomes) - len(errors) >= 50


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_matches_the_reference_lexer(name):
    source = corpus_source(name)
    assert lexed(tokenize, source) == lexed(reference_tokenize, source)


def test_generated_programs_match_the_reference_lexer():
    sources = [generate(seed)[1] for seed in range(150)]
    sources += [communicating_program(seed, 1 + seed % 4) for seed in range(40)]
    for source in sources:
        assert lexed(tokenize, source) == lexed(reference_tokenize, source), source
