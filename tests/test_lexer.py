"""Unit tests for the MATLAB lexer."""

import pytest

from repro.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind as K


def kinds(source: str) -> list:
    return [t.kind for t in tokenize(source) if t.kind is not K.EOF]


def texts(source: str) -> list:
    return [t.text for t in tokenize(source) if t.kind is not K.EOF]


def one(source: str):
    tokens = [t for t in tokenize(source)
              if t.kind not in (K.EOF, K.NEWLINE)]
    assert len(tokens) == 1, tokens
    return tokens[0]


# ----------------------------------------------------------------------
# Numbers
# ----------------------------------------------------------------------


def test_integer_literal():
    token = one("42")
    assert token.kind is K.INT_NUMBER
    assert token.value == 42


def test_float_literal():
    token = one("3.25")
    assert token.kind is K.NUMBER
    assert token.value == 3.25


def test_leading_dot_float():
    token = one(".5")
    assert token.kind is K.NUMBER
    assert token.value == 0.5


def test_trailing_dot_float():
    token = one("5.")
    assert token.kind is K.NUMBER
    assert token.value == 5.0


def test_exponent_forms():
    assert one("1e3").value == 1000.0
    assert one("1E-3").value == 0.001
    assert one("2.5e+2").value == 250.0


def test_fortran_style_exponent():
    # MATLAB accepts 1d3 as 1e3.
    assert one("1d3").value == 1000.0


def test_imaginary_literals():
    for text, value in [("3i", 3.0), ("2.5j", 2.5), ("1e2i", 100.0)]:
        token = one(text)
        assert token.kind is K.IMAG_NUMBER
        assert token.value == value


def test_number_followed_by_identifier_not_imaginary():
    # '3in' is number 3 followed by identifier 'in', not 3i + n.
    tokens = kinds("3in")
    assert tokens == [K.INT_NUMBER, K.IDENT]


def test_dot_caret_after_integer():
    # '1.^2' lexes the dot as part of the operator.
    assert kinds("1.^2") == [K.INT_NUMBER, K.DOT_CARET, K.INT_NUMBER]


def test_dot_quote_after_integer():
    assert kinds("x = 1.'") == [K.IDENT, K.ASSIGN, K.INT_NUMBER, K.DOT_QUOTE]


# ----------------------------------------------------------------------
# Strings vs transpose
# ----------------------------------------------------------------------


def test_string_literal():
    token = one("'hello'")
    assert token.kind is K.STRING
    assert token.value == "hello"


def test_string_with_escaped_quote():
    assert one("'it''s'").value == "it's"


def test_empty_string():
    assert one("''").value == ""


def test_transpose_after_identifier():
    assert kinds("a'") == [K.IDENT, K.QUOTE]


def test_transpose_after_rparen_and_rbracket():
    assert kinds("(a)'")[-1] is K.QUOTE
    assert kinds("[1]'")[-1] is K.QUOTE


def test_transpose_after_number():
    assert kinds("5'") == [K.INT_NUMBER, K.QUOTE]


def test_string_after_operator():
    assert kinds("a + 'x'") == [K.IDENT, K.PLUS, K.STRING]


def test_string_after_comma_and_lparen():
    assert K.STRING in kinds("f('x')")
    assert kinds("f(a, 'x')").count(K.STRING) == 1


def test_double_transpose():
    assert kinds("a''") == [K.IDENT, K.QUOTE, K.QUOTE]


def test_space_before_quote_is_string():
    # 'a '...'': after whitespace a quote starts a string.
    tokens = kinds("a 'b'")
    assert tokens == [K.IDENT, K.STRING]


def test_unterminated_string_raises():
    with pytest.raises(LexError, match="unterminated string"):
        tokenize("'abc")


def test_string_may_not_span_lines():
    with pytest.raises(LexError, match="unterminated string"):
        tokenize("'abc\ndef'")


# ----------------------------------------------------------------------
# Comments and continuations
# ----------------------------------------------------------------------


def test_line_comment_ignored():
    assert kinds("a % comment here\nb") == [K.IDENT, K.NEWLINE, K.IDENT]


def test_block_comment_ignored():
    source = "a\n%{\nthis is\nall comment\n%}\nb"
    assert K.IDENT in kinds(source)
    assert len([k for k in kinds(source) if k is K.IDENT]) == 2


def test_nested_block_comment():
    source = "%{\n%{\ninner\n%}\nstill comment\n%}\nx"
    assert [k for k in kinds(source) if k is K.IDENT] == [K.IDENT]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError, match="unterminated block comment"):
        tokenize("%{\nno closing")


def test_percent_brace_not_alone_is_line_comment():
    # '%{' with trailing text on the line is a plain line comment.
    assert kinds("a %{ not a block\nb") == [K.IDENT, K.NEWLINE, K.IDENT]


def test_percent_brace_with_trailing_text_is_line_comment():
    # MATLAB opens a block only when '%{' is alone on its line.
    assert kinds("%{ note\nx = 1;\n") == [
        K.NEWLINE, K.IDENT, K.ASSIGN, K.INT_NUMBER, K.SEMICOLON, K.NEWLINE]


def test_well_formed_block_comment_hides_its_lines():
    source = "x = 1;\n  %{\ny = 'not a string\n%}\nz = 2;\n"
    tokens = [t for t in tokenize(source) if t.kind is K.IDENT]
    assert [t.text for t in tokens] == ["x", "z"]
    assert tokens[1].space_before  # the block separates like whitespace


def test_continuation_joins_lines():
    tokens = kinds("a + ...\n b")
    assert tokens == [K.IDENT, K.PLUS, K.IDENT]


def test_continuation_comment_text_ignored():
    tokens = kinds("a + ... this is ignored\n b")
    assert tokens == [K.IDENT, K.PLUS, K.IDENT]


# ----------------------------------------------------------------------
# Operators, keywords, structure
# ----------------------------------------------------------------------


def test_two_char_operators():
    source = ".* ./ .\\ .^ == ~= <= >= && ||"
    expected = [K.DOT_STAR, K.DOT_SLASH, K.DOT_BACKSLASH, K.DOT_CARET,
                K.EQ, K.NEQ, K.LE, K.GE, K.AMP_AMP, K.PIPE_PIPE]
    assert kinds(source) == expected


def test_single_char_operators():
    assert kinds("+-*/\\^<>&|~:,;()[]{}@") == [
        K.PLUS, K.MINUS, K.STAR, K.SLASH, K.BACKSLASH, K.CARET, K.LT,
        K.GT, K.AMP, K.PIPE, K.TILDE, K.COLON, K.COMMA, K.SEMICOLON,
        K.LPAREN, K.RPAREN, K.LBRACKET, K.RBRACKET, K.LBRACE, K.RBRACE,
        K.AT]


def test_keywords_recognized():
    source = "function end if elseif else for while switch case " \
             "otherwise break continue return"
    expected = [K.KW_FUNCTION, K.KW_END, K.KW_IF, K.KW_ELSEIF, K.KW_ELSE,
                K.KW_FOR, K.KW_WHILE, K.KW_SWITCH, K.KW_CASE,
                K.KW_OTHERWISE, K.KW_BREAK, K.KW_CONTINUE, K.KW_RETURN]
    assert kinds(source) == expected


def test_keyword_prefix_is_identifier():
    assert kinds("endfor forx") == [K.IDENT, K.IDENT]


def test_identifier_with_underscore_and_digits():
    token = one("my_var_2")
    assert token.kind is K.IDENT
    assert token.text == "my_var_2"


def test_newlines_are_tokens():
    assert kinds("a\nb\n") == [K.IDENT, K.NEWLINE, K.IDENT, K.NEWLINE]


def test_space_before_flag():
    tokens = tokenize("a -b")
    minus = tokens[1]
    b = tokens[2]
    assert minus.kind is K.MINUS and minus.space_before
    assert b.kind is K.IDENT and not b.space_before


def test_space_flag_both_sides():
    tokens = tokenize("a - b")
    assert tokens[1].space_before
    assert tokens[2].space_before


def test_unexpected_character_raises():
    with pytest.raises(LexError, match="unexpected character"):
        tokenize("a $ b")


@pytest.mark.parametrize("source, where, char", [
    ("\u00e9t\u00e9 = x * 2;", "1:1", "\u00e9"),   # letters outside ASCII
    ("y = x + \u00b2;", "1:9", "\u00b2"),          # a Unicode digit
    ("y = 3\u0663;", "1:6", "\u0663"),             # Arabic-Indic three
])
def test_names_and_numerals_are_ascii(source, where, char):
    with pytest.raises(LexError, match=f"<string>:{where}: unexpected "
                                       f"character '{char}'"):
        tokenize(source)


def test_non_ascii_text_in_strings_and_comments_is_kept():
    tokens = tokenize("s = '\u00e9t\u00e9'; % caf\u00e9\n")
    assert tokens[2].kind is K.STRING and tokens[2].value == "\u00e9t\u00e9"


def test_spans_cover_source():
    tokens = tokenize("abc = 12")
    assert tokens[0].span.start == 0 and tokens[0].span.end == 3
    assert tokens[1].span.start == 4 and tokens[1].span.end == 5
    assert tokens[2].span.start == 6 and tokens[2].span.end == 8


def test_eof_token_always_present():
    assert tokenize("")[-1].kind is K.EOF
    assert tokenize("a")[-1].kind is K.EOF
