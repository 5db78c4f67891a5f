"""Unit tests for the MATLAB parser."""

import pytest

from repro.errors import LexError, ParseError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse, parse_expression


# ----------------------------------------------------------------------
# Expressions and precedence
# ----------------------------------------------------------------------


def test_additive_multiplicative_precedence():
    expr = parse_expression("a + b * c")
    assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
    assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"


def test_left_associativity():
    expr = parse_expression("a - b - c")
    assert expr.op == "-"
    assert isinstance(expr.left, ast.BinaryOp) and expr.left.op == "-"


def test_unary_minus_binds_below_power():
    # MATLAB: -a^b == -(a^b)
    expr = parse_expression("-a^b")
    assert isinstance(expr, ast.UnaryOp) and expr.op == "-"
    assert isinstance(expr.operand, ast.BinaryOp) and expr.operand.op == "^"


def test_power_accepts_signed_exponent():
    expr = parse_expression("2^-3")
    assert expr.op == "^"
    assert isinstance(expr.right, ast.UnaryOp) and expr.right.op == "-"


def test_power_left_to_right():
    # MATLAB evaluates 2^3^2 as (2^3)^2.
    expr = parse_expression("2^3^2")
    assert expr.op == "^"
    assert isinstance(expr.left, ast.BinaryOp) and expr.left.op == "^"


def test_comparison_below_range():
    expr = parse_expression("1:3 == 2")
    assert isinstance(expr, ast.BinaryOp) and expr.op == "=="
    assert isinstance(expr.left, ast.Range)


def test_short_circuit_precedence():
    expr = parse_expression("a || b && c")
    assert expr.op == "||"
    assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "&&"


def test_elementwise_operators():
    for op in (".*", "./", ".\\", ".^"):
        expr = parse_expression(f"a {op} b")
        assert isinstance(expr, ast.BinaryOp) and expr.op == op


def test_logical_not():
    expr = parse_expression("~a")
    assert isinstance(expr, ast.UnaryOp) and expr.op == "~"


def test_transpose_postfix():
    expr = parse_expression("a'")
    assert isinstance(expr, ast.Transpose) and expr.conjugate


def test_dot_transpose():
    expr = parse_expression("a.'")
    assert isinstance(expr, ast.Transpose) and not expr.conjugate


def test_transpose_of_negation():
    # -a' is -(a')
    expr = parse_expression("-a'")
    assert isinstance(expr, ast.UnaryOp)
    assert isinstance(expr.operand, ast.Transpose)


def test_transpose_after_index():
    expr = parse_expression("x(1)'")
    assert isinstance(expr, ast.Transpose)
    assert isinstance(expr.operand, ast.CallIndex)


def test_range_two_part():
    expr = parse_expression("1:10")
    assert isinstance(expr, ast.Range) and expr.step is None


def test_range_three_part():
    expr = parse_expression("1:2:10")
    assert isinstance(expr, ast.Range)
    assert isinstance(expr.step, ast.NumberLit) and expr.step.value == 2


def test_range_with_expressions():
    expr = parse_expression("a+1:b*2")
    assert isinstance(expr, ast.Range)
    assert isinstance(expr.start, ast.BinaryOp)


def test_parenthesized_expression():
    expr = parse_expression("(a + b) * c")
    assert expr.op == "*"
    assert isinstance(expr.left, ast.BinaryOp) and expr.left.op == "+"


def test_call_with_arguments():
    expr = parse_expression("f(x, y + 1)")
    assert isinstance(expr, ast.CallIndex)
    assert len(expr.args) == 2


def test_nested_calls():
    expr = parse_expression("f(g(h(x)))")
    inner = expr.args[0].args[0]
    assert isinstance(inner, ast.CallIndex)
    assert inner.target.name == "h"


def test_colon_subscript():
    expr = parse_expression("a(:, 2)")
    assert isinstance(expr.args[0], ast.ColonAll)


def test_end_in_subscript():
    expr = parse_expression("a(end)")
    assert isinstance(expr.args[0], ast.EndMarker)


def test_end_arithmetic():
    expr = parse_expression("a(end - 1)")
    arg = expr.args[0]
    assert isinstance(arg, ast.BinaryOp)
    assert isinstance(arg.left, ast.EndMarker)


def test_end_outside_index_rejected():
    with pytest.raises(ParseError, match="end"):
        parse_expression("end + 1")


def test_imaginary_literal_expression():
    expr = parse_expression("2 + 3i")
    assert isinstance(expr.right, ast.ImagLit)
    assert expr.right.value == 3.0


def test_function_handle():
    expr = parse_expression("@sin")
    assert isinstance(expr, ast.FuncHandle) and expr.name == "sin"


def test_anonymous_function():
    expr = parse_expression("@(x, y) x + y")
    assert isinstance(expr, ast.AnonFunc)
    assert expr.params == ["x", "y"]
    assert isinstance(expr.body, ast.BinaryOp)


# ----------------------------------------------------------------------
# Matrix literals
# ----------------------------------------------------------------------


def test_matrix_rows_and_columns():
    expr = parse_expression("[1 2; 3 4]")
    assert len(expr.rows) == 2
    assert len(expr.rows[0]) == 2


def test_matrix_comma_separators():
    expr = parse_expression("[1, 2, 3]")
    assert len(expr.rows[0]) == 3


def test_empty_matrix():
    expr = parse_expression("[]")
    assert expr.rows == []


def test_juxtaposed_negative_is_new_element():
    expr = parse_expression("[1 -2]")
    assert len(expr.rows[0]) == 2
    assert isinstance(expr.rows[0][1], ast.UnaryOp)


def test_spaced_minus_is_binary():
    expr = parse_expression("[1 - 2]")
    assert len(expr.rows[0]) == 1
    assert isinstance(expr.rows[0][0], ast.BinaryOp)


def test_tight_minus_is_binary():
    expr = parse_expression("[1-2]")
    assert len(expr.rows[0]) == 1


def test_matrix_with_expressions():
    expr = parse_expression("[a+b c*d]")
    assert len(expr.rows[0]) == 2


def test_matrix_newline_rows():
    program = parse("m = [1 2\n3 4];")
    matrix = program.script[0].value
    assert len(matrix.rows) == 2


def test_nested_matrix_concat():
    expr = parse_expression("[[1 2] [3 4]]")
    assert len(expr.rows[0]) == 2
    assert all(isinstance(e, ast.MatrixLit) for e in expr.rows[0])


def test_matrix_call_element_no_space():
    expr = parse_expression("[f(1) 2]")
    assert isinstance(expr.rows[0][0], ast.CallIndex)


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


def script(source: str):
    return parse(source).script


def test_assignment_suppressed_and_displayed():
    stmts = script("a = 1;\nb = 2\n")
    assert stmts[0].suppressed is True
    assert stmts[1].suppressed is False


def test_indexed_assignment():
    stmt = script("a(3) = 5;")[0]
    assert isinstance(stmt, ast.Assign)
    assert isinstance(stmt.target, ast.CallIndex)


def test_multi_assignment():
    stmt = script("[q, r] = f(x);")[0]
    assert isinstance(stmt, ast.MultiAssign)
    assert len(stmt.targets) == 2


def test_multi_assignment_with_ignore():
    stmt = script("[~, idx] = max(v);")[0]
    assert stmt.targets[0].name == "~"


def test_matrix_literal_statement_not_multiassign():
    stmt = script("[1 2; 3 4];")[0]
    assert isinstance(stmt, ast.ExprStmt)
    assert isinstance(stmt.expr, ast.MatrixLit)


def test_if_elseif_else():
    stmt = script("if a\nx=1;\nelseif b\nx=2;\nelse\nx=3;\nend")[0]
    assert isinstance(stmt, ast.If)
    assert len(stmt.branches) == 2
    assert len(stmt.else_body) == 1


def test_for_loop():
    stmt = script("for i = 1:10\nx = i;\nend")[0]
    assert isinstance(stmt, ast.For)
    assert stmt.var == "i"
    assert isinstance(stmt.iterable, ast.Range)


def test_for_loop_with_parentheses():
    stmt = script("for (i = 1:10)\nx = i;\nend")[0]
    assert isinstance(stmt, ast.For)


def test_while_loop():
    stmt = script("while x > 0\nx = x - 1;\nend")[0]
    assert isinstance(stmt, ast.While)


def test_switch_statement():
    stmt = script(
        "switch k\ncase 1\nv=1;\ncase 2\nv=2;\notherwise\nv=0;\nend")[0]
    assert isinstance(stmt, ast.Switch)
    assert len(stmt.cases) == 2
    assert len(stmt.otherwise) == 1


def test_break_continue_return():
    stmts = script("break\ncontinue\nreturn")
    assert isinstance(stmts[0], ast.Break)
    assert isinstance(stmts[1], ast.Continue)
    assert isinstance(stmts[2], ast.Return)


def test_comma_separated_statements():
    stmts = script("a = 1, b = 2;")
    assert len(stmts) == 2
    assert stmts[0].suppressed is False


# ----------------------------------------------------------------------
# Functions
# ----------------------------------------------------------------------


def test_function_single_output():
    program = parse("function y = f(x)\ny = x;\nend")
    func = program.functions[0]
    assert func.name == "f"
    assert func.params == ["x"]
    assert func.returns == ["y"]


def test_function_multiple_outputs():
    program = parse("function [a, b] = f(x, y)\na = x; b = y;\nend")
    func = program.functions[0]
    assert func.returns == ["a", "b"]


def test_function_no_outputs():
    program = parse("function show(x)\ndisp(x);\nend")
    assert program.functions[0].returns == []


def test_function_no_parameters():
    program = parse("function y = f()\ny = 1;\nend")
    assert program.functions[0].params == []


def test_function_unused_input_placeholder():
    program = parse("function y = f(~, x)\ny = x;\nend")
    assert program.functions[0].params == ["~", "x"]


def test_multiple_functions_without_end():
    program = parse("function y = f(x)\ny = g(x);\n"
                    "function y = g(x)\ny = x + 1;")
    assert [f.name for f in program.functions] == ["f", "g"]


def test_multiple_functions_with_end():
    program = parse("function y = f(x)\ny = x;\nend\n"
                    "function z = g(w)\nz = w;\nend")
    assert len(program.functions) == 2


def test_script_program():
    program = parse("a = 1;\nb = a + 2;")
    assert program.is_script
    assert len(program.script) == 2


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------


def test_cell_array_rejected():
    with pytest.raises(ParseError, match="cell arrays"):
        parse("c = {1, 2};")


def test_struct_field_rejected():
    with pytest.raises(ParseError, match="struct"):
        parse("v = s.field;")


def test_missing_end_rejected():
    with pytest.raises(ParseError, match="end"):
        parse("if a\nx = 1;")


def test_invalid_assignment_target():
    with pytest.raises(ParseError, match="assignment"):
        parse("1 = x;")


def test_unterminated_matrix():
    with pytest.raises(ParseError):
        parse("a = [1 2; 3")


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_expression("(a + b")


def test_stray_operator():
    with pytest.raises(ParseError):
        parse_expression("* a")


def test_error_message_has_location():
    with pytest.raises(ParseError, match=r"<string>:2:\d+"):
        parse("a = 1;\nb = {};")


@pytest.mark.parametrize("line, where", [
    ("\u00e9t\u00e9 = x * 2;\ny = \u00e9t\u00e9;", "2:1"),  # a non-ASCII name
    ("y = x + \u00b2;", "2:9"),                           # a non-ASCII digit
])
def test_non_ascii_source_is_a_lex_error(line, where):
    with pytest.raises(LexError, match=f"f.m:{where}: unexpected character"):
        parse(f"function y = f(x)\n{line}\nend\n", "f.m")


@pytest.mark.parametrize("source", ["x = [1 -", "x = a(:", "x = a."])
def test_lookahead_at_the_last_token_reads_eof(source):
    # One token of lookahead past the last token reads the padding EOF.
    with pytest.raises(ParseError, match="<string>:1:"):
        parse(source)


def test_walk_visits_all_nodes():
    program = parse("function y = f(x)\nif x > 0\ny = x;\nelse\ny = -x;"
                    "\nend\nend")
    names = [n.name for n in ast.walk(program)
             if isinstance(n, ast.Identifier)]
    assert names.count("x") >= 3
