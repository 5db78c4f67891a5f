"""Unit tests for the MATLAB type lattice."""

from repro.semantics.shapes import Shape
from repro.semantics.types import (
    DType,
    MType,
    dtype_from_name,
    promote_binary,
)


def test_dtype_rank_join():
    assert DType.INT8.join(DType.INT32) is DType.INT32
    assert DType.LOGICAL.join(DType.DOUBLE) is DType.DOUBLE
    assert DType.DOUBLE.join(DType.DOUBLE) is DType.DOUBLE


def test_single_beats_double():
    # MATLAB rule: mixed single/double arithmetic stays single.
    assert DType.SINGLE.join(DType.DOUBLE) is DType.SINGLE
    assert DType.DOUBLE.join(DType.SINGLE) is DType.SINGLE


def test_dtype_predicates():
    assert DType.INT16.is_integer and not DType.INT16.is_float
    assert DType.SINGLE.is_float and not DType.SINGLE.is_integer
    assert not DType.LOGICAL.is_integer


def test_dtype_from_name():
    assert dtype_from_name("double") is DType.DOUBLE
    assert dtype_from_name("int16") is DType.INT16
    assert dtype_from_name("bogus") is None


def test_scalar_constructors():
    t = MType.double(3.0)
    assert t.is_scalar and t.value == 3.0
    assert MType.logical(True).dtype is DType.LOGICAL


def test_with_shape_drops_value():
    t = MType.double(3.0).with_shape(Shape(2, 2))
    assert t.value is None
    assert t.shape == Shape(2, 2)


def test_element_type():
    t = MType(DType.SINGLE, True, Shape(4, 4))
    elem = t.element_type()
    assert elem.is_scalar and elem.dtype is DType.SINGLE and elem.is_complex


def test_as_real_as_complex():
    t = MType.double()
    assert t.as_complex().is_complex
    assert t.as_complex().as_real().is_complex is False


def test_join_preserves_equal_values():
    a = MType.double(5.0)
    b = MType.double(5.0)
    assert a.join(b).value == 5.0


def test_join_drops_different_values():
    assert MType.double(5.0).join(MType.double(6.0)).value is None


def test_join_shapes_and_complexity():
    a = MType(DType.DOUBLE, False, Shape(1, 4))
    b = MType(DType.DOUBLE, True, Shape(1, 4))
    joined = a.join(b)
    assert joined.is_complex
    assert joined.shape == Shape(1, 4)


def test_join_conflicting_shapes():
    a = MType(DType.DOUBLE, False, Shape(1, 4))
    b = MType(DType.DOUBLE, False, Shape(1, 5))
    assert a.join(b).shape == Shape(1, None)


def test_promote_binary_logical_becomes_double():
    dtype, is_complex = promote_binary(MType.logical(), MType.logical())
    assert dtype is DType.DOUBLE and not is_complex


def test_promote_binary_complex_contagion():
    dtype, is_complex = promote_binary(
        MType.double(), MType.scalar(DType.DOUBLE, is_complex=True))
    assert is_complex


def test_promote_binary_single_wins():
    dtype, _ = promote_binary(MType.scalar(DType.SINGLE), MType.double())
    assert dtype is DType.SINGLE


def test_describe_readable():
    t = MType(DType.SINGLE, True, Shape(2, 3))
    text = t.describe()
    assert "complex" in text and "single" in text and "[2x3]" in text
    assert MType.double(2.0).describe() == "double (= 2.0)"


def test_without_value():
    assert MType.double(2.0).without_value().value is None
    plain = MType.double()
    assert plain.without_value() is plain


def test_scalar_kind_flags_are_plain_member_attributes():
    import pickle

    from repro.ir.types import ScalarKind

    kinds = {kind: (kind.is_complex, kind.is_float, kind.is_integer)
             for kind in ScalarKind}
    assert kinds == {
        ScalarKind.BOOL: (False, False, True),
        ScalarKind.I8: (False, False, True),
        ScalarKind.I16: (False, False, True),
        ScalarKind.I32: (False, False, True),
        ScalarKind.F32: (False, True, False),
        ScalarKind.F64: (False, True, False),
        ScalarKind.C64: (True, False, False),
        ScalarKind.C128: (True, False, False),
    }
    for kind in ScalarKind:
        assert "is_complex" in vars(kind)
        # A member still pickles by its value alone.
        assert kind.__reduce_ex__(4) == (ScalarKind, (kind.value,))
        assert pickle.loads(pickle.dumps(kind)) is kind


def test_dtype_lookups_are_plain_member_attributes(monkeypatch):
    import pickle

    from repro.ir.types import ScalarKind, scalar_from_mtype

    table = {dtype: (dtype.is_integer, dtype.is_float, dtype.short_name)
             for dtype in DType}
    assert table == {
        DType.CHAR: (False, False, "char"),
        DType.LOGICAL: (False, False, "logical"),
        DType.INT8: (True, False, "int8"),
        DType.INT16: (True, False, "int16"),
        DType.INT32: (True, False, "int32"),
        DType.SINGLE: (False, True, "single"),
        DType.DOUBLE: (False, True, "double"),
    }
    for dtype in DType:
        assert "short_name" in vars(dtype)
        # A member still pickles by its value alone.
        assert dtype.__reduce_ex__(4) == (DType, (dtype.value,))
        assert pickle.loads(pickle.dumps(dtype)) is dtype

    def reference_join(a, b):
        if {a, b} == {DType.SINGLE, DType.DOUBLE}:
            return DType.SINGLE
        if a.is_integer and b.is_float:
            return a
        if b.is_integer and a.is_float:
            return b
        return a if a.value >= b.value else b

    joins = {(a, b): reference_join(a, b) for a in DType for b in DType}
    kinds = {dtype: scalar_from_mtype(MType.scalar(dtype)).kind
             for dtype in DType}
    assert kinds[DType.CHAR] is ScalarKind.I8

    def no_hash(self):
        raise AssertionError(f"{self} hashed")

    # join, short_name and the IR kind of a type hash no member.
    monkeypatch.setattr(DType, "__hash__", no_hash)
    for (a, b), joined in joins.items():
        assert a.join(b) is joined
    for dtype, kind in kinds.items():
        assert dtype_from_name(dtype.short_name) is dtype
        assert scalar_from_mtype(MType.scalar(dtype)).kind is kind
    assert scalar_from_mtype(MType.scalar(DType.SINGLE, True)).kind is \
        ScalarKind.C64
