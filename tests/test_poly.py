import random

import pytest

from lcdmds import FieldMismatch, GrsSpec, ParameterError, Poly, field, interpolate
from lcdmds.poly import NEG_INF, divided_differences

F5 = field(5)
F7 = field(7)


def test_eval_examples():
    assert Poly(F5, [1, 0, 1]).eval(2) == 0  # X^2 + 1 at 2
    assert Poly(F5).eval(3) == 0
    assert Poly(F7, [0, 1, 3]).eval(1) == 4  # 3X^2 + X at 1


def test_coeff_examples():
    f = Poly(F7, [0, 1, 3])
    assert f.coeff(2) == 3
    assert f.coeff(0) == 0
    assert f.coeff(9) == 0
    with pytest.raises(ParameterError):
        f.coeff(-1)


def test_degree_and_normalization():
    assert Poly(F5, [1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly(F5, [0, 0]).coeffs == ()
    zero = Poly(F5)
    assert zero.is_zero()
    assert zero.degree == float("-inf")
    # the sentinel sits below every integer bound
    assert zero.degree <= -1 and zero.degree <= 0 and zero.degree <= 10


def test_interpolate_examples():
    assert interpolate(F5, [(0, 1), (1, 2), (2, 3)]).coeffs == (1, 1)  # X + 1
    assert interpolate(F5, [(0, 0)]).is_zero()
    # oracle: X^2 over GF(7) passes through (1,1), (2,4), (3,2)
    square = Poly(F7, [0, 0, 1])
    points = [(x, square.eval(x)) for x in (1, 2, 3)]
    assert [y for _, y in points] == [1, 4, 2]
    assert interpolate(F7, points) == square


def test_interpolate_rejects_duplicate_nodes():
    with pytest.raises(ParameterError, match="duplicate"):
        interpolate(F5, [(1, 1), (1, 2)])
    with pytest.raises(ParameterError, match="one point"):
        interpolate(F5, [])


def test_interpolate_roundtrip_random():
    rng = random.Random(123)
    for F in (field(5), field(7), field(3, 2), field(3, 3)):
        for _ in range(25):
            m = rng.randint(1, F.q)
            xs = rng.sample(range(F.q), m)
            ys = [rng.randrange(F.q) for _ in xs]
            g = interpolate(F, list(zip(xs, ys)))
            assert g.degree < m
            for x, y in zip(xs, ys):
                assert g.eval(x) == y
            # the last nonzero Newton coefficient sits at deg g and is its
            # leading coefficient; the zero polynomial has none
            d = divided_differences(F, xs, ys)
            last = max((j for j, c in enumerate(d) if c), default=NEG_INF)
            assert last == g.degree and (g.is_zero() or d[last] == g.coeffs[-1])
            assert divided_differences(F, xs, [0] * m) == [0] * m


def test_interpolate_degree_bound():
    # coefficient of X^j vanishes for every j >= number of points
    rng = random.Random(5)
    F = field(11)
    xs = rng.sample(range(11), 4)
    g = interpolate(F, [(x, rng.randrange(11)) for x in xs])
    for j in range(4, 12):
        assert g.coeff(j) == 0


def test_field_mismatch_rejected():
    spec = GrsSpec(F5, (0, 1, 2, 3), (1, 1, 1, 1), 2)
    with pytest.raises(FieldMismatch):
        spec.in_dual(Poly(F7, [1]))
    with pytest.raises(FieldMismatch):
        spec.codeword(Poly(F7, [1]))


@pytest.mark.parametrize("bad", [5, -1, True, 1.0])
def test_interpolate_checks_its_points(bad):
    # the inner loops run unchecked, so every x and y is checked on entry
    with pytest.raises(ParameterError, match="element index"):
        interpolate(F5, [(0, 1), (bad, 2)])
    with pytest.raises(ParameterError, match="element index"):
        interpolate(F5, [(0, 1), (1, bad)])


def test_eval_and_constructor_check_elements():
    f = Poly(F5, [1, 2])
    for bad in (5, -1, True, 1.0):
        with pytest.raises(ParameterError, match="element index"):
            f.eval(bad)
    with pytest.raises(ParameterError, match="element index"):
        Poly(F5, [5])
    with pytest.raises(ParameterError, match="element index"):
        Poly(field(3, 2), [1, 9])


def test_poly_is_immutable_value():
    f = Poly(F5, [1, 2])
    with pytest.raises(AttributeError):
        f.coeffs = (0,)
    assert f == Poly(F5, [1, 2, 0])
    assert hash(f) == hash(Poly(F5, [1, 2]))
    assert repr(Poly(F5, [1, 0, 3])) == "Poly(GF(5), 1 + 3*X^2)"
    assert repr(Poly(F5)) == "Poly(GF(5), 0)"
