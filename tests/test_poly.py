import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from lcdmds import FieldMismatch, GrsSpec, ParameterError, Poly, field, interpolate
from lcdmds.linear import _rref
from lcdmds.poly import NEG_INF, divided_differences, inverse_differences, linear_complexity

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
            inverses = tuple(inverse_differences(F, xs))
            d = divided_differences(F, ys, inverses)
            last = max((j for j, c in enumerate(d) if c), default=NEG_INF)
            assert last == g.degree and (g.is_zero() or d[last] == g.coeffs[-1])
            assert divided_differences(F, [0] * m, inverses) == [0] * m


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


def test_interpolate_holds_one_row_of_inverse_differences():
    # 150 points over GF(3^8): the whole table of inverse differences would be
    # 11,175 entries, 89 KB of tuple slots alone; interpolate makes one row at
    # a time, so its traced peak stays within a few words a point
    F = field(3, 8)
    rng = random.Random(150)
    points = [(x, rng.randrange(F.q)) for x in rng.sample(range(F.q), 150)]
    tracemalloc.start()
    try:
        g = interpolate(F, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 8 * len(points), peak
    assert all(g.eval(x) == y for x, y in points[::15])


def hankel_rank(F, s, k):
    return len(_rref(F, np.array([s[r : r + k] for r in range(k)], dtype=np.int64))[1])


@pytest.mark.parametrize("q, k_max", [(3, 5), (5, 3)])
def test_linear_complexity_gives_the_hankel_rank_of_every_sequence(q, k_max):
    # rank H_k = min(L, 2k - L) for the k x k Hankel matrix of s_0..s_(2k-2)
    # with linear complexity L (Jonckheere and Ma 1989): every sequence
    F = field(q)
    for k in range(1, k_max + 1):
        for s in product(range(q), repeat=2 * k - 1):
            L = linear_complexity(F, s)
            assert min(L, 2 * k - L) == hankel_rank(F, s, k), s


@pytest.mark.parametrize("pe", [(5, 2), (3, 3), (2, 4), (7, 1)])
def test_linear_complexity_gives_the_hankel_rank_in_extension_fields(pe):
    F = field(*pe)
    rng = random.Random(F.q)
    singular, beyond = set(), set()
    for _ in range(400):
        k = rng.randint(1, 16)
        s = [rng.randrange(F.q) for _ in range(2 * k - 1)]
        # zero a random run, copy a short recurrence's output, or plant rank
        # r < k as a sum of r geometric sequences, so that singular matrices
        # are drawn often; a nonzero added to the last entry of a planted one
        # makes L = 2k - 1 - r > k when r < k - 1, the 2k - L side
        draw = rng.random()
        if draw < 0.25:
            i = rng.randrange(len(s))
            j = rng.randint(i + 1, len(s))
            s[i:j] = [0] * (j - i)
        elif draw < 0.5 and k > 1:
            c = rng.randrange(F.q)
            for j in range(1, len(s)):
                s[j] = F.mul(c, s[j - 1])
        elif draw < 0.9 and k > 1:
            terms = [(rng.randrange(1, F.q), rng.randrange(1, F.q)) for _ in range(rng.randrange(k))]
            s = [0] * (2 * k - 1)
            for c, x in terms:
                for j in range(len(s)):
                    s[j] = F.add(s[j], F.mul(c, F.pow(x, j)))
            if rng.random() < 0.5:
                s[-1] = F.add(s[-1], rng.randrange(1, F.q))
        L = linear_complexity(F, s)
        rank = hankel_rank(F, s, k)
        assert min(L, 2 * k - L) == rank, s
        singular.add(rank < k)
        beyond.add(L > k)
    assert singular == beyond == {False, True}
