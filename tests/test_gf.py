"""Finite-field construction and arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypersens.errors import DegreeOutOfRange, NonPrime, ZeroInverse
from hypersens.gf import (
    FieldPoly,
    is_prime,
    make_field,
    prime_power,
    prime_power_in_range,
)


def all_prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        pm = prime_power(q)
        if pm:
            out.append(pm)
    return out


def test_prime_field_has_empty_modulus():
    f = make_field(5, 1)
    assert f.order == 5 and f.modulus == ()


def test_gf4_modulus_is_x2_plus_x_plus_1():
    # the only irreducible among the four monic quadratics over F_2
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_modulus_choice_is_lexicographically_first():
    # hand-derived: everything before these vectors (low degree first) is
    # reducible, either by the root 0/1 or by an obvious factor
    assert make_field(2, 3).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def test_composite_characteristic_rejected():
    with pytest.raises(NonPrime):
        make_field(4, 1)


def test_degree_bounds():
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 0)
    with pytest.raises(DegreeOutOfRange):
        make_field(2, 21)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_modulus_is_monic_and_irreducible(p, m):
    mod = list(make_field(p, m).modulus)
    assert len(mod) == m + 1 and mod[-1] == 1
    # independent check: no factorization into two monic lower-degree polys
    for da in range(1, m // 2 + 1):
        db = m - da
        for ia in range(p**da):
            a = [(ia // p**j) % p for j in range(da)] + [1]
            for ib in range(p**db):
                b = [(ib // p**j) % p for j in range(db)] + [1]
                assert _poly_mul(a, b, p) != mod


@pytest.mark.parametrize("p,m", all_prime_powers(64))
def test_field_axioms_exhaustive(p, m):
    f = make_field(p, m)
    q = f.order
    elems = list(f.elements())
    add = np.array([[f.add(a, b).rank for b in elems] for a in elems])
    mul = np.array([[f.mul(a, b).rank for b in elems] for a in elems])
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    # [a,b,c] indexing: T[T] is (a@b)@c, T[:, T] is a@(b@c)
    assert np.array_equal(add[add], add[:, add])
    assert np.array_equal(mul[mul], mul[:, mul])
    dist_lhs = mul[:, add]
    dist_rhs = add[mul[:, :, None], mul[:, None, :]]
    assert np.array_equal(dist_lhs, dist_rhs)
    # nonzero elements form a group under mul
    one = f.one.rank
    inv_ranks = []
    for a in range(1, q):
        hits = np.nonzero(mul[a] == one)[0]
        assert len(hits) == 1
        inv_ranks.append(int(hits[0]))
        assert f.inv(elems[a]).rank == hits[0]
    for a, ia in enumerate(inv_ranks, start=1):
        assert inv_ranks[ia - 1] == a  # inv is an involution


@pytest.mark.parametrize("p,m", all_prime_powers(64))
def test_rank_is_a_bijection(p, m):
    f = make_field(p, m)
    ranks = [e.rank for e in f.elements()]
    assert ranks == list(range(f.order))
    for r in ranks:
        assert f.from_rank(r).rank == r


def test_arithmetic_examples():
    gf5 = make_field(5, 1)
    assert gf5.add(gf5.from_rank(2), gf5.from_rank(3)).rank == 0
    assert gf5.inv(gf5.from_rank(2)).rank == 3
    gf4 = make_field(2, 2)
    x = gf4.element((0, 1))
    assert gf4.mul(x, x) == gf4.element((1, 1))  # x^2 = x + 1 mod x^2+x+1


def test_zero_inverse_rejected():
    f = make_field(7, 1)
    with pytest.raises(ZeroInverse):
        f.inv(f.zero)


def test_operator_sugar():
    f = make_field(3, 2)
    a, b = f.from_rank(4), f.from_rank(7)
    assert (a + b) == f.add(a, b)
    assert (a * b) == f.mul(a, b)
    assert (a - a).is_zero()
    assert (-a) + a == f.zero


def test_eval_poly_examples():
    gf5 = make_field(5, 1)
    f = FieldPoly.from_ranks(gf5, [1, 1])  # x + 1
    assert f.eval(gf5.from_rank(4)).rank == 0
    gf3 = make_field(3, 1)
    sq = FieldPoly.from_ranks(gf3, [0, 0, 1])  # x^2
    assert sq.eval(gf3.from_rank(2)).rank == 1
    const = FieldPoly.from_ranks(gf3, [2])
    for x in gf3.elements():
        assert const.eval(x).rank == 2


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_eval_poly_matches_power_sum(p, m):
    """Horner agrees with naive sum of c_j * x^j on every (poly, x), d <= 3."""
    f = make_field(p, m)
    q = f.order
    for d in range(1, 4):
        for idx in range(q**d):
            ranks = [(idx // q**j) % q for j in range(d)]
            poly = FieldPoly.from_ranks(f, ranks)
            for x in f.elements():
                acc = f.zero
                for j, c in enumerate(poly.coeffs):
                    acc = f.add(acc, f.mul(c, f.pow(x, j)))
                assert poly.eval(x) == acc


def test_prime_power_in_range_examples():
    assert prime_power_in_range(5, 10) == (7, 1)
    assert prime_power_in_range(1, 3) == (2, 1)
    assert prime_power_in_range(13, 16) is None
    assert prime_power_in_range(3, 6) == (2, 2)  # 4 before 5
    assert prime_power_in_range(8, 9) is None  # strict interval is empty


@given(st.integers(min_value=0, max_value=10**6))
def test_is_prime_matches_factor_search(n):
    naive = n >= 2 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))
    assert is_prime(n) == naive


@given(st.integers(min_value=0, max_value=80))
def test_from_rank_round_trip_gf81(r):
    f = make_field(3, 4)
    assert f.from_rank(r).rank == r
