"""Finite-field construction and arithmetic."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import gf_coeffs, gf_oracle_tables, gf_rank, poly_mul
from hypersens.errors import BadParameter
from hypersens.families import MAX_UNIVERSE
from hypersens.gf import (
    MAX_ORDER,
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


_MODULI = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "field_moduli.json").read_text()
)


def test_every_extension_modulus_is_golden():
    """The modulus of every GF(p^m), m >= 2, q <= MAX_ORDER: 78 fields."""
    got = {}
    for p, m in all_prime_powers(MAX_ORDER):
        if m >= 2:
            got[f"GF({p}^{m})"] = list(make_field(p, m).modulus)
    assert got == _MODULI


def test_gf4_modulus_is_x2_plus_x_plus_1():
    # the only irreducible among the four monic quadratics over F_2
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_modulus_choice_is_lexicographically_first():
    # hand-derived: everything before these vectors (low degree first) is
    # reducible, either by the root 0/1 or by an obvious factor
    assert make_field(2, 3).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def test_composite_characteristic_rejected():
    with pytest.raises(BadParameter, match="4 is not prime"):
        make_field(4, 1)


def test_degree_bounds():
    with pytest.raises(BadParameter, match="extension degree 0 < 1"):
        make_field(2, 0)
    with pytest.raises(BadParameter, match=r"field order 2\^21 exceeds"):
        make_field(2, 21)
    with pytest.raises(BadParameter, match=r"field order 2\^16 exceeds"):
        make_field(2, 16)
    with pytest.raises(BadParameter, match=r"field order 65537\^1 exceeds"):
        make_field(65537, 1)


def test_max_order_is_the_largest_family_field():
    # a family over GF(q) with ell >= 1 needs q^2 <= its universe bound
    assert MAX_ORDER**2 == MAX_UNIVERSE
    f = make_field(2, 15)
    assert f.order == MAX_ORDER and f.mul(f.inv(12345), 12345) == 1


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
                assert poly_mul(a, b, p) != mod


@pytest.mark.parametrize("p,m", all_prime_powers(64))
def test_field_axioms_exhaustive(p, m):
    f = make_field(p, m)
    q = f.order
    add = np.array([[f.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[f.mul(a, b) for b in range(q)] for a in range(q)])
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    # [a,b,c] indexing: T[T] is (a@b)@c, T[:, T] is a@(b@c)
    assert np.array_equal(add[add], add[:, add])
    assert np.array_equal(mul[mul], mul[:, mul])
    dist_lhs = mul[:, add]
    dist_rhs = add[mul[:, :, None], mul[:, None, :]]
    assert np.array_equal(dist_lhs, dist_rhs)
    # nonzero elements form a group under mul
    inv_ranks = []
    for a in range(1, q):
        hits = np.nonzero(mul[a] == 1)[0]
        assert len(hits) == 1
        inv_ranks.append(int(hits[0]))
        assert f.inv(a) == hits[0]
    for a, ia in enumerate(inv_ranks, start=1):
        assert inv_ranks[ia - 1] == a  # inv is an involution


@pytest.mark.parametrize("p,m", all_prime_powers(64))
def test_rank_is_a_bijection(p, m):
    f = make_field(p, m)
    vectors = {tuple(gf_coeffs(f, r)) for r in range(f.order)}
    assert len(vectors) == f.order
    for r in range(f.order):
        assert gf_rank(f, gf_coeffs(f, r)) == r


@pytest.mark.parametrize("p,m", all_prime_powers(256))
def test_table_arithmetic_matches_polynomial_oracle(p, m):
    f = make_field(p, m)
    q = f.order
    add, mul = gf_oracle_tables(f)
    pairs = range(q)
    assert [[f.add(a, b) for b in pairs] for a in pairs] == add.tolist()
    assert [[f.mul(a, b) for b in pairs] for a in pairs] == mul.tolist()
    neg = [int(np.nonzero(add[a] == 0)[0][0]) for a in pairs]
    assert [f.neg(a) for a in pairs] == neg
    assert [[f.sub(a, b) for b in pairs] for a in pairs] == add[:, neg].tolist()
    inv = [int(np.nonzero(mul[a] == 1)[0][0]) for a in range(1, q)]
    assert [f.inv(a) for a in range(1, q)] == inv
    # pow by repeated oracle multiplication, exponents 0 .. q, and -1
    power = np.ones(q, dtype=np.int64)
    for e in range(q + 1):
        assert [f.pow(a, e) for a in pairs] == power.tolist()
        power = mul[power, np.arange(q)]
    assert [f.pow(a, -1) for a in range(1, q)] == inv


def test_arithmetic_examples():
    gf5 = make_field(5, 1)
    assert gf5.add(2, 3) == 0
    assert gf5.inv(2) == 3
    gf4 = make_field(2, 2)
    x = gf_rank(gf4, (0, 1))
    assert gf4.mul(x, x) == gf_rank(gf4, (1, 1))  # x^2 = x + 1 mod x^2+x+1


def test_zero_inverse_rejected():
    f = make_field(7, 1)
    with pytest.raises(BadParameter, match="0 has no multiplicative inverse"):
        f.inv(0)
    with pytest.raises(BadParameter, match="0 has no multiplicative inverse"):
        f.pow(0, -2)
    assert f.pow(0, 0) == 1 and f.pow(0, 3) == 0


@pytest.mark.parametrize("p,m", [(3, 2), (5, 1), (2, 3)])
def test_negation_identities(p, m):
    f = make_field(p, m)
    for a in range(f.order):
        assert f.sub(a, a) == 0
        assert f.add(f.neg(a), a) == 0


def test_eval_poly_examples():
    gf5 = make_field(5, 1)
    f = FieldPoly(gf5, (1, 1))  # x + 1
    assert f.eval(np.arange(5)).tolist() == [1, 2, 3, 4, 0]
    gf3 = make_field(3, 1)
    sq = FieldPoly(gf3, (0, 0, 1))  # x^2
    assert sq.eval(np.arange(3)).tolist() == [0, 1, 1]
    const = FieldPoly(gf3, (2,))
    assert const.eval(np.arange(3)).tolist() == [2, 2, 2]


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_eval_poly_matches_power_sum(p, m):
    """Horner over the array of all points agrees with the naive sum of
    c_j * x^j on every (poly, x), d <= 3."""
    f = make_field(p, m)
    q = f.order
    for d in range(1, 4):
        for idx in range(q**d):
            ranks = [(idx // q**j) % q for j in range(d)]
            poly = FieldPoly(f, tuple(ranks))
            at_all = poly.eval(np.arange(q))
            for x in range(q):
                acc = 0
                for j, c in enumerate(poly.coeffs):
                    acc = f.add(acc, f.mul(c, f.pow(x, j)))
                assert at_all[x] == acc


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
def test_rank_round_trip_gf81(r):
    f = make_field(3, 4)
    assert gf_rank(f, gf_coeffs(f, r)) == r
    assert f.mul(r, 1) == r and f.add(r, 0) == r
