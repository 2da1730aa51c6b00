"""Differential tests of the sparse structure tensor against a plain Scalar
product loop over the basis products."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from excalg import liealg as ll
from excalg.composition import named_algebra
from excalg.jordan import jordan_algebra
from excalg.linalg import unit_vec
from excalg.scalar import ZERO, Scalar, rand_scalar


def reference_product(alg, x, y):
    """sum_ij x_i y_j (e_i e_j), in Scalar arithmetic."""
    out = [ZERO] * len(x)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            c = xi * yj
            out = [o + c * t for o, t in zip(out, alg.basis_product(i, j))]
    return out


def gaussian_sc_algebra():
    """A skew bracket with Gaussian constants of mixed denominators."""
    rng = random.Random(0)
    d = 4
    bracket = {}
    for i in range(d):
        for j in range(i + 1, d):
            comp = {k: rand_scalar(rng, 5, gaussian=True) for k in range(d) if rng.random() < 0.7}
            bracket[(i, j)] = comp
            bracket[(j, i)] = {k: -v for k, v in comp.items()}
    return ll.SCAlgebra(d, bracket, skew=True)


ALGEBRAS = {
    "O": lambda: named_algebra("o"),
    "split-O": lambda: named_algebra("split-o"),
    "sedenion": lambda: named_algebra("sedenion"),
    "H3(a=1)": lambda: jordan_algebra(1),
    "H3(a=2)": lambda: jordan_algebra(2),
    "H3(a=4)": lambda: jordan_algebra(4),
    "H3(a=8)": lambda: jordan_algebra(8),
    "gaussian-sc": gaussian_sc_algebra,
}


def product(alg, x, y):
    if isinstance(alg, ll.SCAlgebra):
        return alg.bracket_coords(x, y)
    if hasattr(alg, "product_coords"):
        return alg.product_coords(x, y)
    return alg.mul_coords(x, y)


@functools.cache
def algebra(name):
    return ALGEBRAS[name]()


rationals = st.builds(
    lambda n, d: Scalar.rational(n, d), st.integers(-9, 9), st.integers(1, 9)
)
coordinates = st.one_of(
    st.just(ZERO),
    rationals,
    st.builds(lambda a, b: Scalar(a.re, b.re), rationals, rationals),
)


def vectors(d):
    units = st.integers(0, d - 1).map(lambda i: unit_vec(d, i))
    return st.one_of(
        units,
        st.lists(st.one_of(st.just(ZERO), rationals), min_size=d, max_size=d),
        st.lists(coordinates, min_size=d, max_size=d),
    )


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_matches_reference(name, data):
    alg = algebra(name)
    x = data.draw(vectors(alg.dim))
    y = data.draw(vectors(alg.dim))
    got = product(alg, x, y)
    want = reference_product(alg, x, y)
    assert got == want
    assert [hash(c) for c in got] == [hash(c) for c in want]
    assert [str(c) for c in got] == [str(c) for c in want]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_basis_products(name):
    alg = algebra(name)
    d = alg.dim
    for i in range(d):
        for j in range(d):
            assert product(alg, unit_vec(d, i), unit_vec(d, j)) == alg.basis_product(i, j)


def test_zero_input_gives_shared_zero():
    alg = algebra("O")
    x = [ZERO] * 8
    assert all(c is ZERO for c in alg.mul_coords(x, unit_vec(8, 3)))
    assert all(c is ZERO for c in alg.mul_coords(unit_vec(8, 3), x))


def test_sc_tensor_is_built_on_first_use():
    # without the skew flag nothing is built before the first product
    g = gaussian_sc_algebra()
    h = ll.SCAlgebra(4, g.bracket, skew=False)
    assert "tensor" not in vars(h)
    h.bracket_coords(unit_vec(4, 0), unit_vec(4, 1))
    assert vars(h)["tensor"].dim == 4 and not h.tensor.rational
    # a skew bracket's first use is its skew check; products reuse that tensor
    built = vars(g)["tensor"]
    g.bracket_coords(unit_vec(4, 0), unit_vec(4, 1))
    assert g.tensor is built
