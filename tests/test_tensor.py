"""Differential tests of the sparse structure tensor, and of the algebra
elements kept as cleared integer vectors, against a plain Scalar product
loop over the basis products and plain Scalar arithmetic."""

import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from excalg import jordan as jd
from excalg import liealg as ll
from excalg.composition import CompAlgebra, named_algebra
from excalg.jordan import jordan_algebra
from excalg.linalg import unit_vec, vec_dot
from excalg.scalar import I, ZERO, Scalar, rand_scalar, sc
from excalg.tensor import lattice


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


def test_sc_tensor_is_built_at_construction():
    # a dict is turned into cells at once, with or without the skew flag,
    # and the algebra keeps the tensor only; products read that tensor
    g = gaussian_sc_algebra()
    h = ll.SCAlgebra(4, dict(g.bracket), skew=False)
    assert vars(h)["tensor"].dim == 4 and not h.tensor.rational
    assert not any(isinstance(v, dict) for v in vars(h).values())
    built = h.tensor
    assert h.bracket_coords(unit_vec(4, 0), unit_vec(4, 1)) == g.bracket_coords(unit_vec(4, 0), unit_vec(4, 1))
    assert h.tensor is built and h.bracket == g.bracket


@pytest.mark.parametrize("dim, degree", [(1, 3), (7, 2), (8, 1), (16, 2), (27, 3)])
def test_lattice_points(dim, degree):
    points = list(lattice(dim, degree))
    assert len(set(points)) == len(points) == math.comb(dim + degree - 1, degree)
    assert all(len(p) == dim and min(p) >= 0 and sum(p) == degree for p in points)


def test_lattice_catches_what_basis_vectors_miss():
    # x_2 x_5 is a quadratic form that vanishes on every basis vector and
    # on its double, but not on e_2 + e_5
    def residual(x):
        return x[2] * x[5]

    assert not any(residual(unit_vec(7, i)) for i in range(7))
    assert [p for p in lattice(7, 2) if residual(p)] == [(0, 0, 1, 0, 0, 1, 0)]


# -- elements kept as cleared integer vectors ---------------------------------------


def gaussian_gram_algebra():
    """K[u] with u^2 = -2i, u = (1 + i) e1 in C tensor Q(i): a Gaussian
    Gram matrix and Gaussian constants."""
    return CompAlgebra([[[1, 0], [0, 1]], [[0, 1], [sc(-2) * I, 0]]], name="gaussian-C")


ELEMENT_ALGEBRAS = {
    "O": lambda: named_algebra("o"),
    "split-O": lambda: named_algebra("split-o"),
    "sedenion": lambda: named_algebra("sedenion"),
    "sextonion": lambda: named_algebra("sextonion"),
    "gaussian-C": gaussian_gram_algebra,
}

# numerators and denominators past 2^63, so no path may rely on int64
huge = st.builds(
    lambda n, d: Scalar.rational(n, d),
    st.integers(-(2 ** 90), 2 ** 90), st.integers(2 ** 63, 2 ** 70),
)
wide_coordinates = st.one_of(
    coordinates, huge, st.builds(lambda a, b: Scalar(a.re, b.re), huge, rationals),
)


def wide_vectors(d):
    return st.one_of(vectors(d), st.lists(wide_coordinates, min_size=d, max_size=d))


def same_scalars(got, want):
    """Equal, equally hashed and equally printed Scalar coordinates."""
    got, want = list(got), list(want)
    assert got == want
    assert [hash(c) for c in got] == [hash(c) for c in want]
    assert [str(c) for c in got] == [str(c) for c in want]


def gram_form(alg, x, y):
    return vec_dot(x, alg.gram.apply(list(y)))


@functools.cache
def element_algebra(name):
    return ELEMENT_ALGEBRAS[name]()


@pytest.mark.parametrize("name", sorted(ELEMENT_ALGEBRAS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_alg_element_matches_scalar_path(name, data):
    alg = element_algebra(name)
    d = alg.dim
    x, y, z, w = (data.draw(wide_vectors(d)) for _ in range(4))
    c = data.draw(wide_coordinates)
    X, Y, Z, W = (alg.element(v) for v in (x, y, z, w))
    same_scalars(X.coords, x)
    xy = reference_product(alg, x, y)
    same_scalars((X * Y).coords, xy)
    # a chain of four products, never read back in between
    chain = reference_product(alg, reference_product(alg, xy, z), w)
    same_scalars((((X * Y) * Z) * W).coords, chain)
    same_scalars((X + Y).coords, [a + b for a, b in zip(x, y)])
    same_scalars((X - Y).coords, [a - b for a, b in zip(x, y)])
    same_scalars(X.scale(c).coords, [c * a for a in x])
    same_scalars(X.conj().coords, [sc(s) * a for s, a in zip(alg.conj_signs, x)])
    same_scalars([X.norm(), (X * Y).norm()], [gram_form(alg, x, x), gram_form(alg, xy, xy)])
    same_scalars([X.real_part()], [gram_form(alg, x, unit_vec(d, 0))])
    # built from Scalars or obtained as a product: one element, one hash
    for built, product in ((alg.element(xy), X * Y), (alg.element(chain), ((X * Y) * Z) * W)):
        assert built == product and hash(built) == hash(product)
    assert (X * alg.unit() == X) and hash(X * alg.unit()) == hash(X)
    assert (X == Y) == (x == y)
    assert (X - X).is_zero() and X.is_zero() == all(not a for a in x)


JORDAN_CASES = {"a=1": 1, "a=2": 2, "a=4": 4, "a=8": 8}


def scalar_trace_form(alg, x, y):
    return sum((w * a * b for w, a, b in zip(alg.trace_weights, x, y)), ZERO)


@pytest.mark.parametrize("name", sorted(JORDAN_CASES))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_jordan_element_matches_scalar_path(name, data):
    alg = jordan_algebra(JORDAN_CASES[name])
    x, y = (data.draw(wide_vectors(alg.dim)) for _ in range(2))
    c = data.draw(wide_coordinates)
    X, Y = alg.element(x), alg.element(y)
    x2 = reference_product(alg, x, x)
    same_scalars(jd.jordan_product(X, X).coords, x2)
    same_scalars((X + Y).coords, [a + b for a, b in zip(x, y)])
    same_scalars((X - Y).coords, [a - b for a, b in zip(x, y)])
    same_scalars(X.scale(c).coords, [c * a for a in x])
    t1, t2 = x[0] + x[1] + x[2], x2[0] + x2[1] + x2[2]
    t3 = scalar_trace_form(alg, x, x2)
    det = t3 / sc(3) - t1 * t2 / sc(2) + t1 * t1 * t1 / sc(6)
    same_scalars(
        [jd.trace(X), jd.trace_pairing(X, Y), jd.det_cubic(X)],
        [t1, scalar_trace_form(alg, x, y), det],
    )
    # the adjugate against x^2 - T(x) x + S(x) 1 in Scalar arithmetic
    sigma2 = (t1 * t1 - t2) / sc(2)
    sharp = [p - t1 * a + (sigma2 if k < 3 else ZERO) for k, (p, a) in enumerate(zip(x2, x))]
    adj = jd.adjugate(X)
    same_scalars(adj.coords, sharp)
    built = alg.element(sharp)
    assert built == adj and hash(built) == hash(adj)


# -- the row loop: Gaussian operands, against the Scalar path ----------------------


def rational_vectors(d):
    return st.lists(st.one_of(st.just(ZERO), rationals, huge), min_size=d, max_size=d)


def gaussian_vectors(d):
    """Vectors with a Gaussian coordinate: i e_j (one nonzero coordinate),
    or dense, rational parts and imaginary parts past 2^63 included.  The
    dense ones set a nonzero imaginary part on coordinate j, so that no
    draw cancels it."""
    units = st.integers(0, d - 1).map(lambda j: [I if k == j else ZERO for k in range(d)])
    parts = st.one_of(rationals, huge).filter(lambda s: not s.is_zero())
    dense = st.tuples(st.lists(wide_coordinates, min_size=d, max_size=d), st.integers(0, d - 1), parts)
    return st.one_of(units, dense.map(
        lambda t: [Scalar(c.re, t[2].re) if k == t[1] else c for k, c in enumerate(t[0])]
    ))


@pytest.mark.parametrize("name", sorted(ELEMENT_ALGEBRAS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_row_loop_matches_scalar_path(name, data):
    # rational times Gaussian in both orders, Gaussian times Gaussian, and
    # rational times rational; the sextonions and gaussian-C have Gaussian
    # constants, so every case also runs through their re/im parts
    alg = element_algebra(name)
    r = data.draw(rational_vectors(alg.dim))
    g, h = (data.draw(gaussian_vectors(alg.dim)) for _ in range(2))
    R, G, H = (alg.element(v) for v in (r, g, h))
    assert R.vec[1] is None and G.vec[1] is not None and H.vec[1] is not None
    assert alg.tensor.rational == (name in ("O", "split-O", "sedenion"))
    for (x, X), (y, Y) in (((r, R), (g, G)), ((g, G), (r, R)), ((g, G), (h, H)), ((r, R), (r, R))):
        want = reference_product(alg, x, y)
        same_scalars((X * Y).coords, want)
        same_scalars(alg.mul_coords(x, y), want)


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_gaussian_cross_and_adjugate_match_scalar_path(data):
    # H3(O) over Q(i): the cross product and the sharp map read the row loop
    alg = jordan_algebra(8)
    x, y = (data.draw(gaussian_vectors(alg.dim)) for _ in range(2))
    X, Y = alg.element(x), alg.element(y)

    def cross(x, y):
        xy = reference_product(alg, x, y)
        tx, ty, txy = (v[0] + v[1] + v[2] for v in (x, y, xy))
        unit = tx * ty - txy
        return [sc(2) * p - tx * b - ty * a + (unit if k < 3 else ZERO)
                for k, (p, a, b) in enumerate(zip(xy, x, y))]

    same_scalars(jd.JordanElement._of(alg, jd._cross(alg, X.vec, Y.vec)).coords, cross(x, y))
    same_scalars(jd.adjugate(X).coords, [c / sc(2) for c in cross(x, x)])
