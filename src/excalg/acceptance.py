"""The acceptance suite: one callable per criterion, shared by the test
module and by `excalg verify all`.

Each criterion returns a CriterionResult; runtimes are kept to a couple of
minutes total.  Every entry of the magic square, the 248-dimensional one
included, is built with the Jacobi identity verified on every basis triple.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from . import clifford as cl
from . import composition as co
from . import forms as fm
from . import jordan as jd
from . import liealg as ll
from . import magicsquare as ms
from . import rootdata as rd
from . import threeform as tf
from .linalg import (
    Matrix,
    Subspace,
    gram_matrix,
    kernel,
    random_invertible,
    rank as mat_rank,
    unit_vec,
    vec_add,
    zero_vec,
)
from .scalar import ONE, ZERO, Scalar, sc
from .tensor import lattice


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number:2d}: {self.name} ({self.details})"


def _result(number, name, ok, details) -> CriterionResult:
    return CriterionResult(number, name, bool(ok), details)


# -- 1 ---------------------------------------------------------------------


def derivation_dimensions(seed: int = 0) -> CriterionResult:
    dims = [ms.derivation_dim(k) for k in ("r", "c", "h", "o")]
    dims.append(ms.jordan_derivation_dim(8))
    ok = dims == [0, 0, 3, 14, 52]
    return _result(1, "derivation dimensions", ok, f"dims={dims}")


# -- 2 ---------------------------------------------------------------------


def trivector_classification(seed: int = 0) -> CriterionResult:
    labels = (tf.W1, tf.W2, tf.W3, tf.W4, tf.W5)
    qranks = [tf.q_of(tf.representative(l)).rank for l in labels]
    if qranks != [1, 1, 2, 4, 7]:
        return _result(2, "trivector classification", False, f"q-ranks {qranks}")
    seen = set()
    failures = 0
    rng = random.Random(seed)
    for label in labels:
        rep = tf.representative(label)
        seen.add(tf.classify(rep).label)
        for _ in range(100):
            g = random_invertible(7, seed=rng.randrange(1 << 30), height=2, field="gaussian")
            if tf.classify(fm.pullback(g, rep)).label != label:
                failures += 1
    ok = len(seen) == 5 and failures == 0
    return _result(
        2,
        "trivector classification",
        ok,
        f"q-ranks {qranks}, labels {len(seen)}, pullback failures {failures}/500",
    )


# -- 3 ---------------------------------------------------------------------


def six_variable_quartic(seed: int = 0) -> CriterionResult:
    w1 = tf.representative(tf.RANK6_GENERIC)
    w2 = tf.representative(tf.RANK6_TANGENT)
    ok = tf.lambda_quartic(w1) == ONE and tf.lambda_quartic(w2).is_zero()
    rng = random.Random(seed)
    homogeneous = 0
    for _ in range(20):
        terms = {}
        import itertools

        for idx in itertools.combinations(range(1, 7), 3):
            c = rng.randint(-2, 2)
            if c:
                terms[idx] = sc(c)
        w = fm.KForm(3, 6, terms)
        t = sc(rng.randint(2, 7))
        if tf.lambda_quartic(w.scale(t)) == t ** 4 * tf.lambda_quartic(w):
            homogeneous += 1
    ok = ok and homogeneous == 20
    return _result(3, "six-variable quartic", ok, f"values exact, homogeneity 20/{homogeneous}")


# -- 4 ---------------------------------------------------------------------


def degree_seven_invariant(seed: int = 0) -> CriterionResult:
    vals = [tf.degree7_invariant(tf.representative(l)) for l in (tf.W1, tf.W2, tf.W3, tf.W4)]
    top = tf.degree7_invariant(tf.representative(tf.W5))
    if top.is_zero() or any(not v.is_zero() for v in vals):
        return _result(4, "degree-seven invariant", False, "vanishing pattern broken")
    rng = random.Random(seed)
    import itertools

    constant: Optional[Scalar] = None
    agree = 0
    total = 0
    while total < 20:
        terms = {}
        for idx in itertools.combinations(range(1, 8), 3):
            c = rng.randint(-1, 1)
            if c:
                terms[idx] = sc(c)
        w = fm.KForm(3, 7, terms)
        i7 = tf.degree7_invariant(w)
        det = tf.q_of(w).gram.det()
        total += 1
        if i7.is_zero():
            if det.is_zero():
                agree += 1
            continue
        ratio = det / (i7 ** 3)
        if constant is None:
            constant = ratio
            agree += 1
        elif ratio == constant:
            agree += 1
    ok = agree == total and constant is not None
    return _result(
        4, "degree-seven invariant", ok, f"I7(top) = {top}, cube law {agree}/{total}"
    )


# -- 5 ---------------------------------------------------------------------


def octonion_identities(seed: int = 0) -> CriterionResult:
    report = []
    ok = True
    for name in ("o", "split-o"):
        alg = co.canonical_octonions() if name == "o" else co.named_algebra(name)
        for which in (co.ALTERNATIVE, co.MOUFANG, co.NORM_MULT):
            rep = co.check_identities(alg, which)
            ok = ok and rep.passed
            report.append(f"{name}:{which}={'ok' if rep.passed else 'FAIL'}")
    sed = co.named_algebra("sedenion")
    sed_rep = co.check_identities(sed, co.NORM_MULT)
    ok = ok and not sed_rep.passed
    report.append(f"sedenion counterexample={'found' if not sed_rep.passed else 'MISSING'}")
    return _result(5, "octonion identities", ok, "; ".join(report))


# -- 6 ---------------------------------------------------------------------


def associative_form_checks(seed: int = 0) -> CriterionResult:
    alg = co.canonical_octonions()
    w = co.associative_form(alg)
    display = fm.parse_form(
        "e[1,2,3]+e[3,6,5]+e[5,4,1]+e[2,6,4]+e[1,7,6]+e[5,7,2]+e[3,7,4]", 7
    )
    termwise = w == display
    q = tf.q_of(w)
    six = sc(6)
    gram_ok = all(
        q.gram[i, j] == (six if i == j else ZERO) for i in range(7) for j in range(7)
    )
    # q(v) - 6 N(v) is quadratic in v, so the degree-2 lattice proves it
    points = list(lattice(7, 2))
    wedge_ok = True
    for v in points:
        c = fm.contract(v, w)
        qv = fm.top_coefficient(fm.wedge(fm.wedge(c, c), w))
        if qv != six * sum(x * x for x in v):
            wedge_ok = False
            break
    ok = termwise and gram_ok and wedge_ok
    return _result(
        6,
        "associative form",
        ok,
        f"termwise={termwise}, gram=6I:{gram_ok}, {len(points)} lattice vectors:{wedge_ok}",
    )


# -- 7 ---------------------------------------------------------------------


def representation_decompositions(seed: int = 0) -> CriterionResult:
    alg = co.canonical_octonions()
    w = co.associative_form(alg)
    # the contraction embedding of the vector representation
    import itertools

    pairs = list(itertools.combinations(range(1, 8), 2))
    pidx = {p: i for i, p in enumerate(pairs)}
    contr_rows = []
    for j in range(7):
        f = fm.contract_basis(j + 1, w)
        row = zero_vec(21)
        for idx, c in f.terms.items():
            row[pidx[idx]] = c
        contr_rows.append(row)
    v_image = Subspace(21, contr_rows)
    stab = ll.stabilizer_in_gl(7, w)
    # two-forms of the stabilizer elements (skew for the invariant metric)
    stab_rows = []
    for m in stab.matrices:
        row = zero_vec(21)
        for (i, j) in pairs:
            row[pidx[(i, j)]] = m[i - 1, j - 1]
        stab_rows.append(row)
        if (m + m.transpose()).is_zero() is False:
            return _result(7, "representation decompositions", False, "stabilizer not skew")
    g2_image = Subspace(21, stab_rows)
    inj = v_image.dim == 7
    trivial = v_image.intersect(g2_image).dim == 0
    total = v_image.add(g2_image).dim == 21
    act = tf.action_matrix(7, w)
    surj = mat_rank(act) == 35
    ker = kernel(act).dim == 14
    ok = inj and trivial and total and surj and ker
    return _result(
        7,
        "representation decompositions",
        ok,
        f"7+14=21:{inj and trivial and total}, action rank 35 kernel 14:{surj and ker}",
    )


# -- 8 ---------------------------------------------------------------------


def triality_dimensions(seed: int = 0) -> CriterionResult:
    dims = [ms.triality_algebra(k).dim for k in ("r", "c", "h", "o")]
    if dims != [0, 2, 9, 28]:
        return _result(8, "triality", False, f"dims {dims}")
    inj = ms.triality_algebra("o").projection_rank(1) == 28
    tri_h = ms.triality_algebra("h")
    parts = ms.tri_ideal_split("h")
    split_ok = [p.dim for p in parts] == [3, 3, 3]
    commute = True
    ideal = True
    for a in range(3):
        for b in range(3):
            for u in parts[a].basis:
                for v in parts[b].basis:
                    br = tri_h.algebra.bracket_coords(list(u), list(v))
                    if a != b and any(not x.is_zero() for x in br):
                        commute = False
                    if a == b and not parts[a].contains(br):
                        ideal = False
    span_ok = parts[0].add(parts[1]).add(parts[2]).dim == 9
    ok = inj and split_ok and commute and ideal and span_ok
    return _result(
        8,
        "triality",
        ok,
        f"dims {dims}, pi1 injective:{inj}, three commuting 3-dim ideals:{commute and split_ok and span_ok}",
    )


# -- 9 ---------------------------------------------------------------------


def magic_square_dimensions(seed: int = 0) -> CriterionResult:
    expected = ms.SQUARE_DIMS
    dims = []
    killing_ok = True
    for i, ka in enumerate(ms.ALGEBRA_ORDER):
        row = []
        for j, kb in enumerate(ms.ALGEBRA_ORDER):
            entry = ms.built_square_entry(ka, kb)  # verified on construction
            row.append(entry.dim)
            killing_ok = killing_ok and ll.killing_nondegenerate(entry.algebra)
        dims.append(tuple(row))
    dims_ok = tuple(dims) == expected
    tits = ms.tits_dimension_table()
    tits_ok = all(
        tits[i][j][1] == expected[i][j] for i in range(4) for j in range(4)
    )
    ok = dims_ok and tits_ok and killing_ok
    return _result(
        9,
        "magic square",
        ok,
        f"dims:{dims_ok}, tits agree:{tits_ok}, killing x16:{killing_ok}",
    )


# -- 10 --------------------------------------------------------------------


def g2_root_data(seed: int = 0) -> CriterionResult:
    rep = ms.g2_models_crosscheck()
    return _result(
        10,
        "g2 root data",
        rep.passed,
        f"dims {rep.dims}, roots {rep.root_count}, cartan:{rep.cartan_ok}, "
        f"module weights:{rep.module_weights_ok}, invariant form:{rep.form_annihilated}",
    )


# -- 11 --------------------------------------------------------------------


def jordan_suite(seed: int = 0) -> CriterionResult:
    rng = random.Random(seed)
    ch_ok = True
    adj_ok = True
    points = 0
    for a in (0, 1, 2, 4, 8):
        alg = jd.jordan_algebra(a)
        # Cayley-Hamilton is cubic, so the degree-3 lattice proves it;
        # adj o adj = det x is quartic, and stays sampled
        lat = [jd.JordanElement._of(alg, (p, None, 1)) for p in lattice(alg.dim, 3)]
        points += len(lat)
        ch_ok = ch_ok and all(jd.cayley_hamilton_check(x).passed for x in lat)
        for _ in range(100):
            x = alg.random_element(rng, height=2)
            if jd.adjugate(jd.adjugate(x)) != x.scale(jd.det_cubic(x)):
                adj_ok = False
                break
    alg0 = jd.jordan_algebra(0)
    m = alg0.from_parts([sc("2"), sc("3"), sc("5")])
    cremona = jd.det_cubic(m) == sc(30) and list(jd.adjugate(m).coords) == [
        sc(15),
        sc(10),
        sc(6),
    ]
    ok = ch_ok and adj_ok and cremona
    return _result(
        11,
        "jordan suite",
        ok,
        f"cayley-hamilton on {points} lattice points:{ch_ok}, adj o adj = det x500:{adj_ok}, "
        f"cremona:{cremona}",
    )


# -- 12 --------------------------------------------------------------------


def legendrian_symplectic(seed: int = 0) -> CriterionResult:
    ranks_ok = True
    leg_ok = True
    details = []
    for a in (0, 1, 2, 4, 8):
        r = jd.symplectic_gram_rank(a)
        ranks_ok = ranks_ok and r == 6 * a + 8
        rep = jd.legendrian_check(a, samples=20, seed=seed)
        leg_ok = leg_ok and rep.passed and rep.tangent_dim == 3 * a + 4
        details.append(f"a={a}:rank {r},tangent {rep.tangent_dim}")
    return _result(12, "legendrian and symplectic", ranks_ok and leg_ok, "; ".join(details))


# -- 13 --------------------------------------------------------------------


def dimension_formulas(seed: int = 0) -> CriterionResult:
    vals = [rd.magic_dimension_formulas(a).v4 for a in (1, 2, 4, 8)]
    formula_ok = vals == [52, 78, 133, 248]
    built = [ms.built_square_entry(k, "o").dim for k in ms.ALGEBRA_ORDER]
    match = built == vals
    return _result(
        13, "dimension formulas", formula_ok and match, f"formula {vals}, built {built}"
    )


# -- 14 --------------------------------------------------------------------


def grading_atlas(seed: int = 0) -> CriterionResult:
    checks = []
    f4 = rd.build_root_system("F", 4)
    checks.append(rd.z_grading(f4, 4).dims_list() == [(-2, 7), (-1, 8), (0, 22), (1, 8), (2, 7)])
    e6 = rd.build_root_system("E", 6)
    checks.append(rd.z_grading(e6, 2).dims[1] == 20)
    checks.append(rd.z_grading(e6, 1).dims_list() == [(-1, 16), (0, 46), (1, 16)])
    e7 = rd.build_root_system("E", 7)
    checks.append(rd.z_grading(e7, 2).dims[1] == 35)
    e8 = rd.build_root_system("E", 8)
    checks.append(rd.z_grading(e8, 2).dims[1] == 56)
    g2 = rd.build_root_system("G", 2)
    checks.append(rd.zm_grading(g2, 2).dims_list() == [(0, 6), (1, 8)])
    d4 = rd.build_root_system("D", 4)
    checks.append(rd.zm_grading(d4, 2).dims_list() == [(0, 12), (1, 16)])
    checks.append(rd.zm_grading(e8, 1).dims_list() == [(0, 120), (1, 128)])
    ok = all(checks)
    return _result(14, "gradings", ok, f"{sum(checks)}/8 grading profiles exact")


# -- 15 --------------------------------------------------------------------


def octonion_geometry(seed: int = 0) -> CriterionResult:
    alg = co.canonical_octonions()
    w = co.associative_form(alg)
    rng = random.Random(seed)
    kx_ok = True
    for _ in range(50):
        x = co.random_isotropic_imaginary(alg, rng)
        kx = co.left_mult_kernel(alg, x, restrict_to_imaginary=True)
        x7 = list(x.coords[1:])
        gram = gram_matrix(
            Matrix([[alg.gram[i + 1, j + 1] for j in range(7)] for i in range(7)]),
            [list(v) for v in kx.basis],
        )
        contraction_kernel = kernel(fm.two_form_matrix(fm.contract(x7, w)))
        if not (
            kx.dim == 3
            and mat_rank(gram) == 0
            and kx == contraction_kernel
            and kx.contains(x7)
        ):
            kx_ok = False
            break
    nres = co.sextonions(alg, co.standard_null_plane(alg))
    sext_ok = nres.q_rank == 4 and nres.model_iso is not None
    labels = []
    a_quat = Subspace(8, [unit_vec(8, i) for i in range(4)])
    labels.append(co.classify_four_subalgebra(alg, a_quat).label)
    n1 = zero_vec(8)
    n1[4], n1[5] = ONE, sc("i")
    n2 = zero_vec(8)
    n2[6], n2[7] = ONE, -sc("i")
    a_null = Subspace(8, [unit_vec(8, 0), unit_vec(8, 1), n1, n2])
    labels.append(co.classify_four_subalgebra(alg, a_null).label)
    x = alg.element(n1)
    kx = co.left_mult_kernel(alg, x, restrict_to_imaginary=True)
    a_line = Subspace(8, [unit_vec(8, 0)] + [[ZERO] + list(v) for v in kx.basis])
    labels.append(co.classify_four_subalgebra(alg, a_line).label)
    class_ok = labels == [co.R4_QUATERNION, co.R2_NULLPLANE, co.R1_LINE]
    ok = kx_ok and sext_ok and class_ok
    return _result(
        15,
        "octonion geometry",
        ok,
        f"50 isotropic kernels:{kx_ok}, sextonions:{sext_ok}, subalgebra classes {labels}",
    )


# -- 16 --------------------------------------------------------------------


def spinor_checks(seed: int = 0) -> CriterionResult:
    count = cl.clifford_relation_holds()
    chi = cl.Spinor.vacuum() + cl.Spinor.top()
    w = cl.omega_chi(chi)
    label = tf.classify(w).label
    stab = tf.stabilizer_dim(w)
    kv = cl.pure_spinor_kernel(cl.Spinor.vacuum())
    kt = cl.pure_spinor_kernel(cl.Spinor.top())
    g = cl.bilinear_gram()
    isotropic = (
        mat_rank(gram_matrix(g, [list(v) for v in kv.basis])) == 0
        and mat_rank(gram_matrix(g, [list(v) for v in kt.basis])) == 0
    )
    vac_ok = kv.dim == 3 and kt.dim == 3 and kv.intersect(kt).dim == 0 and isotropic
    ok = count == 392 and label == tf.W5 and stab == 14 and vac_ok
    return _result(
        16,
        "spinors",
        ok,
        f"{count} clifford identities, omega_chi={label}, stab={stab}, vacua kernels:{vac_ok}",
    )


CRITERIA: List[Callable[..., CriterionResult]] = [
    derivation_dimensions,
    trivector_classification,
    six_variable_quartic,
    degree_seven_invariant,
    octonion_identities,
    associative_form_checks,
    representation_decompositions,
    triality_dimensions,
    magic_square_dimensions,
    g2_root_data,
    jordan_suite,
    legendrian_symplectic,
    dimension_formulas,
    grading_atlas,
    octonion_geometry,
    spinor_checks,
]


def run_all(seed: int = 0, echo=None) -> List[CriterionResult]:
    results = []
    for func in CRITERIA:
        res = func(seed=seed)
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results
