"""Seeded inputs and their known answers for the three workloads.

Everything here is plain Python: the benchmark generates every input and
the answer it must produce, and the program under test receives only the
inputs.  Answers are known by construction (an orbit label survives a
change of basis, a Hermitian matrix with one off-diagonal entry has a
closed-form determinant, so(n) satisfies the Jacobi identity, ...), not by
running the program first.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

# -- square -----------------------------------------------------------------

# (row, column, name, dimension) of the exceptional column of the square.
# The column is the whole input: it is built with vinberg_build's default
# seed, as the CLI and the acceptance suite build it.  Other calibration
# seeds need other numbers of calibration rounds, so seeding them from the
# run seed would make the amount of work differ between runs.
SQUARE_COLUMN = (
    ("r", "o", "f4", 52),
    ("c", "o", "e6", 78),
    ("h", "o", "e7", 133),
    ("o", "o", "e8", 248),
)


# -- identities ---------------------------------------------------------------

# Requests per pass, by kind, in the proportions of the acceptance suite
# (src/excalg/acceptance.py): criterion 5 checks 1000 random samples of
# each identity on O and on split-O, criterion 2 makes 100 pullbacks per
# W representative, and criterion 11 makes 100 Cayley-Hamilton and 100
# adj o adj checks per a.  Scaled by 1/100, that is 10, 1 and 1 per pass.
# The sedenion weight is synthetic: criterion 5 finds the counterexample
# on its first random sample, which would round to none per pass.
IDENTITY_MIX = (
    ("alternative", "o", 10),
    ("alternative", "split-o", 10),
    ("moufang", "o", 10),
    ("moufang", "split-o", 10),
    ("norm", "o", 10),
    ("norm", "split-o", 10),
    ("sedenion", "sedenion", 1),
    ("cayley_hamilton", 1, 1),
    ("cayley_hamilton", 2, 1),
    ("cayley_hamilton", 4, 1),
    ("cayley_hamilton", 8, 1),
    ("adj_adj", 1, 1),
    ("adj_adj", 2, 1),
    ("adj_adj", 4, 1),
    ("adj_adj", 8, 1),
    ("pullback", "W1", 1),
    ("pullback", "W2", 1),
    ("pullback", "W3", 1),
    ("pullback", "W4", 1),
    ("pullback", "W5", 1),
)
ALG_DIMS = {"o": 8, "split-o": 8, "sedenion": 16}
ARITY = {"alternative": 2, "moufang": 3, "norm": 2, "sedenion": 2}


# Inputs have height 2 and no zero coordinates: zeros are skipped by the
# product loops, so a varying number of them would make the cost of a
# request depend on the seed far more than the arithmetic does.
def _rational(rng):
    return f"{rng.choice((-2, -1, 1, 2))}/{rng.choice((1, 2))}"


def _gaussian(rng):
    return f"({_rational(rng)})+({_rational(rng)})i"


def identity_requests(seed: int, pass_no: int) -> list:
    """One pass of identity checks, shuffled; inputs are scalar strings."""
    rng = random.Random(f"identities:{seed}:{pass_no}")
    out = []
    for kind, param, count in IDENTITY_MIX:
        for _ in range(count):
            req = {"kind": kind, "param": param}
            if kind in ARITY:
                d = ALG_DIMS[param]
                req["elements"] = [
                    [_gaussian(rng) for _ in range(d)] for _ in range(ARITY[kind])
                ]
            elif kind in ("cayley_hamilton", "adj_adj"):
                req["coords"] = [_rational(rng) for _ in range(3 + 3 * param)]
            else:
                req["matrix_seed"] = rng.randrange(1 << 30)
            out.append(req)
    rng.shuffle(out)
    for i, req in enumerate(out):
        req["id"] = f"p{pass_no}r{i}"
    return out


# -- cli --------------------------------------------------------------------

# so(n) for the verify requests: [E_ij, E_kl] in the basis E_ij, i < j.
def so_constants(n: int) -> dict:
    basis = list(combinations(range(n), 2))
    index = {b: k for k, b in enumerate(basis)}

    def elem(i, j):
        if i == j:
            return None
        return (index[(i, j)], 1) if i < j else (index[(j, i)], -1)

    entries = []
    for p, (i, j) in enumerate(basis):
        for q, (k, l) in enumerate(basis):
            coeffs = [0] * len(basis)
            # [E_ij, E_kl] = d_jk E_il - d_ik E_jl - d_jl E_ik + d_il E_jk
            for delta, a, b, sign in (
                (j == k, i, l, 1),
                (i == k, j, l, -1),
                (j == l, i, k, -1),
                (i == l, j, k, 1),
            ):
                e = elem(a, b) if delta else None
                if e is not None:
                    coeffs[e[0]] += sign * e[1]
            if any(coeffs):
                entries.append([p, q, [f"{c}/1" for c in coeffs]])
    return {"dim": len(basis), "skew": True, "entries": entries}


# Representatives of trivector orbits, with the support rank each has.
FORM_REPS = {
    7: {
        "W1": ("e[1,2,5]+e[1,3,6]+e[1,4,7]", 7),
        "W2": ("e[1,2,5]+e[1,3,6]+e[1,4,7]+e[2,3,4]", 7),
        "W3": ("e[1,2,5]+e[2,3,6]+e[3,4,7]", 7),
        "W4": ("e[1,2,5]+e[1,4,7]+e[3,4,6]+e[3,2,7]", 7),
        "W5": ("e[1,2,5]+e[1,3,6]+e[1,4,7]+e[2,3,4]+e[5,6,7]", 7),
    },
    6: {
        "RANK6_GENERIC": ("e[1,2,3]+e[4,5,6]", 6),
        "RANK6_TANGENT": ("e[1,2,4]+e[1,3,5]+e[2,3,6]", 6),
        "RANK5": ("e[1,2,3]+e[1,4,5]", 5),
    },
}


def _parse_terms(text):
    terms = {}
    for part in text.split("+"):
        idx = tuple(int(t) for t in part[2:-1].split(","))
        terms.update(_sorted_term(idx, Fraction(1), terms))
    return terms


def _sorted_term(idx, coeff, terms):
    """{sorted idx: accumulated coeff} for one term, sign from the sort."""
    if len(set(idx)) < len(idx):
        return {}
    sign = 1
    arr = list(idx)
    for a in range(len(arr)):
        for b in range(len(arr) - 1 - a):
            if arr[b] > arr[b + 1]:
                arr[b], arr[b + 1] = arr[b + 1], arr[b]
                sign = -sign
    key = tuple(arr)
    return {key: terms.get(key, Fraction(0)) + sign * coeff}


def _substitute(terms, j, i, c):
    """Pull back by the elementary change of basis e^j -> e^j + c e^i."""
    out = dict(terms)
    for idx, coeff in terms.items():
        if j in idx:
            new = tuple(i if t == j else t for t in idx)
            out.update(_sorted_term(new, coeff * c, out))
    return {k: v for k, v in out.items() if v}


def _permute_scale(terms, perm, scales):
    out = {}
    for idx, coeff in terms.items():
        scale = Fraction(1)
        for t in idx:
            scale *= scales[t]
        out.update(_sorted_term(tuple(perm[t] for t in idx), coeff * scale, out))
    return out


def _form_text(terms):
    parts = []
    for idx in sorted(terms):
        c = terms[idx]
        sign = "-" if c < 0 else "+"
        c = abs(c)
        body = "e[" + ",".join(map(str, idx)) + "]"
        parts.append(sign + (body if c == 1 else f"{c.numerator}/{c.denominator}*{body}"))
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def generated_form(rng, n, label):
    """The representative of label moved by a random change of basis of
    Q^n: a signed permutation with scalings, then three shears."""
    text, rank = FORM_REPS[n][label]
    terms = _parse_terms(text)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    perm = dict(zip(range(1, n + 1), perm))
    scales = {t: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) for t in perm}
    terms = _permute_scale(terms, perm, scales)
    for _ in range(3):
        j, i = rng.sample(range(1, n + 1), 2)
        terms = _substitute(terms, j, i, Fraction(rng.choice((-2, -1, 1, 2))))
    return _form_text(terms), rank


# Complementary pure spinors: their sum is a generic spinor for any nonzero
# weights, so its trivector has the open orbit W5.
SPINOR_PAIRS = ((0, 7), (1, 6), (2, 5), (3, 4))


def _jordan_element(rng, a):
    """diag(d0, d1, d2) plus one off-diagonal entry x in a random slot.

    With the other two slots zero, Det = d0 d1 d2 - d_k n(x) and the
    adjugate is diag of the 2x2 minors with -d_k x in the slot, where k is
    the diagonal index outside the slot and n(x) is the sum of squares.
    """
    diag = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
    x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(a)]
    slot = rng.randrange(3)
    k = (2, 1, 0)[slot]  # slots are (0,1), (0,2), (1,2)
    off = [[Fraction(0)] * a for _ in range(3)]
    off[slot] = x
    norm = sum(t * t for t in x)
    det = diag[0] * diag[1] * diag[2] - diag[k] * norm
    minors = [diag[1] * diag[2], diag[0] * diag[2], diag[0] * diag[1]]
    minors[k] -= norm
    adj_off = [[Fraction(0)] * a for _ in range(3)]
    adj_off[slot] = [-diag[k] * t for t in x]
    q = lambda v: f"{v.numerator}/{v.denominator}"  # noqa: E731
    element = {"a": a, "diag": [q(v) for v in diag], "off": [[q(v) for v in row] for row in off]}
    adj = {"a": a, "diag": [q(v) for v in minors], "off": [[q(v) for v in row] for row in adj_off]}
    return element, q(det), adj


# Requests per pass, by kind.  The weights are synthetic: no record of the
# requests users send exists.  Fixed counts keep the mix the same on every
# pass and seed; the seed picks parameters and order.  Most requests cost
# little more than interpreter start and import, so the median sits in
# that cluster.  The twelve cold H3(H) adjugates a run sends form the next
# cluster up; their count was chosen to hold the 90th percentile away from
# that cluster's edges.  Above it sit the heavy requests: per pair of
# passes one cold tri(H) build, the sedenion derivation algebra (the
# largest request, which sets the peak memory) and the derivation algebra
# of O or split-O.
CLI_MIX = (
    ("classify7", 6),
    ("classify6", 3),
    ("spinor", 3),
    ("jordan_small", 3),
    ("jordan4_adj", 6),
    ("grading", 3),
    ("dims", 3),
    ("mul_table", 3),
    ("derive_small", 2),
    ("derive_large", 1),
    ("build_small", 2),
    ("build_large", 1),
    ("verify_ok", 3),
    ("verify_sampled", 1),
    ("verify_corrupt", 2),
    ("verify_bad_index", 1),
    ("malformed", 7),
)

TRI_DIMS = {"r": 0, "c": 2, "h": 9}
SQUARE_SMALL = {
    ("r", "r"): ("sl2", 3),
    ("r", "c"): ("sl3", 8),
    ("c", "r"): ("sl3", 8),
    ("c", "c"): ("sl3+sl3", 16),
    ("r", "h"): ("sp6", 21),
    ("h", "r"): ("sp6", 21),
    ("c", "h"): ("sl6", 35),
    ("h", "c"): ("sl6", 35),
    ("h", "h"): ("so12", 66),
}
ALGEBRA_DIMS = {"R": 1, "C": 2, "H": 4, "O": 8, "split-C": 2, "split-H": 4, "split-O": 8}
DERIVATION_DIMS = {
    "R": 0, "C": 0, "H": 3, "split-C": 0, "split-H": 3, "O": 14, "split-O": 14, "sedenion": 14,
}
LIE_DIMS = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}
SERIES_V4 = {1: 52, 2: 78, 4: 133, 8: 248}


def _malformed(rng, files):
    """Requests the CLI must refuse with exit code 2."""
    choice = rng.randrange(6)
    if choice == 0:
        return ["frobnicate"]
    if choice == 1:
        return ["classify-form", "--n", "7", "--form", f"e[1,2,{rng.randint(3, 7)}]+e[1,x]"]
    if choice == 2:
        return ["mul-table", "--algebra", rng.choice(("Q", "octonion", "P"))]
    if choice == 3:
        return ["derive", "--algebra", rng.choice(("bogus", "quaternion"))]
    if choice == 4:
        return ["verify", files["missing"]]
    a = rng.choice((1, 2, 4))
    return ["jordan", "--a", str(2 * a if a < 4 else 1), "det", "--input",
            json.dumps({"a": a, "diag": ["1/1"] * 3, "off": [["0/1"] * a] * 3})]


def cli_requests(seed: int, pass_no: int, files: dict) -> list:
    """One pass of CLI requests, shuffled.  Each has the argv, the exit
    code the contract requires, and the fields the output must carry."""
    rng = random.Random(f"cli:{seed}:{pass_no}")
    out = []
    for kind, count in CLI_MIX:
        for _ in range(count):
            out.append(_cli_request(rng, kind, files, pass_no))
    rng.shuffle(out)
    for i, req in enumerate(out):
        req["id"] = f"p{pass_no}r{i}"
    return out


def _cli_request(rng, kind, files, pass_no):
    expect = {}
    code = 0
    if kind in ("classify7", "classify6"):
        n = 7 if kind == "classify7" else 6
        label = rng.choice(sorted(FORM_REPS[n]))
        text, rank = generated_form(rng, n, label)
        # "--form=" (and "--chi=" below) keep a leading minus sign from
        # reading as an option
        argv = ["classify-form", "--n", str(n), f"--form={text}"]
        expect = {"label": label, "n": n, "support_rank": rank}
    elif kind == "spinor":
        lo, hi = rng.choice(SPINOR_PAIRS)
        coords = ["0"] * 8
        coords[lo] = str(rng.choice((-3, -2, -1, 1, 2, 3)))
        coords[hi] = f"{rng.choice((-2, -1, 1, 2))}/{rng.randint(1, 3)}"
        argv = ["spinor", "--omega-chi", "--chi=" + ",".join(coords)]
        expect = {"label.label": "W5", "label.support_rank": 7}
    elif kind in ("jordan_small", "jordan4_adj"):
        a = rng.choice((1, 2)) if kind == "jordan_small" else 4
        element, det, adj = _jordan_element(rng, a)
        op = rng.choice(("det", "adj")) if kind == "jordan_small" else "adj"
        argv = ["jordan", "--a", str(a), op, "--input", json.dumps(element)]
        expect = {"det": det} if op == "det" else {"adj": adj}
    elif kind == "grading":
        lie = rng.choice(sorted(LIE_DIMS))
        rank = int(lie[1:])
        argv = ["grading", "--type", lie, "--node", str(rng.randint(1, rank))]
        if rng.random() < 0.5:
            argv.append("--affine")
        expect = {"@grading_total": LIE_DIMS[lie]}
    elif kind == "dims":
        a = rng.choice(sorted(SERIES_V4))
        argv = ["dims", "--a", str(a)]
        expect = {
            "dim_X1": 2 * a - 1, "dim_V1": 3 * a + 2, "dim_X2": 2 * a, "dim_V2": 3 * a + 3,
            "dim_X3": 3 * a + 3, "dim_V3": 6 * a + 8, "dim_X4": 6 * a + 9, "dim_V4": SERIES_V4[a],
        }
    elif kind == "mul_table":
        name = rng.choice(sorted(ALGEBRA_DIMS))
        d = ALGEBRA_DIMS[name]
        argv = ["mul-table", "--algebra", name]
        expect = {"dim": d, "algebra": name, "@unit_row": d}
    elif kind in ("derive_small", "derive_large"):
        pool = ("R", "C", "H", "split-C", "split-H")
        if kind == "derive_large":
            pool = ("sedenion",) if pass_no % 2 == 0 else ("O", "split-O")
        name = rng.choice(pool)
        argv = ["derive", "--algebra", name]
        expect = {"derivation_dim": DERIVATION_DIMS[name]}
    elif kind in ("build_small", "build_large"):
        # build_large is a cold tri(H) build on even passes only
        small = kind == "build_small" or pass_no % 2 == 1
        pair = rng.choice(sorted(p for p in SQUARE_SMALL if ("h" in p) != small))
        name, dim = SQUARE_SMALL[pair]
        # the default calibration seed, as in square: other seeds need other
        # numbers of calibration rounds
        argv = ["magic-square", "--build", *pair]
        expect = {"name": name, "dim": dim, "pair": list(pair), "killing_nondegenerate": True,
                  "tri_dims": [TRI_DIMS[pair[0]], TRI_DIMS[pair[1]]]}
    elif kind in ("verify_ok", "verify_sampled"):
        n = rng.choice(sorted(files["so"]))
        d = n * (n - 1) // 2
        argv = ["verify", files["so"][n], "--mode", "full"]
        expect = {"dim": d, "passed": True, "checked": d ** 3, "mode": "full"}
        if kind == "verify_sampled":
            samples = rng.randrange(500, 5000)
            argv = ["verify", files["so"][n], "--mode", "sampled", "--samples", str(samples)]
            expect = {"dim": d, "passed": True, "checked": samples, "mode": "sampled"}
    elif kind == "verify_corrupt":
        n = rng.choice(sorted(files["so_corrupt"]))
        argv = ["verify", files["so_corrupt"][n], "--mode", "full"]
        code = 1
        expect = {"dim": n * (n - 1) // 2, "passed": False}
    elif kind == "verify_bad_index":
        # The contract says malformed input exits 2; an out-of-range index
        # currently escapes as a traceback with exit 1.
        argv = ["verify", rng.choice(sorted(files["so_bad_index"].values())), "--mode", "full"]
        code = 2
        expect = None
    else:
        argv = _malformed(rng, files)
        code = 2
        expect = None
    return {"kind": kind, "argv": argv, "code": code, "expect": expect}


def write_cli_files(directory) -> dict:
    """Structure-constant files for the verify requests; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {"so": {}, "so_corrupt": {}, "so_bad_index": {}, "missing": str(directory / "absent.json")}
    for n in (3, 4, 5, 6):
        good = so_constants(n)
        path = directory / f"so{n}.json"
        path.write_text(json.dumps(good))
        files["so"][n] = str(path)
        # [E_0, E_1] gains a multiple of E_0, entered skew-symmetrically;
        # the bracket stays skew but no longer satisfies Jacobi.
        bad = json.loads(json.dumps(good))
        for entry in bad["entries"]:
            if entry[:2] in ([0, 1], [1, 0]):
                entry[2][0] = "1/1" if entry[:2] == [0, 1] else "-1/1"
        path = directory / f"so{n}_corrupt.json"
        path.write_text(json.dumps(bad))
        files["so_corrupt"][n] = str(path)
        # An index pair one past the end, entered skew-symmetrically.
        oob = json.loads(json.dumps(good))
        unit = ["1/1"] + ["0/1"] * (good["dim"] - 1)
        oob["entries"] += [[good["dim"], 0, unit], [0, good["dim"], ["-" + c for c in unit]]]
        path = directory / f"so{n}_bad_index.json"
        path.write_text(json.dumps(oob))
        files["so_bad_index"][n] = str(path)
    return files


def known_defect(kind: str, code: int) -> bool:
    """The verify defect the seed ships with: an out-of-range index ends in
    a traceback with exit 1 where the contract says 2."""
    return kind == "verify_bad_index" and code == 1


def check_cli(req: dict, code: int, stdout: str):
    """(wrong_exit, reason): reason is None when the response matches what
    the request must produce; wrong_exit marks a broken exit-code contract."""
    if code != req["code"]:
        return True, f"exit {code}, expected {req['code']}"
    if req["expect"] is None:
        return (False, "output on stdout") if stdout.strip() else (False, None)
    try:
        data = json.loads(stdout)
    except ValueError:
        return False, "stdout is not JSON"
    for key, want in req["expect"].items():
        if key == "@grading_total":
            dims = data.get("dims", {})
            got = sum(dims.values())
            symmetric = data.get("kind") != "Z" or all(dims.get(str(-int(g))) == v for g, v in dims.items())
            if got != want or not symmetric:
                return False, f"grading dims {dims} do not sum to {want} symmetrically"
        elif key == "@unit_row":
            row = data["table"][0]
            if any(row[j] != ["1/1" if k == j else "0/1" for k in range(want)] for j in range(want)):
                return False, "e0 is not the unit"
        else:
            got = data
            for part in key.split("."):
                got = got.get(part) if isinstance(got, dict) else None
            if got != want:
                return False, f"{key} = {got!r}, expected {want!r}"
    return False, None
