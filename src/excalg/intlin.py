"""Certified exact kernels of rational and Gaussian systems.

Every elimination of the package (``linalg._rref`` and with it ``rank``,
``solve``, ``inverse`` and ``Subspace``, ``linalg.kernel``, the Leibniz
kernels, the commutator closures, the derived algebra and the Killing form
of :mod:`excalg.liealg`, the sextonion products and the g2 vector model)
clears denominators and calls one of the entry points :func:`int_kernel`,
:func:`kernel_array`, :func:`int_rref` or :func:`span_coordinates`.  Each
reads the field from the array shape: integer rows [m, n] are rational,
Gaussian integer rows [m, n, 2] of (re, im) are over Q(i).  Only this
module knows the real form of a Q(i) system (:func:`_realified`), a system
over Z with twice the rows and columns: :func:`_certified_kernel`
eliminates it once and checks that its free columns come in pairs, and
:func:`span_coordinates` solves its family in it.  All read one certified
kernel, which

1. discovers the pivot/free structure modulo a word-sized prime, on the
   rows as they are, so that sparse rows stay sparse,
2. lifts the modular kernel to Q by rational reconstruction (with CRT over
   several primes when single-prime reconstruction fails), and
3. verifies A @ K == 0 exactly (in float64 when provably exact, in Python
   integers otherwise).

The result is exact, not heuristic.  Reduction mod p never raises the rank
of a prefix of columns, so a prime's pivots are never more, and never
earlier, than the rational pivots; the verified kernel vectors, one per
free column, then prove that the modular pivots are the rational ones.  A
prime whose pivots are fewer or later is passed over, and a failed lift or
check retries with more primes.  When only the size of the kernel is read
(:func:`nullity`), a prime with min(m, n) pivots proves it without a lift.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .scalar import Scalar
from .tensor import biggest, int_array, scalar_rows

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic Miller-Rabin witnesses for n < 3.3e24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below(start: int) -> Iterator[int]:
    """The primes below start, in decreasing order."""
    n = start
    while True:
        n -= 1
        if _is_prime(n):
            yield n


_PRIMES = list(itertools.islice(_primes_below(1 << 30), 64))

_FLOAT_EXACT = 1 << 53
# OpenBLAS runs a product of at most _SERIAL_MADDS multiply-adds on the
# calling thread and wakes its worker threads for a larger one.  Up to
# _BLOCKED_MADDS the wake-up costs more than the product (a 28 x 406 x 378
# product took 24 ms on two threads against 0.4 ms on one, on a 2-vCPU
# VM) and makes its time follow the machine's load, so _float_matmul cuts
# such products into serial pieces.
_SERIAL_MADDS = 1 << 18
_BLOCKED_MADDS = 1 << 24


def _mod_p_rref(a: np.ndarray, p: int):
    """Reduced row echelon form mod p of integer rows a, of any size, as a
    new int64 array, and its pivots.  A pivot updates the rows with an entry
    in its column, only on its row's nonzero columns when those are under a
    quarter (sparse systems).  With p < 2**31 no int64 overflows."""
    # entries below p in absolute value are kept, and every entry written is in [0, p)
    a = a.astype(np.int64, order="K") if a.dtype != object and biggest(a) < p else (a % p).astype(np.int64)
    m, n = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        rows = a[:, c].nonzero()[0]
        if not rows.size or rows[-1] < r:
            continue
        pr = int(rows[rows.searchsorted(r)])
        if pr != r:  # row r has a zero in column c
            a[[r, pr]] = a[[pr, r]]
        row = a[r, c:]
        row[:] = row * pow(int(row[0]), p - 2, p) % p
        rows = rows[rows != pr]
        if rows.size:
            if 4 * np.count_nonzero(row) < row.size:
                cols = row.nonzero()[0]
                at, row = np.ix_(rows, c + cols), row[cols]
            else:
                at = rows, slice(c, None)
            a[at] = (a[at] - a[rows, c, None] * row) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _rational_reconstruct(v: int, modulus: int) -> Optional[tuple[int, int]]:
    """Wang reconstruction: v mod modulus -> num/den with small height."""
    bound = math.isqrt(modulus // 2)
    a0, a1 = modulus, v % modulus
    x0, x1 = 0, 1
    while a1 > bound:
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        x0, x1 = x1, x0 - q * x1
    num, den = a1, x1
    if den == 0:
        return None
    if den < 0:
        num, den = -num, -den
    if den > bound or math.gcd(den, modulus) != 1:
        return None
    if (num - v * den) % modulus != 0:
        return None
    g = math.gcd(abs(num), den)
    return num // g, den // g


def _float_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of float64 arrays.  A product of up to _BLOCKED_MADDS
    multiply-adds runs in pieces of about _SERIAL_MADDS, split along the
    longer of a's rows and b's columns."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-2] * a.shape[-1] * b.shape[-1] > _BLOCKED_MADDS:
        return a @ b
    (m, k), n = a.shape[-2:], b.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n))
    axis = -1 if n >= m else -2
    pieces = max(1, min(-(-m * k * n // _SERIAL_MADDS), out.shape[axis]))
    if axis == -1:
        a_parts, b_parts = [a] * pieces, np.array_split(b, pieces, axis)
    else:
        a_parts, b_parts = np.array_split(a, pieces, axis), [b] * pieces
    for part_a, part_b, dest in zip(a_parts, b_parts, np.array_split(out, pieces, axis)):
        np.matmul(part_a, part_b, out=dest)
    return out


def checked_int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product a @ b of integer arrays (stacks broadcast as
    in np.matmul), via float64 when provably safe."""
    if biggest(a) * biggest(b) * a.shape[-1] < _FLOAT_EXACT:
        return np.rint(_float_matmul(a.astype(np.float64), b.astype(np.float64))).astype(np.int64)
    return a.astype(object) @ b.astype(object)


def int_dtype(bound: int):
    """np.int64 when every integer, partial sums included, is at most
    `bound` in absolute value and `bound` < 2**63; else object, for Python
    integers.  The one rule by which integer tables choose their dtype."""
    return np.int64 if bound < 1 << 63 else object


def exact_product(x: np.ndarray, y: np.ndarray, terms: int = 1) -> np.ndarray:
    """x * y (broadcast) exactly: in int64 when a sum of `terms` such
    products stays below 2**63, else in Python integers."""
    if int_dtype(biggest(x) * biggest(y) * terms) is object:
        x, y = x.astype(object), y.astype(object)
    return x * y


def _realified(a: np.ndarray) -> np.ndarray:
    """The real form of a Gaussian integer array [m, n, 2] of (re, im):
    entry a + bi becomes the block [[a, -b], [b, a]] in rows 2r, 2r + 1 and
    columns 2j, 2j + 1.  This is a ring map, so a complex row space and its
    kernel are carried to the real ones."""
    m, n, _ = a.shape
    out = np.zeros((2 * m, 2 * n), dtype=int_dtype(biggest(a)))
    re, im = a[..., 0].astype(out.dtype), a[..., 1].astype(out.dtype)
    out[0::2, 0::2] = re
    out[0::2, 1::2] = -im
    out[1::2, 0::2] = im
    out[1::2, 1::2] = re
    return out


def int_kernel(rows: Sequence[Sequence[int]], ncols: int) -> List[List[Scalar]]:
    """Exact kernel basis of integer rows (lists or a 2-D array, entries of
    any size), or of Gaussian integer rows [m, ncols, 2].

    Returns one vector per free column f of the reduced row echelon form, in
    increasing f, with a 1 at f, zeros at the other free columns and -R[r][f]
    at the pivot of row r.
    """
    return scalar_rows(*kernel_array(rows, ncols))


def kernel_array(rows: Sequence[Sequence[int]], ncols: int) -> Tuple[np.ndarray, int]:
    """The vectors of :func:`int_kernel` as one integer array K over their
    common denominator den: vector f is K[f] / den, K[f, ncols, 2] of (re,
    im) for Gaussian integer rows [m, ncols, 2]."""
    return _certified_kernel(rows, ncols)[1:]


def nullity(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """The number of vectors of :func:`kernel_array`.  Reduction never
    raises the rank, so rank min(m, n) modulo the first prime (over Q(i):
    of the real form, free columns paired) proves nullity max(n - m, 0)."""
    a, gaussian = _system(rows, ncols)
    pivots = set(_mod_p_rref(a, _PRIMES[0])[1])
    free = [j for j in range(a.shape[1]) if j not in pivots]
    if len(pivots) == min(a.shape) and (not gaussian or _paired(free)):
        return len(free) // (1 + gaussian)
    return len(kernel_array(rows, ncols)[0])


def _system(rows: Sequence[Sequence[int]], ncols: int) -> Tuple[np.ndarray, bool]:
    """(A, gaussian): the rows as one array [m, ncols], Gaussian ones in real form."""
    if isinstance(rows, np.ndarray) and rows.ndim == 3:
        return _realified(rows), True
    return int_array(rows).reshape(len(rows), ncols), False


def _paired(free: List[int]) -> bool:
    """Whether the free columns of a real form come in pairs (2f, 2f + 1)."""
    return free[1::2] == [f + 1 for f in free[0::2]] and not any(f % 2 for f in free[0::2])


def span_coordinates(family: np.ndarray, targets: np.ndarray) -> Optional[Tuple[np.ndarray, int]]:
    """Coordinates of the target rows in the independent family rows: (X,
    den) with X @ family == den * targets, or None when a target lies
    outside the span; raises ValueError when the family is dependent.

    The n family rows are reduced modulo a prime for n pivot columns, on
    which the n x n block B is invertible over Q too (a minor that is
    nonzero mod p is nonzero).  B is inverted once, by the certified kernel
    of [B^T | I], the targets on those columns are multiplied by the
    inverse, and the product is then checked exactly on every column.

    Gaussian integer arrays [n, m, 2] and [t, m, 2] of (re, im) are solved
    in their real form: row 2k of the realified family is phi(v_k) and row
    2k + 1 is phi(-i v_k), with phi(a + bi) = (a, -b), the targets are the
    rows phi(t), and c_k = x_2k - i x_2k+1 is read back as X[t, n, 2].  The
    exact check on the real form covers both parts of every target, and a
    family dependent over Q(i) has dependent real rows."""
    if family.ndim == 3:
        solved = span_coordinates(_realified(family), _realified(targets)[0::2])
        if solved is None:
            return None
        x, den = solved
        return np.stack((x[:, 0::2], -x[:, 1::2]), axis=-1), den
    n = len(family)
    for tried, p in enumerate(_PRIMES):
        pivots = _mod_p_rref(family, p)[1]
        if len(pivots) == n:
            break
        if not tried and _certified_kernel(family.T, n)[0]:
            raise ValueError("the family is linearly dependent")
    else:
        raise ArithmeticError("no prime keeps the family independent")
    k, den = kernel_array(np.concatenate((family[:, pivots].T, np.eye(n, dtype=np.int64)), axis=1), 2 * n)
    # B is invertible, so the free columns are the identity's and kernel
    # vector j is (-den B^-1[j], den e_j)
    x = checked_int_matmul(targets[:, pivots], -k[:, :n])
    g = math.gcd(den, *x.ravel().tolist())
    x, den = x // g, den // g
    if not np.array_equal(checked_int_matmul(x, family), exact_product(targets, np.array(den))):
        return None
    return x, den


def int_rref(rows: Sequence[Sequence[int]], ncols: int) -> Tuple[List[List[Scalar]], List[int]]:
    """Exact reduced row echelon form of integer rows, or of Gaussian
    integer rows [m, ncols, 2]: the nonzero rows and the pivot columns, read
    off the kernel of :func:`int_kernel`.  The row of pivot p is e_p -
    sum_f v_f[p] e_f over the kernel vectors v_f, and v_f[p] is zero for p
    past f."""
    free, k, den = _certified_kernel(rows, ncols)
    free_set = set(free)
    pivots = [j for j in range(ncols) if j not in free_set]
    reduced = np.zeros((len(pivots), ncols) + k.shape[2:], dtype=k.dtype)
    reduced[:, free] = -k[:, pivots].swapaxes(0, 1)
    # den at each pivot, in the real part over Q(i)
    reduced.reshape(len(pivots), ncols, k.ndim - 1)[np.arange(len(pivots)), pivots, 0] = den
    return scalar_rows(reduced, den), pivots


def _certified_kernel(rows: Sequence[Sequence[int]], ncols: int) -> Tuple[List[int], np.ndarray, int]:
    """The free columns and their kernel vectors over one common
    denominator den, verified exactly: (free, K, den), the vector of free
    column free[k] being K[k] / den, with a 1 there.

    Gaussian integer rows [m, ncols, 2] are eliminated once in their real
    form.  Its columns 2j and 2j + 1 are the real forms of c_j and i c_j,
    and the span of the columns before them is closed under i, so its free
    columns come in pairs (2f, 2f + 1); a lone free column raises.  The
    vector of column 2f, with x_2j + i x_2j+1 at j, is the Q(i) vector of
    free column f, returned as K[k, ncols, 2]."""
    a_full, gaussian = _system(rows, ncols)
    width = a_full.shape[1]
    amax = biggest(a_full)
    # Each number to lift is a ratio of minors below 2**height (Hadamard).
    # It takes about 2 * height / 29 primes with the right pivots, and the
    # primes with wrong ones divide a nonzero minor, so there are fewer.
    height = min(a_full.shape) * (amax * width).bit_length()
    primes = itertools.chain(_PRIMES, _primes_below(_PRIMES[-1]))

    residues = None  # -R[r][free[k]] modulo the product of the primes used
    modulus = 1
    pivots_ref: Optional[List[int]] = None
    for p in itertools.islice(primes, len(_PRIMES) + height // 7):
        # every prime eliminates the rows as given, so sparse rows stay sparse
        red, pivots = _mod_p_rref(a_full, p)
        # more pivots, then earlier ones, are closer to the rational pivots
        if pivots_ref is None or (-len(pivots), pivots) < (-len(pivots_ref), pivots_ref):
            pivots_ref, residues, modulus = pivots, None, 1
        if pivots != pivots_ref:
            continue
        pivot_set = set(pivots)
        free = [j for j in range(width) if j not in pivot_set]
        cand = -red[: len(pivots)][:, free] % p
        if residues is None:
            residues, modulus = cand.astype(object), p
        else:
            inv = pow(modulus, -1, p)
            residues = residues + modulus * ((cand - residues) * inv % p)
            modulus *= p
        basis = _lift(residues, modulus, pivots, free, width)
        if basis is not None and (not len(basis) or not checked_int_matmul(a_full, basis.T).any()):
            break
    else:
        raise ArithmeticError("integer kernel lifting failed; system too ill-conditioned")
    if gaussian:
        if not _paired(free):
            raise ArithmeticError("real form of a Q(i) system has unpaired pivots")
        free, basis = free[0::2], basis[0::2]
    scales = basis[np.arange(len(free)), free].tolist()
    den = math.lcm(1, *scales)
    basis = exact_product(basis, int_array([den // s for s in scales])[:, None])
    if gaussian:
        return [f // 2 for f in free], basis.reshape(len(free), ncols, 2), den
    return free, basis, den


def _lift(residues, modulus: int, pivots: List[int], free: List[int], ncols: int):
    """Integer kernel vectors, one row per free column, from residues[r, k]
    = -R[r][free[k]] mod modulus, each scaled by the lcm of its
    denominators, or None when a reconstruction fails.  With L the lcm of
    the denominators found so far in its vector, a residue v is read as (L
    v mod modulus) / L, with no search, when that and L are within the
    reconstruction bound."""
    at, k = np.nonzero(residues)
    bound, scales, recs = math.isqrt(modulus // 2), [1] * len(free), []
    for kk, v in zip(k.tolist(), residues[at, k].tolist()):
        w = (v * scales[kk] + bound) % modulus - bound  # L v mod modulus, from -bound up
        rec = (w, scales[kk]) if max(abs(w), scales[kk]) <= bound else _rational_reconstruct(v, modulus)
        if rec is None:
            return None
        scales[kk] = math.lcm(scales[kk], rec[1])
        recs.append(rec)
    vals = int_array(scales + [num * (scales[kk] // den) for kk, (num, den) in zip(k.tolist(), recs)])
    basis = np.zeros((len(free), ncols), dtype=vals.dtype)
    basis[np.arange(len(free)), free] = vals[: len(free)]
    basis[k, np.array(pivots, dtype=np.int64)[at]] = vals[len(free):]
    return basis
