"""Certified fast kernels for large integer matrices.

The generic exact solver in :mod:`excalg.linalg` is fine up to a few hundred
columns.  Derivation algebras of the larger Jordan algebras need kernels of
systems with ~700 unknowns and ~10000 sparse equations, which is out of reach
for naive rational elimination.  This module computes such kernels by

1. discovering the pivot/free structure modulo a word-sized prime (after an
   exact random row compression that keeps every product below 2**53 so the
   matmul can run through BLAS),
2. lifting the modular kernel to Q by rational reconstruction (with CRT over
   several primes when single-prime reconstruction fails), and
3. verifying A @ K == 0 in exact integer arithmetic.

The result is exact, not heuristic: modular rank is a lower bound for the
rational rank, so pivot count + verified kernel vectors certify the kernel
dimension; the verification step certifies membership.  Failures at any
stage retry with fresh randomness and more primes.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

import numpy as np

from .scalar import Scalar

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


def _primes_below(start: int, count: int) -> List[int]:
    out: List[int] = []
    n = start
    while len(out) < count:
        n -= 1
        if _is_prime(n):
            out.append(n)
    return out


_PRIMES = _primes_below(1 << 30, 64)

_FLOAT_EXACT = 1 << 53


def _mod_p_rref(a: np.ndarray, p: int):
    """Reduced row echelon form mod p.

    Per-pivot vectorized updates restricted to the columns right of the
    pivot (the pivot column itself becomes a unit vector and is written
    directly).  With p < 2**31 all int64 products stay in range.
    """
    a = a % p
    m, n = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = (a[r, c:] * inv) % p
        fac = a[:, c].copy()
        fac[r] = 0
        nzrows = np.nonzero(fac)[0]
        if nzrows.size:
            tail = a[nzrows, c + 1 :]
            tail -= np.outer(fac[nzrows], a[r, c + 1 :])
            tail %= p
            a[nzrows, c + 1 :] = tail
        a[:, c] = 0
        a[r, c] = 1
        pivots.append(c)
        r += 1
    return a, pivots


def _compress(a: np.ndarray, rng: random.Random) -> np.ndarray:
    """Exact random row compression to ~ncols + 40 rows.

    Products stay below 2**53, so the float64 matmul is exact.
    """
    m, n = a.shape
    target = min(m, n + 40)
    if m <= target:
        return a
    amax = int(np.abs(a).max()) if a.size else 0
    # entry bound for R chosen so that m * rmax * amax < 2**53
    rmax = max(2, int(_FLOAT_EXACT // (max(amax, 1) * m * 4)))
    rmax = min(rmax, 1 << 12)
    seed = rng.randrange(1 << 30)
    rstate = np.random.default_rng(seed)
    r = rstate.integers(0, rmax, size=(target, m), dtype=np.int64)
    bound = float(m) * (rmax - 1) * max(amax, 1)
    if bound >= _FLOAT_EXACT:
        raise ValueError("entries too large for exact float compression")
    c = r.astype(np.float64) @ a.astype(np.float64)
    out = np.asarray(c, dtype=np.float64)
    res = np.empty(out.shape, dtype=np.int64)
    np.rint(out, out)
    res[:] = out
    return res


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


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    inv = pow(m1 % m2, -1, m2)
    t = ((r2 - r1) * inv) % m2
    return r1 + m1 * t, m1 * m2


def checked_int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product of int64 arrays, via float64 when provably safe."""
    amax = int(np.abs(a).max()) if a.size else 0
    bmax = int(np.abs(b).max()) if b.size else 0
    inner = a.shape[1]
    if amax * bmax * inner < _FLOAT_EXACT:
        c = a.astype(np.float64) @ b.astype(np.float64)
        out = np.empty(c.shape, dtype=np.int64)
        np.rint(c, c)
        out[:] = c
        return out
    return np.array(
        a.astype(object) @ b.astype(object), dtype=object
    )


def _verify_kernel(a: np.ndarray, kernel_cols: List[List[int]]) -> bool:
    if not kernel_cols:
        return True
    k = np.array(kernel_cols, dtype=object).T
    kmax = max(max(abs(x) for x in col) for col in kernel_cols)
    amax = int(np.abs(a).max()) if a.size else 0
    if amax * kmax * a.shape[1] < _FLOAT_EXACT:
        kf = k.astype(np.float64)
        prod = a.astype(np.float64) @ kf
        return not prod.any()
    prod = a.astype(object) @ k
    return not np.asarray(prod != 0).any()


def int_kernel(rows: Sequence[Sequence[int]], ncols: int) -> List[List[Scalar]]:
    """Exact rational kernel basis (canonical echelon form) of integer rows.

    Returns one vector per free column, with a 1 in the free coordinate, as
    in :func:`excalg.linalg.kernel`.
    """
    a_full = np.array(
        [list(r) for r in rows] if rows else np.zeros((0, ncols)),
        dtype=np.int64,
    ).reshape(len(rows), ncols)
    if a_full.size and int(np.abs(a_full).max()) >= (1 << 29):
        raise ValueError("entries too large for the integer fast path")
    rng = random.Random(0xE8)

    residues = None  # per-entry CRT residues of the candidate kernel
    modulus = 1
    pivots_ref: Optional[List[int]] = None
    for attempt, p in enumerate(_PRIMES):
        a = _compress(a_full, rng) if a_full.size else a_full
        red, pivots = _mod_p_rref(a.copy() % p, p)
        if pivots_ref is None or len(pivots) > len(pivots_ref):
            pivots_ref, residues, modulus = pivots, None, 1
        if pivots != pivots_ref:
            continue
        free = [j for j in range(ncols) if j not in set(pivots)]
        cand = {}
        for f in free:
            col = {}
            for r, pc in enumerate(pivots):
                col[pc] = (-int(red[r, f])) % p
            cand[f] = col
        if residues is None:
            residues, modulus = cand, p
        else:
            for f in free:
                for pc in cand[f]:
                    residues[f][pc], _ = _crt_pair(
                        residues[f][pc], modulus, cand[f][pc], p
                    )
            modulus *= p
        # attempt reconstruction with the accumulated modulus
        basis: List[List[Scalar]] = []
        ok = True
        for f in free:
            v = [0] * ncols
            dens: List[int] = []
            entries = {}
            for pc, res in residues[f].items():
                rec = _rational_reconstruct(res, modulus)
                if rec is None:
                    ok = False
                    break
                entries[pc] = rec
            if not ok:
                break
            scale = math.lcm(1, *(d for _, d in entries.values()))
            col = [0] * ncols
            col[f] = scale
            for pc, (num, den) in entries.items():
                col[pc] = num * (scale // den)
            basis.append(col)
        if not ok:
            continue
        if _verify_kernel(a_full, basis):
            out = []
            for f, col in zip(free, basis):
                scale = col[f]
                out.append([Scalar.rational(x, scale) for x in col])
            return out
    raise ArithmeticError("integer kernel lifting failed; system too ill-conditioned")


def int_rank_lower_bound(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """A certified lower bound for the rational rank (rank modulo a prime)."""
    if not rows:
        return 0
    a = np.array([list(r) for r in rows], dtype=np.int64)
    best = 0
    rng = random.Random(0x52)
    for p in _PRIMES[:2]:
        c = _compress(a, rng)
        _, pivots = _mod_p_rref(c.copy() % p, p)
        best = max(best, len(pivots))
    return best


def has_full_rank(rows: Sequence[Sequence[int]], n: int) -> bool:
    """True when an n-column integer matrix provably has rank n."""
    return int_rank_lower_bound(rows, n) == n
