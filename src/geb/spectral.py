"""Adjacency eigenvalues, derived spectral scalars, and exact integer checks.

One in-house eigensolver takes a whole stack of same-size symmetric matrices
at once: Householder reduction to tridiagonal form, then bisection of every
eigenvalue of the batch together on Sturm counts (Barth, Martin & Wilkinson
1967), with the batch on the last axis so that each numpy step runs along it.
It takes n - 2 reflections on (m, b) and (m, m, b) operands, whose sums
replay numpy's pairwise summation order, and 53 or 54 bisection steps of n
row steps, each a few numpy calls on contiguous (n, b) operands of one shape.
It always terminates, and a matrix's eigenvalues do not depend on which other
matrices share its batch. ``spectral_columns`` derives the SpectralStats of many
spectra at once, as numpy columns; ``spectral_stats`` is its row 0.

Exact companions: ``determinants_exact`` takes a whole stack too. Its first
18 fraction-free elimination steps (Bareiss 1968) run once, in float64, where
every value is a 0/1 minor small enough to be exact. From 20 vertices on, the
trailing block is eliminated modulo one prime below 2**24 at a time, with as
many primes as Hadamard's row-norm bound needs, and the residues are joined by
the Chinese remainder theorem (von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 5); McClelland's lower bound reads them.
``integer_rank`` runs a division-free row echelon over Python ints. It is a
library function that no command calls; tests check the float rank against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graphs import MAX_VERTICES, Graph, adjacency_stack

DEFAULT_ZERO_TOL = 1e-8
_COUNT = np.min_scalar_type(MAX_VERTICES)  # the bisection's Sturm counts, 0..n


@dataclass(frozen=True)
class Spectrum:
    """All adjacency eigenvalues, sorted descending, plus their energy."""

    values: tuple[float, ...]
    energy: float

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SpectralStats:
    """The scalars every bound and the Grüss chain read, derived once per Spectrum."""

    energy: float            # the Spectrum's energy
    lambda1: float
    t: float                 # min |eigenvalue|, exactly 0.0 when rank < n
    t_nz: float | None       # min |eigenvalue| above zero_tol, None if rank 0
    rank: int                # count of |eigenvalue| > zero_tol
    zero_tol: float          # the threshold that decided rank, t and t_nz


def adjacency_matrix(g: Graph) -> np.ndarray:
    return adjacency_stack(g.n, [g.adj])[0].astype(float)


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0, in the order ``np.sum`` adds a contiguous last axis.

    For 8 to 128 terms numpy keeps eight running sums over blocks of 8, joins
    them as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), adds the
    remaining terms left to right and adds that to its starting 0.0 (which
    turns -0.0 into 0.0); fewer terms it adds left to right. numpy adds at
    most 7 terms left to right in any layout, so no call here reduces more:
    that holds for len(x) <= 63. The trailing terms take a call each: reduced
    with the running sum, they could make 8 terms, which numpy adds pairwise.
    """
    k = len(x) - len(x) % 8
    if not k:
        return x.sum(axis=0) + 0.0
    r = x[:k].reshape(k // 8, 8, *x.shape[1:]).sum(axis=0)
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    s = r[0] + r[1]
    for row in x[k:]:
        s += row
    return s + 0.0


def _reduce_to_tridiagonal(a: np.ndarray) -> None:
    """Householder-reduce each matrix of an (n, n, b) symmetric stack in place.

    The diagonal d and subdiagonal e are left in ``a``; the rest of the lower
    triangle is workspace. Every reflection runs on (m, b) and (m, m, b)
    operands. Each sum is ``_pairwise_sum``, which rounds as ``np.sum`` along
    a contiguous row does, so each matrix's arithmetic is that of a loop with
    the batch first. The trailing block stays exactly symmetric (each update
    adds v_i w_j + w_i v_j, the same float as entry (j, i)), so the matvec
    sums over its rows. The two work buffers are freed on return, before the
    bisection allocates its own.
    """
    n, _, b = a.shape
    work = np.empty((2, (n - 1) ** 2 * b))
    for k in range(n - 2):
        m = n - 1 - k
        x = a[k + 1 :, k]
        # v is built from x scaled to max |x_i| = 1: columns of rounding
        # noise (1e-16, then 1e-32, ...) would otherwise underflow v.v
        scale = np.abs(x).max(axis=0)
        v = x / np.where(scale > 0.0, scale, 1.0)
        tail = _pairwise_sum(v[1:] * v[1:])
        reflect = tail > 0.0  # else column k is already tridiagonal
        alpha = -np.copysign(np.sqrt(v[0] * v[0] + tail), v[0])
        v[0] -= alpha
        vv = np.maximum(_pairwise_sum(v * v), 1.0)  # v.v >= 1 whenever reflect
        tau = np.where(reflect, 2.0 / vv, 0.0)
        a[k + 1, k] = np.where(reflect, alpha * scale, x[0])
        # A22 <- H A22 H with H = I - tau v v^T, as a rank-2 update
        a22 = a[k + 1 :, k + 1 :]
        prod, outer = (buf[: m * m * b].reshape(m, m, b) for buf in work)
        p = tau * _pairwise_sum(np.multiply(a22, v[:, None], out=prod))
        w = p - (0.5 * tau * _pairwise_sum(p * v)) * v
        np.multiply(v[:, None], w, out=outer)  # v_i w_j
        a22 -= np.add(outer, outer.transpose(1, 0, 2), out=prod)  # v_i w_j + w_i v_j


def _tridiagonal_eigenvalues_stack(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of an (n, n, b) batch-last stack of symmetric matrices, as (b, n), unsorted.

    ``_reduce_to_tridiagonal`` leaves each matrix's tridiagonal form in ``a``;
    then all b*n eigenvalues are bisected together on LDL^T Sturm counts, as
    LAPACK ``dstebz`` does. The bisection lays d, e^2 and the per-matrix
    scalars out once in the (n, b) shape of the intervals, so that each numpy
    step runs over contiguous operands of one shape; each element sees the
    same IEEE operations, in the same order, as in a loop with the batch first.
    A matrix with an edge takes 53 or 54 steps, as r rounds. Each step's
    bookkeeping runs in place, on buffers allocated once: the counts decide
    which end of each unconverged interval takes mid, and one branch-free
    select on the int64 bits of both ends, held as one (2, n, b) array, moves
    them. The select's bits reuse the row loop's q and t, which are free then.
    """
    n = len(a)
    _reduce_to_tridiagonal(a)
    idx = np.arange(n)
    d = a[idx, idx]  # (n, b)
    e2 = np.zeros_like(d)  # e2[i] = e_{i-1}^2, with e_{-1} = 0
    e2[1:] = a[idx[1:], idx[:-1]] ** 2
    # Gershgorin: every eigenvalue lies in [-r, r]; an edgeless graph has r = 0
    r = np.abs(d).max(axis=0) + 2.0 * np.sqrt(e2.max(axis=0))
    pivmin = np.finfo(float).tiny * np.maximum(1.0, e2.max(axis=0))
    tol = np.finfo(float).eps * np.maximum(1.0, r)
    # no row step broadcasts: each per-matrix scalar is repeated over the n
    # intervals as an (n, b) array, and each row of d and e2 as an (n, n, b) stack
    hi, pivmin, tol = (np.repeat(x[None], n, axis=0) for x in (r, pivmin, tol))
    # as lists of (n, b) rows: a list index costs less than an array index
    d, e2 = (list(np.repeat(x[:, None], n, axis=1)) for x in (d, e2))
    ends = np.stack([-hi, hi])  # lo and hi of every interval, as (2, n, b)
    lo, hi = ends
    clamp = -pivmin  # what a q with |q| < pivmin becomes
    rank = np.broadcast_to(idx[:, None], hi.shape).astype(_COUNT)
    mid = np.empty(hi.shape)
    scratch = np.empty(ends.shape)  # q and t in the row loop, the blend's bits after it
    q, t = scratch
    small, active = (np.empty(hi.shape, dtype=bool) for _ in range(2))
    below = small.view(_COUNT)  # small's bytes, as counts
    move = np.empty(ends.shape, dtype=bool)  # which of lo and hi take mid
    lower, upper = move
    count = np.empty(hi.shape, dtype=_COUNT)  # eigenvalues below mid
    bits, mid_bits, blend = (x.view(np.int64) for x in (ends, mid, scratch))
    np.greater(np.subtract(hi, lo, out=t), tol, out=active)
    while True:
        np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)  # mid = 0.5 * (lo + hi)
        if not active.any():
            return mid.T
        np.subtract(d[0], mid, out=q)  # q_0: e2_0 / q_{-1} is 0.0 / 1.0, x - 0.0 is x, -0.0 too
        for i in range(n):
            if i:  # q_i = (d_i - mid) - e2_i / q_{i-1}
                np.subtract(np.subtract(d[i], mid, out=t), np.divide(e2[i], q, out=q), out=q)
            np.less(np.abs(q, out=t), pivmin, out=small)
            np.copyto(q, clamp, where=small)
            if i:
                np.less(q, 0.0, out=small)
                count += below
            else:  # the count starts from row 0's signs
                np.less(q, 0.0, out=count.view(bool))
        # row j holds the eigenvalue with j others below it; converged
        # intervals stay frozen, so no result depends on its batch
        np.greater(count, rank, out=upper)
        upper &= active  # hi takes mid
        np.logical_xor(active, upper, out=lower)  # lo takes mid: active and not upper
        # each end is copied bit for bit: end ^ ((end ^ mid) * moves) is mid or end
        np.bitwise_xor(bits, mid_bits, out=blend)
        blend *= move
        bits ^= blend
        np.greater(np.subtract(hi, lo, out=t), tol, out=active)


def group_by_n(sizes: Sequence[int] | np.ndarray) -> dict[int, list[int]]:
    """The indices of a batch's vertex counts, grouped by count."""
    sizes = np.asarray(sizes, dtype=np.int64)  # not np.unique: it imports numpy.ma on first use
    return {n: np.flatnonzero(sizes == n).tolist() for n in dict.fromkeys(sizes.tolist())}


def _stacks_by_n(graphs: Sequence[Graph], dtype: type) -> Iterator[tuple[list[int], np.ndarray]]:
    """Per vertex count, the graphs' indices and their (n, n, b) adjacency stack.

    Batch last and contiguous, so that every row operation runs over
    contiguous memory; a kernel call per group frees its buffers before the
    next group allocates.
    """
    for n, indices in group_by_n([g.n for g in graphs]).items():
        yield indices, np.ascontiguousarray(
            adjacency_stack(n, [graphs[i].adj for i in indices]).transpose(1, 2, 0), dtype=dtype)


def sequential_sum(x: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array, added left to right as Python's ``sum`` adds.

    ``np.sum`` adds pairwise, which differs in the last bit from 8 terms on.
    """
    return np.cumsum(x, axis=1)[:, -1] if x.shape[1] else np.zeros(len(x))


def eigenvalues_batch(graphs: Sequence[Graph]) -> list[Spectrum]:
    """Spectra for many graphs at once (grouped internally by vertex count).

    The energy adds the absolute eigenvalues largest first.
    """
    out: list[Spectrum | None] = [None] * len(graphs)
    for indices, stack in _stacks_by_n(graphs, float):
        diags = -np.sort(-_tridiagonal_eigenvalues_stack(stack), axis=1)
        energies = sequential_sum(-np.sort(-np.abs(diags), axis=1))
        for idx, values, energy in zip(indices, diags.tolist(), energies.tolist()):
            out[idx] = Spectrum(tuple(values), energy)
    return out  # type: ignore[return-value]


def eigenvalues(g: Graph) -> Spectrum:
    """All eigenvalues of the 0/1 adjacency matrix, sorted descending."""
    return eigenvalues_batch([g])[0]


def spectral_columns(
    spectra: Sequence[Spectrum], zero_tol: float = DEFAULT_ZERO_TOL
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Many spectra as one array, and each SpectralStats field but zero_tol as a column.

    The array holds one spectrum per row, zero-padded to the longest. Entry i
    of a column belongs to ``spectra[i]``; t_nz is nan where the rank is 0.
    """
    if not zero_tol > 0:  # also refuses NaN
        raise ValueError("zero_tol must be positive")
    sizes = np.array([s.n for s in spectra], dtype=np.int64)
    values = np.zeros((len(spectra), sizes.max(initial=1)))
    for n, rows in group_by_n(sizes).items():
        values[rows, :n] = [spectra[i].values for i in rows]
    mags = np.abs(values)
    nonzero = mags > zero_tol
    rank = nonzero.sum(axis=1)
    t_nz = np.where(nonzero, mags, np.inf).min(axis=1)
    t_nz[rank == 0] = np.nan
    return values, {
        "energy": np.array([s.energy for s in spectra]),
        "lambda1": values[:, 0],
        "t": np.where(rank == sizes, t_nz, 0.0),  # on singular spectra min abs is noise
        "t_nz": t_nz,
        "rank": rank,
    }


def spectral_stats(spec: Spectrum, zero_tol: float = DEFAULT_ZERO_TOL) -> SpectralStats:
    """Extract E, lambda_1, t, t_nz and the numerical rank: row 0 of ``spectral_columns``."""
    row = {name: col.tolist()[0] for name, col in spectral_columns([spec], zero_tol)[1].items()}
    if not row["rank"]:
        row["t_nz"] = None
    return SpectralStats(**row, zero_tol=zero_tol)


# Primes below 2**24, largest first. With entries below 2p in absolute value,
# an update p_k * x - a * y stays below 8p**2 < 2**51: exact in float64.
_PRIMES = (16777213, 16777199, 16777183, 16777153, 16777141, 16777139, 16777127, 16777121)

# Bareiss steps run in float64 before any prime. After s steps every entry is
# an (s + 1)-minor of a 0/1 matrix, at most M_(s+1), M_k = (k + 1)^((k + 1)/2) / 2^k,
# so each numerator is below 2 M_18^2 < 2**46: exact, as is each quotient. The
# 18th pivot, at most M_18 < 2**22.4, is below every prime: invertible mod each
# unless 0. M_19 > 2**24 breaks that.
_EXACT_STEPS = 18


def _primes_for(sq_norms: np.ndarray) -> tuple[int, ...]:
    """The fewest leading primes whose product exceeds 2 prod_i |row_i| for every matrix.

    ``sq_norms`` holds the squared row norms (for 0/1 rows, the row sums) of b
    matrices as an (n, b) array. By Hadamard's inequality |det| is at most the
    product of the row norms, so the product of the primes pins a symmetric
    residue to det. The factor 1 + 2^-40 covers the float product's rounding.
    """
    bound = 4 * np.prod(sq_norms, axis=0, dtype=float).max() * (1 + 2**-40)  # both sides squared
    k = next(k for k in range(len(_PRIMES) + 1) if math.prod(_PRIMES[:k]) ** 2 > bound)
    return _PRIMES[:k]


def _swap_in_pivots(a: np.ndarray, nonzero: np.ndarray, sign: np.ndarray) -> None:
    """In each (m, m) matrix, swap the first row ``nonzero`` flags into row 0 and flip the sign."""
    below = nonzero.argmax(axis=0)  # 0 (no swap) when no row qualifies
    swap = below > 0
    if swap.any():
        rows, which = below[swap], np.flatnonzero(swap)
        top = a[0, :, which]
        a[0, :, which] = a[rows, :, which]
        a[rows, :, which] = top
        sign[swap] = -sign[swap]


def _bareiss_steps(stack: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first ``steps`` Bareiss steps on an (n, n, b) 0/1 stack, in float64.

    Step k swaps a nonzero pivot into row 0 of the trailing block and replaces
    the rest, S with column c and row r, by (pivot S - c r^T) / previous pivot,
    an exact integer (see ``_EXACT_STEPS``), in buffers laid out as in
    ``_determinants_mod``. Returns the (m, m, b) block left, each matrix's
    row-swap sign and its last pivot P: by Sylvester's identity
    det(block) = sign * det * P^(m - 1). A zero pivot leaves a zero block
    (det 0), and the next step divides by 1.
    """
    n, _, b = stack.shape
    first, (second, tmp) = np.empty(stack.size), np.empty((2, (n - 1) ** 2 * b))
    a = first.reshape(stack.shape)
    a[...] = stack
    sign = np.ones(b, dtype=np.int64)
    pivot = divisor = np.ones(b)
    for k in range(steps):
        _swap_in_pivots(a, a[:, 0] != 0.0, sign)
        pivot = a[0, 0].copy()  # a's buffer is overwritten by the next step
        m = n - 1 - k
        sub = (first if k % 2 else second)[: m * m * b].reshape(m, m, b)
        t = tmp[: m * m * b].reshape(m, m, b)
        np.multiply(a[1:, 1:], np.repeat(pivot[None], m, axis=0), out=sub)
        np.einsum("ib,jb->ijb", a[1:, 0], a[0, 1:], out=t)
        sub -= t
        sub /= np.repeat(divisor[None], m, axis=0)
        divisor = np.where(pivot == 0.0, 1.0, pivot)
        a = sub
    return a, sign, pivot


def _determinants_mod(stack: np.ndarray, primes: Sequence[int]) -> Iterator[list[int]]:
    """For each prime p, det mod p in [0, p) of every matrix of an (n, n, b) integer stack.

    Division-free elimination: row_i <- p_k row_i - a_ik row_k multiplies
    det by p_k once for each of the n - 1 - k rows below pivot k, so
    det = sign * prod p_k / prod p_k^(n-1-k) = sign * P_{n-1} / (P_0 ... P_{n-2})
    with P_k = p_0 ... p_k. The entries (integers below 2**51 in absolute
    value), and each update, are reduced to x - p floor(x * (1/p)); that float
    quotient is off by less than 1, so the result lies in [-p, 2p). Step k
    writes the trailing block to a contiguous (m, m, b) buffer, two taking
    turns, so that every full-size step runs on contiguous operands of one
    shape. They and one temporary serve every prime.
    """
    n, _, b = stack.shape
    first, (second, tmp) = np.empty(stack.size), np.empty((2, (n - 1) ** 2 * b))
    for p in primes:
        inv = 1.0 / p
        a = first.reshape(stack.shape)  # at step k: rows and columns k to n - 1
        np.floor(np.multiply(stack, inv, out=a), out=a)
        a *= -p
        a += stack
        prefix = np.ones(b)  # P_k
        denom = np.ones(b)   # P_0 ... P_{k-1}
        sign = np.ones(b, dtype=np.int64)
        for k in range(n):
            _swap_in_pivots(a, (a[:, 0] != 0.0) & (np.abs(a[:, 0]) != p), sign)
            pivot = a[0, 0]  # 0 mod p when the column is: then so is det
            prefix = prefix * pivot
            prefix -= p * np.floor(prefix * inv)
            if k == n - 1:
                break
            denom = denom * prefix
            denom -= p * np.floor(denom * inv)
            m = n - 1 - k
            sub = (first if k % 2 else second)[: m * m * b].reshape(m, m, b)
            t = tmp[: m * m * b].reshape(m, m, b)
            np.multiply(a[1:, 1:], np.repeat(pivot[None], m, axis=0), out=sub)
            np.einsum("ib,jb->ijb", a[1:, 0], a[0, 1:], out=t)
            sub -= t
            np.multiply(sub, inv, out=t)
            np.floor(t, out=t)
            t *= p
            sub -= t
            a = sub
        # a denominator of 0 mod p only comes with a numerator of 0 mod p, and
        # has no inverse: pow(0, -1, p) raises
        yield [s * num * (pow(den, -1, p) if den % p else 0) % p
               for s, num, den in zip(sign.tolist(), prefix.astype(np.int64).tolist(),
                                      denom.astype(np.int64).tolist())]


def _stack_determinants(stack: np.ndarray) -> list[int]:
    """Exact determinants of an (n, n, b) 0/1 stack, batch last.

    Below 20 vertices the float64 Bareiss steps leave a 1 x 1 block, sign * det,
    and no prime runs. From 20 on, the trailing (n - 18)^2 block is eliminated
    modulo as many primes as Hadamard's bound on the original rows needs; each
    residue is divided by the 18th pivot to the power n - 19 (Sylvester), and
    the Chinese remainder theorem joins them into the symmetric residue.
    """
    block, sign, pivot = _bareiss_steps(stack, min(len(stack) - 1, _EXACT_STEPS))
    m = len(block)
    if m == 1:
        return (sign * block[0, 0].astype(np.int64)).tolist()
    primes = _primes_for(stack.sum(axis=0))
    modulus = math.prod(primes)
    signs, pivots = sign.tolist(), pivot.astype(np.int64).tolist()
    total = [0] * len(signs)
    for p, residues in zip(primes, _determinants_mod(block, primes)):
        cofactor = modulus // p
        basis = cofactor * pow(cofactor, -1, p)  # 1 mod p, 0 mod the others
        # det = sign det(block) / P^(m - 1); a pivot of 0 leaves a residue of 0
        total = [t + s * r * pow(q or 1, 1 - m, p) * basis
                 for t, s, r, q in zip(total, signs, residues, pivots)]
    return [t - modulus if 2 * t > modulus else t for t in (t % modulus for t in total)]


def determinants_exact(graphs: Sequence[Graph]) -> list[int]:
    """Exact adjacency determinants of many graphs at once (grouped by vertex count)."""
    out = [0] * len(graphs)
    for indices, stack in _stacks_by_n(graphs, np.uint8):
        for idx, det in zip(indices, _stack_determinants(stack)):
            out[idx] = det
    return out


def determinant_exact(g: Graph) -> int:
    """Exact adjacency determinant of one graph."""
    return determinants_exact([g])[0]


def integer_rank(g: Graph) -> int:
    """Exact adjacency rank by division-free integer row echelon.

    Rows are rescaled by their gcd after each elimination step to keep the
    integers small; no inexact division ever happens.
    """
    n = g.n
    rows = adjacency_stack(n, [g.adj])[0].tolist()
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), -1)
        if pivot < 0:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for r in range(rank + 1, n):
            f = rows[r][col]
            if f == 0:
                continue
            new = [rows[r][j] * p - f * prow[j] for j in range(n)]
            shrink = math.gcd(*new)
            if shrink > 1:
                new = [v // shrink for v in new]
            rows[r] = new
        rank += 1
    return rank
