"""Adjacency eigenvalues, derived spectral scalars, and exact integer checks.

Two in-house eigensolvers take a whole stack of same-size symmetric
matrices at once, and ``eigenvalues_batch`` picks one by vertex count:

- n <= 10: a cyclic Jacobi iteration. Every rotation index (p, q) is applied
  across the batch with per-matrix angles. A matrix leaves the stack in the
  first sweep where its own off-diagonal Frobenius norm is below 1e-12 * n,
  comfortably past the 1e-9 accuracy the downstream bound comparisons
  assume. The golden transcripts pin its last-bit slacks, all at n <= 10.
- n > 10: Householder reduction to tridiagonal form, then bisection of every
  eigenvalue of the batch at once on Sturm counts (Barth, Martin & Wilkinson
  1967). A Jacobi sweep is n(n-1)/2 numpy steps; this path takes n - 2
  reflections and about 53 bisection steps of n numpy steps each.

Either way a matrix's eigenvalues do not depend on which other matrices
share its batch. ``spectral_columns`` derives the SpectralStats of many
spectra at once, as numpy columns; ``spectral_stats`` is its row 0.

Exact companions: ``determinants_exact`` takes a whole stack too. It
eliminates it modulo one prime below 2**24 at a time, in float64 with every
product exact, and joins the residues by the Chinese remainder theorem (von
zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5); ``integer_rank``
runs a division-free row echelon over Python ints. Both cross-check the
floating spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConvergenceFailure
from .graphs import Graph, adjacency_stack

DEFAULT_ZERO_TOL = 1e-8

_OFF_NORM_FACTOR = 1e-12
_MAX_SWEEPS = 60
_JACOBI_MAX_N = 10  # the golden transcripts pin Jacobi's last bits, all at n <= 10


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


def _jacobi_eigenvalues_stack(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (b, n, n) stack of symmetric matrices, unsorted."""
    b, n, _ = a.shape
    if n == 1:
        return a[:, :, 0].copy()
    out = np.empty((b, n))
    active = np.arange(b)  # stack rows of the matrices still being rotated
    threshold = (_OFF_NORM_FACTOR * n) ** 2
    diag_idx = np.arange(n)
    for _ in range(_MAX_SWEEPS):
        sq = a * a
        sq[:, diag_idx, diag_idx] = 0.0
        done = sq.sum(axis=(1, 2)) < threshold
        out[active[done]] = np.diagonal(a[done], axis1=1, axis2=2)
        a, active = a[~done], active[~done]
        if not len(active):
            return out
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[:, p, q]
                nz = apq != 0.0
                if not nz.any():
                    continue
                denom = np.where(nz, 2.0 * apq, 1.0)
                with np.errstate(over="ignore"):
                    theta = (a[:, q, q] - a[:, p, p]) / denom
                    sign = np.where(theta < 0.0, -1.0, 1.0)
                    t = sign / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                t = np.where(nz, t, 0.0)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                cc = c[:, None]
                ss = s[:, None]
                rp = a[:, p, :].copy()
                rq = a[:, q, :].copy()
                a[:, p, :] = cc * rp - ss * rq
                a[:, q, :] = ss * rp + cc * rq
                cp = a[:, :, p].copy()
                cq = a[:, :, q].copy()
                a[:, :, p] = cc * cp - ss * cq
                a[:, :, q] = ss * cp + cc * cq
    raise ConvergenceFailure(f"Jacobi did not reach tolerance in {_MAX_SWEEPS} sweeps")


def _tridiagonal_eigenvalues_stack(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (b, n, n) stack of symmetric matrices, unsorted.

    Modifies ``a``. Householder reflections reduce each matrix to tridiagonal
    form (diagonal d, off-diagonal e); then all b*n eigenvalues are bisected
    together on LDL^T Sturm counts, as LAPACK ``dstebz`` does.
    """
    n = a.shape[1]
    for k in range(n - 2):
        x = a[:, k + 1 :, k]
        # v is built from x scaled to max |x_i| = 1: columns of rounding
        # noise (1e-16, then 1e-32, ...) would otherwise underflow v.v
        scale = np.abs(x).max(axis=1)
        v = x / np.where(scale > 0.0, scale, 1.0)[:, None]
        tail = (v[:, 1:] * v[:, 1:]).sum(axis=1)
        reflect = tail > 0.0  # else column k is already tridiagonal
        alpha = -np.copysign(np.sqrt(v[:, 0] * v[:, 0] + tail), v[:, 0])
        v[:, 0] -= alpha
        vv = np.maximum((v * v).sum(axis=1), 1.0)  # v.v >= 1 whenever reflect
        tau = np.where(reflect, 2.0 / vv, 0.0)
        a[:, k + 1, k] = np.where(reflect, alpha * scale, x[:, 0])
        # A22 <- H A22 H with H = I - tau v v^T, as a rank-2 update; the
        # matvec is a product and a last-axis sum so that each matrix's
        # arithmetic is the same in any batch
        a22 = a[:, k + 1 :, k + 1 :]
        p = tau[:, None] * (a22 * v[:, None, :]).sum(axis=2)
        w = p - (0.5 * tau * (p * v).sum(axis=1))[:, None] * v
        a22 -= v[:, :, None] * w[:, None, :] + w[:, :, None] * v[:, None, :]
    idx = np.arange(n)
    d = a[:, idx, idx]
    e2 = np.zeros_like(d)  # e2[:, i] = e_{i-1}^2, with e_{-1} = 0
    e2[:, 1:] = a[:, idx[1:], idx[:-1]] ** 2
    # Gershgorin: every eigenvalue lies in [-r, r]; an edgeless graph has r = 0
    r = np.abs(d).max(axis=1) + 2.0 * np.sqrt(e2.max(axis=1))
    pivmin = np.finfo(float).tiny * np.maximum(1.0, e2.max(axis=1))[:, None]
    tol = (np.finfo(float).eps * np.maximum(1.0, r))[:, None]
    hi = np.repeat(r[:, None], n, axis=1)
    lo = -hi
    active = hi - lo > tol
    while active.any():
        mid = 0.5 * (lo + hi)
        q = np.ones_like(mid)
        count = np.zeros(mid.shape, dtype=np.intp)  # eigenvalues below mid
        for i in range(n):
            q = d[:, i : i + 1] - mid - e2[:, i : i + 1] / q
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            count += q < 0.0
        # column j holds the eigenvalue with j others below it; converged
        # intervals stay frozen, so no result depends on its batch
        upper = active & (count > idx)
        hi = np.where(upper, mid, hi)
        lo = np.where(active & ~upper, mid, lo)
        active = hi - lo > tol
    return 0.5 * (lo + hi)


def group_by_n(sizes: Sequence[int] | np.ndarray) -> dict[int, list[int]]:
    """The indices of a batch's vertex counts, grouped by count."""
    sizes = np.asarray(sizes, dtype=np.int64)  # not np.unique: it imports numpy.ma on first use
    return {n: np.flatnonzero(sizes == n).tolist() for n in dict.fromkeys(sizes.tolist())}


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
    for n, indices in group_by_n([g.n for g in graphs]).items():
        stack = adjacency_stack(n, [graphs[i].adj for i in indices]).astype(float)
        solve = _jacobi_eigenvalues_stack if n <= _JACOBI_MAX_N else _tridiagonal_eigenvalues_stack
        diags = -np.sort(-solve(stack), axis=1)
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


def _primes_for(n: int) -> tuple[int, ...]:
    """The fewest leading primes whose product exceeds 2 (n-1)^(n/2).

    (n-1)^(n/2) is Hadamard's bound on |det| for n rows of at most n - 1
    ones, so the product of the primes pins a symmetric residue to det.
    """
    bound = 4 * (n - 1) ** n  # both sides squared
    k = next(k for k in range(len(_PRIMES) + 1) if math.prod(_PRIMES[:k]) ** 2 > bound)
    return _PRIMES[:k]


def _determinants_mod(stack: np.ndarray, primes: Sequence[int]) -> Iterator[list[int]]:
    """For each prime p, det mod p in [0, p) of every matrix of an (n, n, b) 0/1 stack.

    Division-free elimination: row_i <- p_k row_i - a_ik row_k multiplies
    det by p_k once for each of the n - 1 - k rows below pivot k, so
    det = sign * prod p_k / prod p_k^(n-1-k) = sign * P_{n-1} / (P_0 ... P_{n-2})
    with P_k = p_0 ... p_k. After each update every entry x is reduced to
    x - p floor(x * (1/p)); that float quotient is off by less than 1, so the
    result lies in [-p, 2p). One working stack and one temporary of its size
    serve every prime.
    """
    n, _, b = stack.shape
    a = np.empty(stack.shape)
    tmp = np.empty(stack.size)
    cols = np.arange(b)
    for p in primes:
        inv = 1.0 / p
        a[...] = stack
        prefix = np.ones(b)  # P_k
        denom = np.ones(b)   # P_0 ... P_{k-1}
        sign = np.ones(b, dtype=np.int64)
        for k in range(n):
            col = a[k:, k]
            nonzero = (col != 0.0) & (np.abs(col) != p)
            below = nonzero.argmax(axis=0)  # 0 (no swap) when the column is 0 mod p
            swap = below > 0
            if swap.any():
                rows, which = below[swap] + k, cols[swap]
                top = a[k, :, which]
                a[k, :, which] = a[rows, :, which]
                a[rows, :, which] = top
                sign[swap] = -sign[swap]
            pivot = a[k, k]  # 0 mod p when the column is: then so is det
            prefix = prefix * pivot
            prefix -= p * np.floor(prefix * inv)
            if k == n - 1:
                break
            denom = denom * prefix
            denom -= p * np.floor(denom * inv)
            m = n - 1 - k
            sub, t = a[k + 1 :, k + 1 :], tmp[: m * m * b].reshape(m, m, b)
            sub *= pivot
            np.multiply(a[k + 1 :, k, None], a[None, k, k + 1 :], out=t)
            sub -= t
            np.multiply(sub, inv, out=t)
            np.floor(t, out=t)
            t *= p
            sub -= t
        # Fermat's inverse; a zero denominator only comes with a zero numerator
        yield [s * num * pow(den, p - 2, p) % p
               for s, num, den in zip(sign.tolist(), prefix.astype(np.int64).tolist(),
                                      denom.astype(np.int64).tolist())]


def determinants_exact(graphs: Sequence[Graph]) -> list[int]:
    """Exact adjacency determinants of many graphs at once (grouped by vertex count).

    Each group's stack is eliminated modulo one prime at a time, with as many
    primes as Hadamard's bound needs, and the residues are joined by the
    Chinese remainder theorem into the symmetric residue.
    """
    out = [0] * len(graphs)
    for n, indices in group_by_n([g.n for g in graphs]).items():
        primes = _primes_for(n)
        modulus = math.prod(primes)
        # batch last, so that every row operation runs over contiguous memory
        stack = np.ascontiguousarray(
            adjacency_stack(n, [graphs[i].adj for i in indices]).transpose(1, 2, 0))
        total = [0] * len(indices)
        for p, residues in zip(primes, _determinants_mod(stack, primes)):
            cofactor = modulus // p
            basis = cofactor * pow(cofactor, -1, p)  # 1 mod p, 0 mod the others
            total = [t + r * basis for t, r in zip(total, residues)]
        for idx, t in zip(indices, total):
            t %= modulus
            out[idx] = t - modulus if 2 * t > modulus else t
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
