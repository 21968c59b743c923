"""Adjacency eigenvalues, derived spectral scalars, and exact integer checks.

Everything here runs on the stacks of same-size 0/1 matrices that
``graphs.stacks_by_n`` yields, one per vertex count. The eigensolver reduces a
stack to tridiagonal form by Householder reflections, then bisects all its
eigenvalues together on Sturm counts (Barth, Martin & Wilkinson 1967), batch
last so that each numpy step runs along the batch, in numpy's pairwise
summation order. It always terminates, and no eigenvalue depends on the
batch. ``spectra_of_stacks`` returns a zero-padded (b, n_max) array of
descending values and an energy column; ``spectral_columns`` derives the
SpectralStats fields from them as columns. ``eigenvalues_batch`` and
``spectral_stats`` wrap both for Graphs and Spectrum objects.

Every float64 working buffer of the solver and of the determinants starts on
a 64-byte cache line (``_aligned_planes``). numpy leaves that to the
allocator: with glibc 2.36 on x86-64 Linux, its buffers of 8 KB and up
started 16 bytes past a line. With every buffer 16, 32 or 48 bytes past a
line, a verify, conjectures and equality pass over connected8 ran 12-16%
slower there than on the line, most of it in the bisection.

``determinants_of_stacks`` reads the same stacks: fraction-free elimination
(Bareiss 1968) in float64 while a bound on the entries proves each step
exact, then modulo primes below 2**24, as few as the 0/1 determinant bound
allows, joined by the Chinese remainder theorem (von zur Gathen & Gerhard,
*Modern Computer Algebra*, ch. 5). ``integer_rank``, a division-free row
echelon over Python ints, is called by tests only, against the float rank.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import MAX_VERTICES, Graph, adjacency_stack, stacks_by_n

DEFAULT_ZERO_TOL = 1e-8
_COUNT = np.min_scalar_type(MAX_VERTICES)  # the bisection's Sturm counts, 0..n


class Spectrum(NamedTuple):
    """All adjacency eigenvalues, sorted descending, plus their energy."""

    values: tuple[float, ...]
    energy: float

    @property
    def n(self) -> int:
        return len(self.values)


class SpectralStats(NamedTuple):
    """The scalars every bound and the Grüss chain read, derived once per Spectrum."""

    energy: float            # the Spectrum's energy
    lambda1: float
    t: float                 # min |eigenvalue|, exactly 0.0 when rank < n
    t_nz: float | None       # min |eigenvalue| above zero_tol, None if rank 0
    rank: int                # count of |eigenvalue| > zero_tol
    zero_tol: float          # the threshold that decided rank, t and t_nz


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


def _aligned_planes(count: int, shape: tuple[int, ...]) -> np.ndarray:
    """``count`` float64 arrays of one shape, as one (count, *shape) view of one buffer.

    Each plane starts on a 64-byte cache line, which numpy's own buffers
    need not (see the module docstring); each plane's elements are contiguous.
    """
    size = math.prod(shape)
    pitch = -(-size // 8) * 8  # elements per plane, whole lines
    raw = np.empty(count * pitch + 7)
    start = -raw.ctypes.data // 8 % 8
    return raw[start : start + count * pitch].reshape(count, pitch)[:, :size].reshape(count, *shape)


def _reduce_to_tridiagonal(a: np.ndarray) -> None:
    """Householder-reduce each matrix of an (n, n, b) symmetric stack in place.

    The diagonal d and subdiagonal e are left in ``a``; the rest of the lower
    triangle is workspace. Every reflection runs on (m, b) and (m, m, b)
    operands. Each sum is ``_pairwise_sum``, which rounds as ``np.sum`` along
    a contiguous row does, so each matrix's arithmetic is that of a loop with
    the batch first. The trailing block stays exactly symmetric (each update
    adds v_i w_j + w_i v_j, the same float as entry (j, i)), so the matvec
    sums over its rows. The two work buffers, each on a 64-byte line, are
    freed on return, before the bisection allocates its own.
    """
    n, _, b = a.shape
    work = _aligned_planes(2, ((n - 1) ** 2 * b,))
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
    select on the int64 bits of both ends, held as one (2, n, b) view, moves
    them. The select's bits reuse the row loop's q and t, which are free then.
    Every float64 (n, b) buffer of the bisection is a plane of one block and
    starts on a 64-byte cache line; numpy's own buffers need not, and an
    offset costs the row loop (see the module docstring).
    """
    n, _, b = a.shape
    _reduce_to_tridiagonal(a)
    idx = np.arange(n)
    # no row step broadcasts: row i of d and e2 is repeated over the n
    # intervals as an (n, b) plane, and so is each per-matrix scalar
    planes = _aligned_planes(2 * n + 8, (n, b))
    rows = planes[: 2 * n]
    ends = planes[2 * n : 2 * n + 2]  # lo and hi of every interval
    scratch = planes[2 * n + 2 : 2 * n + 4]  # q and t in the row loop, the blend's bits after it
    mid, pivmin, clamp, tol = planes[2 * n + 4 :]
    lo, hi = ends
    q, t = scratch
    d = a.diagonal(0, 0, 1).T  # (n, b) views of a's tridiagonal form
    e = a.diagonal(-1, 0, 1).T
    rows[:n] = d[:, None]
    rows[n] = 0.0  # e2[i] = e_{i-1}^2, with e_{-1} = 0
    np.square(e[:, None], out=rows[n + 1 :])
    e2max = rows[n:, 0].max(axis=0)
    # Gershgorin: every eigenvalue lies in [-r, r]; an edgeless graph has r = 0
    r = np.abs(d).max(axis=0) + 2.0 * np.sqrt(e2max)
    hi[...] = r
    np.negative(hi, out=lo)
    pivmin[...] = np.finfo(float).tiny * np.maximum(1.0, e2max)
    np.negative(pivmin, out=clamp)  # what a q with |q| < pivmin becomes
    tol[...] = np.finfo(float).eps * np.maximum(1.0, r)
    # as lists of (n, b) rows: a list index costs less than an array index
    d, e2 = list(rows[:n]), list(rows[n:])
    rank = np.broadcast_to(idx[:, None], hi.shape).astype(_COUNT)
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


def sequential_sum(x: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array, added left to right as Python's ``sum`` adds.

    ``np.sum`` adds pairwise, which differs in the last bit from 8 terms on.
    """
    return np.cumsum(x, axis=1)[:, -1] if x.shape[1] else np.zeros(len(x))


def spectra_of_stacks(stacks: Iterable[tuple], b: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and energies of b graphs, given as ``graphs.stacks_by_n`` groups.

    Row i of the (b, n_max) values holds graph i's eigenvalues, descending,
    then zeros. The energy adds the absolute eigenvalues largest first. Each
    group is one kernel call, on a batch-last float copy of its stack; ``map``
    keeps no stack, so one that only ``stacks`` yielded is freed before it.
    """
    solved = [(rows, -np.sort(-_tridiagonal_eigenvalues_stack(a), axis=1))
              for rows, a in map(_float_batch_last, stacks)]
    values = np.zeros((b, max((diags.shape[1] for _, diags in solved), default=1)))
    energy = np.zeros(b)
    for rows, diags in solved:
        values[rows, : diags.shape[1]] = diags
        energy[rows] = sequential_sum(-np.sort(-np.abs(diags), axis=1))
    return values, energy


def _float_batch_last(group: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    rows, stack = group
    a = _aligned_planes(1, stack.shape[1:] + stack.shape[:1])[0]
    a[...] = stack.transpose(1, 2, 0)
    return rows, a


def eigenvalues_batch(graphs: Sequence[Graph]) -> list[Spectrum]:
    """Spectra for many graphs at once (grouped internally by vertex count)."""
    stacks = stacks_by_n([g.n for g in graphs], [g.adj for g in graphs])
    values, energy = spectra_of_stacks(stacks, len(graphs))
    return [Spectrum(tuple(row[: g.n]), e)
            for g, row, e in zip(graphs, values.tolist(), energy.tolist())]


def eigenvalues(g: Graph) -> Spectrum:
    """All eigenvalues of the 0/1 adjacency matrix, sorted descending."""
    return eigenvalues_batch([g])[0]


def spectral_columns(values: np.ndarray, energy: np.ndarray, sizes: np.ndarray,
                     zero_tol: float = DEFAULT_ZERO_TOL) -> dict[str, np.ndarray]:
    """Each SpectralStats field but zero_tol, as a column, of ``spectra_of_stacks`` arrays.

    ``sizes`` holds each row's vertex count; t_nz is nan where the rank is 0."""
    if not zero_tol > 0:  # also refuses NaN
        raise ValueError("zero_tol must be positive")
    mags = np.abs(values)
    nonzero = mags > zero_tol
    rank = nonzero.sum(axis=1)
    t_nz = np.where(nonzero, mags, np.inf).min(axis=1)
    t_nz[rank == 0] = np.nan
    t = np.where(rank == sizes, t_nz, 0.0)  # on singular spectra min abs is noise
    return {"energy": energy, "lambda1": values[:, 0], "t": t, "t_nz": t_nz, "rank": rank}


def spectral_stats(spec: Spectrum, zero_tol: float = DEFAULT_ZERO_TOL) -> SpectralStats:
    """Extract E, lambda_1, t, t_nz and the numerical rank: row 0 of ``spectral_columns``."""
    columns = spectral_columns(np.array([spec.values]), np.array([spec.energy]), spec.n, zero_tol)
    row = {name: col.tolist()[0] for name, col in columns.items()}
    if not row["rank"]:
        row["t_nz"] = None
    return SpectralStats(**row, zero_tol=zero_tol)


# Primes below 2**24, largest first. With entries below 2p in absolute value,
# an update p_k * x - a * y stays below 8p**2 < 2**51: exact in float64.
_PRIMES = (16777213, 16777199, 16777183, 16777153, 16777141, 16777139, 16777127, 16777121)

# Bareiss steps that run in float64 unchecked: after s steps every entry is a 0/1
# (s + 1)-minor, at most M_(s+1) = (s + 2)^((s + 2)/2) / 2^(s+1) (Brenner & Cummings
# 1972), so each numerator is below 2 M_18^2 < 2**46, each pivot below M_18 < 2**22.4.
_UNCHECKED_STEPS = 18


def _primes_for(sq_norms: np.ndarray) -> tuple[int, ...]:
    """The fewest leading primes whose product exceeds 2 min(prod_i |row_i|, M_n) for every matrix.

    ``sq_norms`` holds the row sums (squared row norms) of b 0/1 matrices as an
    (n, b) array; M_n holds for 0/1 matrices only. 1 + 2^-40 covers rounding.
    """
    n, hadamard = len(sq_norms), np.prod(sq_norms, axis=0, dtype=float).max()
    bound = 4 * min(hadamard, (n + 1) ** (n + 1) / 4**n) * (1 + 2**-40)  # both sides squared
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


def _bareiss_steps(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bareiss steps on an (n, n, b) 0/1 stack in float64, while each is exact.

    Step k swaps a nonzero pivot P into row 0 of the trailing block and replaces
    the rest, S with column c and row r, by (P S - c r^T) / previous pivot, in
    buffers laid out as in ``_determinants_mod``. After ``_UNCHECKED_STEPS`` a
    step needs N = |P| B + max|c| max|r| < 2**52 on every matrix, B bounding
    the entries (their largest |entry|, then N / |previous pivot|): then each
    numerator and quotient (Sylvester) is an exact integer, with room for N's
    rounding. Unless it leaves a 1 x 1 block, each |P| must also be below the
    primes, to stay invertible. Returns the block left, each matrix's row-swap
    sign and last pivot P: det(block) = sign * det * P^(m - 1), 0 after a zero pivot.
    """
    n, _, b = stack.shape
    first = _aligned_planes(1, (stack.size,))[0]
    second, tmp = _aligned_planes(2, ((n - 1) ** 2 * b,))
    a = first.reshape(stack.shape)
    a[...] = stack
    sign = np.ones(b, dtype=np.int64)
    pivot = divisor = np.ones(b)
    for k in range(n - 1):
        _swap_in_pivots(a, a[:, 0] != 0.0, sign)
        m = n - 1 - k
        if k >= _UNCHECKED_STEPS:
            if k == _UNCHECKED_STEPS:  # two reductions, no temporary of the block's size
                bound = np.maximum(a.max(axis=(0, 1)), -a.min(axis=(0, 1)))
            head = np.abs(a[0, 0])
            numer = head * bound + np.abs(a[1:, 0]).max(axis=0) * np.abs(a[0, 1:]).max(axis=0)
            if numer.max() >= 2.0**52 or (m > 1 and head.max() >= min(_PRIMES)):
                break
            bound = numer / np.abs(divisor)
        pivot = a[0, 0].copy()  # a's buffer is overwritten by this step
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
    with P_k = p_0 ... p_k. The entries (integers of at most 2**52 in absolute
    value), and each update, are reduced to x - p floor(x * (1/p)); that float
    quotient is off by less than 1, so the result lies in [-p, 2p). Step k
    writes the trailing block to a contiguous (m, m, b) buffer, two taking
    turns, so that every full-size step runs on contiguous operands of one
    shape. They and one temporary serve every prime.
    """
    n, _, b = stack.shape
    first = _aligned_planes(1, (stack.size,))[0]
    second, tmp = _aligned_planes(2, ((n - 1) ** 2 * b,))
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
    """Exact determinants of an (n, n, b) 0/1 stack, batch last (a view will do).

    Where ``_bareiss_steps`` reaches a 1 x 1 block, sign * det, no prime runs.
    Otherwise the block left is eliminated modulo the primes ``_primes_for``
    picks for the original rows; each residue is divided by the last pivot to
    the power m - 1 (Sylvester), and the Chinese remainder theorem joins them.
    """
    block, sign, pivot = _bareiss_steps(stack)
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


def determinants_of_stacks(stacks: Sequence[tuple[np.ndarray, np.ndarray]], b: int) -> list[int]:
    """Exact adjacency determinants of b graphs, given as ``graphs.stacks_by_n`` groups."""
    out = [0] * b
    for rows, stack in stacks:
        for i, det in zip(rows.tolist(), _stack_determinants(stack.transpose(1, 2, 0))):
            out[i] = det
    return out


def determinants_exact(graphs: Sequence[Graph]) -> list[int]:
    """Exact adjacency determinants of many graphs at once (grouped by vertex count)."""
    stacks = stacks_by_n([g.n for g in graphs], [g.adj for g in graphs])
    return determinants_of_stacks(stacks, len(graphs))


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
