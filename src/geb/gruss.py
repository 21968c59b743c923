"""Chebyshev-functional inequalities and the energy product chain.

For two real vectors x, y of common length k, the Chebyshev functional

    T(x, y) = (1/k) * sum(x_i * y_i) - mean(x) * mean(y)

is bounded in magnitude by a quarter of the product of the ranges of x and y
(``gruss_bound``), and more tightly by a geometric mean of how far each mean
sits from its own bounds (``dragomir_bound``).

``energy_chain`` instantiates this with x = sorted absolute eigenvalues and
y = energy - x, which turns the machinery into a lower bound on the pairwise
product sum P = sum_{i != j} |l_i| |l_j|. This module is the library API and
the tests' reference; the verifier checks P >= P_lower without the vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    EmptyGraph,
    EmptyVector,
    InvariantViolation,
    LengthMismatch,
    NegativeFactor,
    ZeroRank,
)
from .spectral import SpectralStats, Spectrum

_BOUND_SLACK = 1e-12
_CHAIN_TOL = 1e-9


@dataclass(frozen=True)
class BoundedVector:
    """A vector together with certified entrywise bounds.

    Omitted bounds default to the exact min/max of the entries. Supplied
    bounds may undershoot/overshoot the entries by at most 1e-12, which
    absorbs round-off when bounds come from a separately computed quantity.
    """

    values: tuple[float, ...]
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        if not self.values:
            raise EmptyVector("a bounded vector needs at least one entry")
        lo = min(self.values)
        hi = max(self.values)
        if self.lower is None:
            object.__setattr__(self, "lower", lo)
        elif self.lower > lo + _BOUND_SLACK:
            raise ValueError(f"lower bound {self.lower} exceeds smallest entry {lo}")
        if self.upper is None:
            object.__setattr__(self, "upper", hi)
        elif self.upper < hi - _BOUND_SLACK:
            raise ValueError(f"upper bound {self.upper} is below largest entry {hi}")

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)


def _entries(v: "BoundedVector | Sequence[float]") -> Sequence[float]:
    return v.values if isinstance(v, BoundedVector) else v


def chebyshev_functional(
    x: "BoundedVector | Sequence[float]",
    y: "BoundedVector | Sequence[float]",
) -> float:
    """T(x, y): mean of products minus product of means."""
    xs = _entries(x)
    ys = _entries(y)
    if len(xs) != len(ys):
        raise LengthMismatch(f"vector lengths differ: {len(xs)} vs {len(ys)}")
    if not len(xs):
        raise EmptyVector("Chebyshev functional of empty vectors")
    k = len(xs)
    dot = sum(a * b for a, b in zip(xs, ys))
    return dot / k - (sum(xs) / k) * (sum(ys) / k)


def gruss_bound(x: BoundedVector, y: BoundedVector) -> float:
    """Range-product bound: |T(x, y)| <= (upper-lower)(= ranges)/4."""
    return 0.25 * (x.upper - x.lower) * (y.upper - y.lower)


def dragomir_bound(x: BoundedVector, y: BoundedVector) -> float:
    """Mean-gap refinement of the range bound; never exceeds it.

    Each factor like (upper - mean) is nonnegative by construction; tiny
    negative values from round-off (within 1e-12) are clamped to zero, and
    anything more negative is treated as a corrupted input.
    """
    factors = [
        x.upper - x.mean,
        x.mean - x.lower,
        y.upper - y.mean,
        y.mean - y.lower,
    ]
    prod = 1.0
    for f in factors:
        if f < -_BOUND_SLACK:
            raise NegativeFactor(f"bound-to-mean gap {f} is negative beyond round-off")
        prod *= max(f, 0.0)
    return prod ** 0.5


@dataclass(frozen=True)
class EnergyChain:
    """The product-sum chain for one spectrum.

    P is the exact pairwise product sum; P_lower is the closed-form lower
    bound built from the extreme absolute eigenvalues; gruss_rhs is the
    sharpened functional bound evaluated on the x/y vectors, which for this
    particular pair collapses to (lambda1 - E/k)(E/k - t).
    """

    P: float
    gruss_rhs: float
    P_lower: float
    x: BoundedVector
    y: BoundedVector


def energy_chain(
    spec: Spectrum,
    stats: SpectralStats,
    restrict_to_nonzero: bool = False,
) -> EnergyChain:
    """Build the pairwise-product chain from a spectrum and its stats.

    x holds the absolute eigenvalues (descending) with certified bounds
    [t, lambda1]; y = E - x with bounds [E - lambda1, E - t]. The x mean is
    E/k by construction. With ``restrict_to_nonzero`` both vectors keep only
    the first ``stats.rank`` absolute values, the ones above the zero
    threshold: k becomes the rank, and t becomes the least nonzero absolute
    eigenvalue, which tightens everything on singular graphs.
    """
    energy = stats.energy
    if energy <= stats.zero_tol:
        raise EmptyGraph("the energy chain needs at least one edge")

    absvals = sorted((abs(v) for v in spec.values), reverse=True)
    if restrict_to_nonzero:
        if not stats.rank:
            raise ZeroRank("no eigenvalues above the zero threshold")
        absvals = absvals[:stats.rank]
        small = stats.t_nz
    else:
        small = stats.t
    k = len(absvals)
    lam = stats.lambda1

    x = BoundedVector(tuple(absvals), lower=small, upper=lam)
    y = BoundedVector(
        tuple(energy - v for v in absvals),
        lower=energy - lam,
        upper=energy - small,
    )
    P = sum(a * (energy - a) for a in absvals)
    P_lower = energy * energy + k * lam * small - (lam + small) * energy
    if P < P_lower - _CHAIN_TOL:
        raise InvariantViolation(
            f"product sum {P} fell below its lower bound {P_lower}"
        )
    return EnergyChain(
        P=P,
        gruss_rhs=dragomir_bound(x, y),
        P_lower=P_lower,
        x=x,
        y=y,
    )
