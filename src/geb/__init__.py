"""Graph energy bounds: spectra, inequalities, and exhaustive verification.

The public surface mirrors the module layout:

- :mod:`geb.graphs` — bitset graphs, fixture families, predicates
- :mod:`geb.graph6` — graph6 parsing/writing and corpus streaming
- :mod:`geb.enumeration` — canonical forms and exhaustive generation
- :mod:`geb.spectral` — eigenvalues, spectral scalars, exact integer checks
- :mod:`geb.gruss` — Chebyshev-functional bounds and the energy chain
- :mod:`geb.bounds` — every energy bound plus the per-graph report
- :mod:`geb.harness` — corpus drivers behind the CLI
"""

from .bounds import (
    BoundReport,
    amgm_lower,
    bound_report,
    caporossi_lower,
    conj1_lower,
    conj2_upper,
    cor_nice_lower,
    irregularity,
    main_lower,
    mcclelland_lower,
    mcclelland_upper,
    rank_lower,
)
from .enumeration import CanonicalForm, canonical_form, enumerate_connected, enumerate_graphs
from .errors import GebError
from .graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    degree_sequence,
    from_edge_list,
    is_connected,
    is_regular,
    is_triangle_free,
    path,
    petersen,
    triangle_count,
)
from .graph6 import parse_graph6, stream_corpus, write_graph6
from .gruss import (
    BoundedVector,
    EnergyChain,
    chebyshev_functional,
    dragomir_bound,
    energy_chain,
    gruss_bound,
)
from .harness import (
    CorpusSummary,
    EqualityHit,
    Extreme,
    Violation,
    run_conjectures,
    run_equality,
    run_verify,
)
from .spectral import (
    DEFAULT_ZERO_TOL,
    SpectralStats,
    Spectrum,
    determinant_exact,
    determinants_exact,
    eigenvalues,
    eigenvalues_batch,
    integer_rank,
    spectral_stats,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundedVector",
    "CanonicalForm",
    "CorpusSummary",
    "DEFAULT_ZERO_TOL",
    "EnergyChain",
    "EqualityHit",
    "Extreme",
    "GebError",
    "Graph",
    "SpectralStats",
    "Spectrum",
    "Violation",
    "amgm_lower",
    "bound_report",
    "canonical_form",
    "caporossi_lower",
    "chebyshev_functional",
    "complete",
    "complete_bipartite",
    "conj1_lower",
    "conj2_upper",
    "cor_nice_lower",
    "cycle",
    "degree_sequence",
    "determinant_exact",
    "determinants_exact",
    "dragomir_bound",
    "eigenvalues",
    "eigenvalues_batch",
    "energy_chain",
    "enumerate_connected",
    "enumerate_graphs",
    "from_edge_list",
    "gruss_bound",
    "integer_rank",
    "irregularity",
    "is_connected",
    "is_regular",
    "is_triangle_free",
    "main_lower",
    "mcclelland_lower",
    "mcclelland_upper",
    "parse_graph6",
    "path",
    "petersen",
    "rank_lower",
    "run_conjectures",
    "run_equality",
    "run_verify",
    "spectral_stats",
    "stream_corpus",
    "triangle_count",
    "write_graph6",
]
