"""Graph energy bounds: spectra, inequalities, and exhaustive verification.

The public surface mirrors the module layout:

- :mod:`geb.graphs` — bitset graphs, fixture families, predicates
- :mod:`geb.graph6` — graph6 parsing/writing and corpus streaming
- :mod:`geb.enumeration` — canonical forms and exhaustive generation
- :mod:`geb.spectral` — eigenvalues, spectral scalars, exact integer checks
- :mod:`geb.gruss` — Chebyshev-functional bounds and the energy chain
- :mod:`geb.bounds` — every energy bound plus the per-graph report
- :mod:`geb.harness` — corpus drivers behind the CLI

Each name is imported from its module when it is first read (PEP 562), so
``import geb`` loads no submodule, and ``from geb import bound_report``
loads ``bounds`` with what it imports: ``errors``, ``graphs``, ``graph6`` and
``spectral``. ``geb report`` loads those and ``cli``. The corpus commands
also load ``harness``, and ``--enumerate`` and ``geb enumerate`` load
``enumeration``; no command loads ``gruss``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # module: the names it defines that the package exports
    "bounds": "BoundReport amgm_lower bound_report caporossi_lower conj1_lower conj2_upper "
              "cor_nice_lower irregularity main_lower mcclelland_lower mcclelland_upper "
              "rank_lower",
    "enumeration": "CanonicalForm canonical_form enumerate_connected enumerate_graphs",
    "errors": "GebError",
    "graphs": "Graph complete complete_bipartite cycle degree_sequence from_edge_list "
              "is_connected is_regular is_triangle_free path petersen triangle_count",
    "graph6": "parse_graph6 stream_corpus write_graph6",
    "gruss": "BoundedVector EnergyChain chebyshev_functional dragomir_bound energy_chain "
             "gruss_bound",
    "harness": "CorpusSummary EqualityHit Extreme Violation run_conjectures run_equality "
               "run_verify",
    "spectral": "DEFAULT_ZERO_TOL SpectralStats Spectrum determinant_exact determinants_exact "
                "eigenvalues eigenvalues_batch integer_rank spectral_stats",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # geb.bounds and the like, without an import of their own
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys() | _HOME.keys())
