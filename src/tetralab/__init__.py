"""tetralab: numerical verification of commuting contractive operator triples.

The library solves the fundamental operator equations attached to a
commuting triple (A, B, P) of contractions, builds the truncated
characteristic-function model for pure P, extracts the degree-one symbols
of invariant subspaces, and certifies the whole web of identities
connecting these objects as residual checks with explicit tolerances.
Each name is imported from the module that defines it, e.g.
``from tetralab.triples import validate``.
"""

__version__ = "0.1.0"
