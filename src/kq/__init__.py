"""Exact engine for higher Toda brackets and matrix Massey products.

Everything is computed by finite linear algebra over Z/p^k: truncated
bigraded chain algebras, their homology, morphism calculus over cubical
chain coalgebras, nullhomotopy towers, obstruction classes, and the
resulting bracket representatives with full choice logs.
"""

__version__ = "0.1.0"
