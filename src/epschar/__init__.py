"""Exact epsilon-constant valuations and equivariant Euler characteristics
of abelian covers of curves over finite fields.

The package computes, in exact rational arithmetic, the p-adic
valuations of the epsilon constants attached to characters of an
abelian cover, the equivariant Euler characteristic of an invariant
divisor as an element of the Grothendieck groups of the group algebra,
and certifies the identities relating the two along independent code
paths.  See the README for the layer map.

Names are imported from the submodules (epschar.covers, epschar.verify,
...); the package namespace holds only __version__.
"""

__version__ = "1.0.0"
