"""Formal integer chains of affine simplex maps.

A chain is a finite Z-linear combination of affine maps D^q -> D^p (all
terms sharing the same q and p), with composition extended bilinearly.
This is enough to state and machine-check the two operator identities this
package is built around:

* the subdivision operator ``div_chain(n, k)`` (the signed sum of the k^n
  subdivision pieces) commutes with the alternating-sum boundary
  ``boundary_chain(n)``;
* ``build_homotopy_L`` constructs, degree by degree, chains L with

      id_n - div_n^k = L_{n+1,n} o boundary_{n,n+1}
                       + boundary_{n-1,n} o L_{n,n-1},

  exhibiting the subdivision as chain-homotopic to the identity.

The homotopy is produced by a cone: appending a fixed apex vertex to every
generator contracts the affine chain complex, and the recursion
``L_{m+1,m} = cone(id_m - div_m^k - boundary o L_{m,m-1})`` then satisfies
the identity exactly (the coned chain is a relative cycle by induction).
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .affine import (
    AffineSimplexMap,
    compose,
    cone,
    face_map,
    identity_map,
    subdivision_piece,
)
from .permutations import enumerate_ens, epsilon
from .words import combine


class FormalChain:
    """An integer combination of affine maps D^q -> R^p, q and p fixed.

    Terms with coefficient zero are never stored; equality is termwise.
    """

    __slots__ = ("domain_dim", "codomain_dim", "terms")

    def __init__(
        self,
        domain_dim: int,
        codomain_dim: int,
        terms: Iterable[tuple[AffineSimplexMap, int]] = (),
    ):
        self.domain_dim = domain_dim
        self.codomain_dim = codomain_dim

        def checked():
            for m, c in terms:
                if m.domain_dim != domain_dim or m.codomain_dim != codomain_dim:
                    raise ValueError(
                        f"term {m} is not a map D^{domain_dim} -> R^{codomain_dim}"
                    )
                yield m, c

        self.terms = combine(checked())

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormalChain)
            and self.domain_dim == other.domain_dim
            and self.codomain_dim == other.codomain_dim
            and self.terms == other.terms
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"FormalChain(D^{self.domain_dim} -> R^{self.codomain_dim}, "
            f"{len(self.terms)} terms)"
        )

    # -- arithmetic ---------------------------------------------------------

    def _check_same_shape(self, other: "FormalChain") -> None:
        if (self.domain_dim, self.codomain_dim) != (other.domain_dim, other.codomain_dim):
            raise ValueError("chains of different shapes")

    def __add__(self, other: "FormalChain") -> "FormalChain":
        self._check_same_shape(other)
        return FormalChain(
            self.domain_dim, self.codomain_dim, [*self.terms.items(), *other.terms.items()]
        )

    def __sub__(self, other: "FormalChain") -> "FormalChain":
        return self + (-other)

    def __neg__(self) -> "FormalChain":
        return FormalChain(
            self.domain_dim, self.codomain_dim,
            ((m, -c) for m, c in self.terms.items()),
        )


def zero_chain(domain_dim: int, codomain_dim: int) -> FormalChain:
    return FormalChain(domain_dim, codomain_dim, ())


def chain_of(m: AffineSimplexMap, coeff: int = 1) -> FormalChain:
    """The chain with the single term ``coeff * m``."""
    return FormalChain(m.domain_dim, m.codomain_dim, ((m, coeff),))


def identity_chain(n: int) -> FormalChain:
    return chain_of(identity_map(n))


def chain_compose(g: FormalChain, f: FormalChain) -> FormalChain:
    """Bilinear composition g o f (f applied first)."""
    if f.codomain_dim != g.domain_dim:
        raise ValueError(
            f"cannot compose chains: inner lands in R^{f.codomain_dim}, "
            f"outer starts on D^{g.domain_dim}"
        )
    pairs = itertools.product(f.terms.items(), g.terms.items())
    return FormalChain(
        f.domain_dim, g.codomain_dim,
        ((compose(mg, mf), cf * cg) for (mf, cf), (mg, cg) in pairs),
    )


def boundary_chain(n: int) -> FormalChain:
    """The alternating face sum, a chain D^{n-1} -> D^n."""
    if n < 1:
        raise ValueError("boundary needs dimension >= 1")
    return FormalChain(
        n - 1, n,
        ((face_map(n, i), (-1) ** i) for i in range(n + 1)),
    )


def div_chain(n: int, k: int) -> FormalChain:
    """The degree-k subdivision operator: the signed sum of the k^n pieces.

    The pieces are pairwise distinct affine maps, so the chain stores
    exactly k^n terms; for k = 1 it is the identity chain.
    """
    return FormalChain(
        n, n,
        ((subdivision_piece(v, sigma, k), epsilon(sigma)) for v, sigma in enumerate_ens(n, k)),
    )


def cone_homotopy(x: FormalChain, apex_index: int = 0) -> FormalChain:
    """Append the apex vertex E(p, apex_index) to every generator of x.

    Writing K for this operator and q for x's domain dimension, expanding
    the omitted-vertex face convention gives the contraction identity

        K(x) o boundary_{q,q+1} = x - K(x o boundary_{q-1,q})      (q >= 1)
        K(x) o boundary_{0,1}   = x - augmentation(x) * [apex]     (q = 0)

    which is what makes the affine chain complex acyclic.
    """
    p = x.codomain_dim
    if not 0 <= apex_index <= p:
        raise ValueError(f"apex index {apex_index} out of range for D^{p}")
    return FormalChain(
        x.domain_dim + 1, p,
        ((cone(m, apex_index), c) for m, c in x.terms.items()),
    )


def build_homotopy_L(k: int, n_max: int) -> list[FormalChain]:
    """Chains L[m] : D^{m+1} -> D^m, m <= n_max, with

        id_m - div_m^k = L[m] o boundary_{m,m+1} + boundary_{m-1,m} o L[m-1]

    (the last summand absent at m = 0).  L[0] is the zero chain; each next
    L[m] cones the defect id_m - div_m^k - boundary o L[m-1], which composes
    to zero with the boundary by induction, so the cone contraction
    identity collapses to the stated one.
    """
    if k < 1:
        raise ValueError("subdivision arity must be >= 1")
    out = [zero_chain(1, 0)]
    for m in range(1, n_max + 1):
        defect = identity_chain(m) - div_chain(m, k) - chain_compose(
            boundary_chain(m), out[m - 1]
        )
        out.append(cone_homotopy(defect))
    return out
