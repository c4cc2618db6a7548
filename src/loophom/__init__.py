"""Exact-arithmetic toolkit for edgewise subdivision and loop homology.

The package computes, over the integers and exact rationals, the chain-level
machinery that turns words in a free group (loops in a wedge of circles) into
relative homology classes of the pair (X^n, Y), where Y is the union of
partial diagonals of the n-fold product:

* ``permutations`` -- signs, block shuffles, the face permutation, a
  sign-reversing involution, and the boundary bijection;
* ``affine`` -- exact affine maps between standard simplices, stored as
  one integer denominator and integer vertex rows (faces, subdivision
  pieces, composites);
* ``chains`` -- integer chains of affine maps, the subdivision operator
  div, its commutation with the boundary, and an explicit chain homotopy;
* ``words`` -- free-group words, Magnus coordinates, truncated group-algebra
  arithmetic;
* ``wedge`` -- the simplicial wedge-of-circles model, product simplices,
  and the normalized relative chain complex of (X^n, Y);
* ``homology`` -- Smith normal form, top-degree homology coordinates
  and the homology groups of every degree over Z;
* ``transform`` -- the shuffle decomposition, evaluation of words as a
  cached matrix times their Magnus expansion, symbolic cancellation, and
  naturality checks;
* ``cli`` -- command-line verification suites and reports.
"""

__version__ = "0.1.0"
