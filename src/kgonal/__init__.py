"""Exact and asymptotic enumeration of k-gonal 2-trees.

A k-gonal 2-tree is built from k-sided polygons glued edge to edge in a
tree-like fashion.  This package counts them exactly (labelled and
unlabelled, rooted and unrooted, oriented and not) and computes the
growth constants of the unlabelled families.

The modules are layered:

    kernels     integer kernels and the errors every exact check raises
    bseries     the fundamental edge-rooted series b(x) and its powers
    labelled    closed-form labelled counts and cycle-type fixed points
    oriented    unlabelled counts up to orientation-preserving maps, the
                structures fixed by reversing the root edge, and the
                unlabelled counts with reflections, one route for every k
    odd         a divisor-sum recurrence for the odd-k counts, a check
    oracle      brute-force enumeration of small structures
    asymptotics growth rate and amplitude constants
    universal   coefficients of the large-k expansion of the singularity
    cli         command line front end

Every layer from bseries up exchanges series as plain lists of ints.
The oriented and odd layers each take one bseries.BTable: k comes from
its params and every result runs to its order.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
