"""The children rule and the basis-set append as loops over single
elements, the way the package ran them before a basis set was one
integer array: the tests' oracle for ``children_centers`` and
``WaveletPool.add_bases``."""

import itertools

from cwnn.wavelets import RES, TRANS, GridError


def children(parents, fine_grid):
    """The translations of the children of the basis set ``parents`` on
    ``fine_grid``, in order: per parent and axis the clipped point 2 n
    and its lower neighbour when that is inside, else its upper one (one
    point on a one-point axis), their product, and the first occurrence
    kept across parents."""
    out = {}
    for p in parents.tolist():
        if p[RES] != fine_grid.m - 1:
            raise GridError(f"fine grid at m={fine_grid.m} is not one level "
                            f"below parent at m={p[RES]}")
        per_axis = []
        for nk, lo, hi in zip(p[TRANS], fine_grid.n_lo, fine_grid.n_hi):
            a = min(max(2 * nk, lo), hi)
            if a - 1 >= lo:
                per_axis.append((a, a - 1))
            elif a + 1 <= hi:
                per_axis.append((a, a + 1))
            else:
                per_axis.append((a,))
        for n in itertools.product(*per_axis):
            out.setdefault(n, None)
    return list(out)


def appended(have, bases):
    """The rows of ``bases`` an append to a model holding ``have`` adds:
    those it lacks, the first occurrence kept, as tuples."""
    held = dict.fromkeys(map(tuple, have.tolist()))
    return [row for row in dict.fromkeys(map(tuple, bases.tolist()))
            if row not in held]
