"""Explicit complexes: parabolic induction complexes and stalk subcomplexes.

The induction complex for a proper reflection subset I0 has the functions
on (G/P_I)(k) for I between I0 and the full set, graded by the number of
missing reflections, with signed pullback differentials.  Its homology is
concentrated in the top degree, where it has the generalized Steinberg
dimension; verify_K checks exactly that with exact rational ranks.  The
top homology is the induced dimension minus the rank of the last
differential, whose rows are the pulled-back functions up to sign, so
verify_K is the exact-rank route for dim v that weyl's Moebius route is
compared with.

The stalk machinery takes one flag, collects the rational subspaces whose
induced type lies in the family, and checks that the order complex of that
poset is acyclic, exhibiting the contraction U -> U + U0 predicted by the
poset contraction criterion; stalk_counts runs it over every flag of a type
that may lie on the closed stratum.  Only this stalk half reads slopes and
flagenum, through `_flag_layers`, so `kcomplex` never loads them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations

from .errors import ConfigError, InternalCheckError
from .exactalg.gf import make_field
from .exactalg.qcount import q_multinomial
from .exactalg.rational import ChainComplexQ, MatrixQ, chain_complex
from .exactalg.subspaces import (
    SubspaceGF, enumerate_subspaces, rational_positions, rational_subspaces, subspaces_within,
)
from .records import Record
from .weyl import ParabolicType, dim_v


@lru_cache(maxsize=None)
def coset_space(ptype: ParabolicType, q: int) -> tuple[tuple[int, ...], ...]:
    """The finite set (G/P_I)(k), each point a partial flag over GF(q) given
    by the index of each member in `enumerate_subspaces(GF(q), d, dim)`, one
    slot per missing dim, ascending; the full type gives the one point ().
    Chains are built top down from `subspaces_within`, so only the missing
    dims are enumerated, and come out ordered by their members' indices
    read largest member first."""
    field, d, dims = make_field(q, 1), ptype.d, ptype.complement()
    chains = [()]
    if dims:
        chains = [(i,) for i in range(len(enumerate_subspaces(field, d, dims[-1])))]
        for k, c in zip(dims[:0:-1], dims[-2::-1]):
            chains = [
                (j,) + chain for chain in chains for j in subspaces_within(field, d, k, chain[0], c)
            ]
    assert len(chains) == q_multinomial(ptype.composition(), q)
    return tuple(chains)


@lru_cache(maxsize=None)
def projection_indices(fine: ParabolicType, coarse: ParabolicType, q: int) -> tuple[int, ...]:
    """For I inside J, the point map (G/P_I)(k) -> (G/P_J)(k): forget the
    flag members whose dimension J does not cut."""
    if not fine.issubset(coarse):
        raise ConfigError("projection needs nested reflection subsets")
    index = {pt: i for i, pt in enumerate(coset_space(coarse, q))}
    keep = [k for k, dim in enumerate(fine.complement()) if dim in coarse.complement()]
    return tuple(index[tuple(pt[k] for k in keep)] for pt in coset_space(fine, q))


# -- the induction complex ----------------------------------------------------


def build_K(i0: ParabolicType, q: int, signs: str = "position") -> ChainComplexQ:
    """The induction complex for i0, in degrees -1 .. #missing - 1.

    The degree-p term is the functions on (G/P_J)(k) for each J containing
    i0 with p + 1 missing reflections, in combinations order; degree -1 is
    the one point of J = G.  The differential pulls back along each
    projection to J + s_i, i missing from J.

    signs="position" gives that block the parity of i's position among J's
    missing reflections (the convention under which the squares
    anticommute).  signs="index" uses the parity of i itself; that reading
    does not square to zero and is kept as a deliberate corruption hook for
    negative tests.
    """
    if signs not in ("position", "index"):
        raise ConfigError(f"unknown sign convention {signs!r}")
    if i0.is_full:
        raise ConfigError("the induction complex needs a proper reflection subset")
    missing = i0.complement()
    terms = [
        [i0.union(set(missing) - set(t)) for t in combinations(missing, k)]
        for k in range(len(missing) + 1)
    ]
    starts, dims = [], []
    for term in terms:
        offsets = tuple(accumulate((len(coset_space(j, q)) for j in term), initial=0))
        starts.append(dict(zip(term, offsets)))
        dims.append(offsets[-1])
    maps = []
    for k in range(1, len(terms)):
        rows = []
        for j in terms[k]:
            blocks = [
                (
                    starts[k - 1][j.union((i,))],
                    projection_indices(j, j.union((i,)), q),
                    -1 if (pos if signs == "position" else i) % 2 else 1,
                )
                for pos, i in enumerate(j.complement())
            ]
            for x in range(len(coset_space(j, q))):
                rows.append({start + proj[x]: sign for start, proj, sign in blocks})
        maps.append(MatrixQ(dims[k], dims[k - 1], tuple(rows)))
    return chain_complex(dims, maps)


class KComplexReport(Record):
    def __init__(self, i0: ParabolicType, q: int, dims: tuple[int, ...],
                 homology: tuple[int, ...], expected_top: int, passed: bool):
        self.__dict__.update(i0=i0, q=q, dims=dims, homology=homology,
                             expected_top=expected_top, passed=passed)

    def as_json(self) -> dict:
        return {
            "complex": "K",
            "I0": list(self.i0.gens),
            "q": self.q,
            "dims": list(self.dims),
            "homology": list(self.homology),
            "pass": self.passed,
        }


def verify_K(i0: ParabolicType, q: int) -> KComplexReport:
    """Homology must vanish below the top degree, where it has the
    generalized Steinberg dimension of i0."""
    complex_ = build_K(i0, q)
    homology = complex_.homology_dims()
    expected_top = dim_v(i0, q)
    passed = all(h == 0 for h in homology[:-1]) and homology[-1] == expected_top
    return KComplexReport(i0, q, complex_.dims, homology, expected_top, passed)


def corruptible(ptype: ParabolicType) -> bool:
    """Complexes with a single differential cannot witness a broken sign."""
    return len(ptype.complement()) >= 2


def induction_report(ptype: ParabolicType, q: int, signs: str) -> KComplexReport:
    """verify_K under the position signs; under the "index" corruption hook the
    build must raise at its composition-zero validation."""
    if signs == "position":
        return verify_K(ptype, q)
    build_K(ptype, q, signs=signs)
    raise InternalCheckError("corrupted sign convention unexpectedly composed to zero")


# -- stalk subcomplexes --------------------------------------------------------


@lru_cache(maxsize=None)
def _flag_layers():
    """slopes and flagenum, imported on first use rather than with this module."""
    from . import flagenum, slopes
    return slopes, flagenum


def build_stalk(flag: FilteredSpace, family: ClosedFamily) -> tuple[int, ...]:
    """Ascending positions in `rational_subspaces(p, d)` of the rational
    subspaces whose induced type at the flag lies in the family.  Membership
    depends only on the degree, so the flag's integer degree vector
    (`scaled_degrees`) is compared with the family's scaled threshold."""
    least = family.least_scaled_degree(flag.slope.scale)
    degrees = _flag_layers()[0].scaled_degrees(flag)
    return tuple(i for i, degree in enumerate(degrees) if degree >= least)


@lru_cache(maxsize=None)
def _containment(p: int, d: int):
    """For each position in `rational_subspaces(p, d)`, the positions of the
    rational subspaces properly containing that one, ascending: the
    `subspaces_within` lists, inverted."""
    field = make_field(p, 1)
    sizes = (len(enumerate_subspaces(field, d, c)) for c in range(1, d - 1))
    offsets = (0, *accumulate(sizes, initial=0))  # position of the first c-subspace
    above = [[] for _ in rational_subspaces(p, d)]
    for k in range(2, d):
        for i in range(len(enumerate_subspaces(field, d, k))):
            for c in range(1, k):
                for j in subspaces_within(field, d, k, i, c):
                    above[offsets[c] + j].append(offsets[k] + i)
    return tuple(map(tuple, above))


def _stalk_above(verts: tuple[int, ...], p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """For each vertex, the indices of the vertices properly containing it,
    ascending: `_containment` relabelled to indices in verts."""
    contained_in = _containment(p, d)
    local = {j: i for i, j in enumerate(verts)}
    return tuple(tuple(local[j] for j in contained_in[k] if j in local) for k in verts)


def _stalk_chains(above) -> list[list[tuple[int, ...]]]:
    """Chains of the poset grouped by length (order-complex simplices)."""
    levels: list[list[tuple[int, ...]]] = []
    current = [(i,) for i in range(len(above))]
    while current:
        levels.append(current)
        current = [chain + (j,) for chain in current for j in above[chain[-1]]]
    return levels


@lru_cache(maxsize=256)
def _order_complex_homology(above) -> tuple[int, ...]:
    """Reduced homology dimensions (degrees -1, 0, 1, ...) of the order
    complex of the poset `above` describes, from its reduced simplicial chain
    complex encoded as transposed boundary maps (ranks are unchanged).  The
    complex depends only on the relation, and many stalks share one."""
    levels = _stalk_chains(above)
    dims = (1,) + tuple(len(level) for level in levels)
    index = [{chain: i for i, chain in enumerate(level)} for level in levels]
    # augmentation: every vertex hits the empty simplex with coefficient 1
    maps = [MatrixQ(len(levels[0]), 1, tuple({0: 1} for _ in levels[0]))]
    for p in range(1, len(levels)):
        faces = index[p - 1]
        rows = tuple(
            {faces[chain[:j] + chain[j + 1 :]]: -1 if j % 2 else 1 for j in range(len(chain))}
            for chain in levels[p]
        )
        maps.append(MatrixQ(len(levels[p]), len(levels[p - 1]), rows))
    return chain_complex(dims, maps).homology_dims()


def stalk_homology(verts: tuple[int, ...], p: int, d: int) -> tuple[int, ...]:
    """Reduced homology dimensions of the order complex of a nonempty poset
    of rational subspaces of GF(p)^d, given by their positions."""
    return _order_complex_homology(_stalk_above(verts, p, d))


@lru_cache(maxsize=None)
def _join(p: int, d: int, i: int, j: int) -> int | None:
    """The position of U_i + U_j in `rational_subspaces(p, d)`, or None for
    the whole space; computed once per pair however many stalks hold it."""
    subs = rational_subspaces(p, d)
    return rational_positions(p, d).get(subs[i].sum_with(subs[j]).basis)


def quillen_witness(verts: tuple[int, ...], flag: FilteredSpace, family: ClosedFamily) -> bool:
    """Check that U -> U + U0 maps the poset into itself, which by the
    contraction criterion collapses its order complex.  U0 is the first vertex,
    so no other lies inside it; each image's type is checked at the flag, a
    cross-check of the degree vector `build_stalk` read."""
    if not verts:
        raise ConfigError("no witness for an empty poset")
    p, d, induced_type = flag.field.p, flag.slope.d, _flag_layers()[0].induced_type
    subs, vert_set, u0 = rational_subspaces(p, d), set(verts), verts[0]
    for i in verts:
        j = _join(p, d, i, u0)
        if j not in vert_set or not family.contains(induced_type(flag, subs[j])):
            return False
    return True


class StalkReport(Record):
    def __init__(self, in_y: bool, homology: tuple[int, ...], passed: bool):
        self.__dict__.update(in_y=in_y, homology=homology, passed=passed)


def stalk_report(flag: FilteredSpace, family: ClosedFamily) -> StalkReport:
    """An empty poset (the flag is off the closed stratum) passes trivially."""
    verts = build_stalk(flag, family)
    if not verts:
        return StalkReport(False, (), True)
    homology = stalk_homology(verts, flag.field.p, flag.slope.d)
    return StalkReport(True, homology, quillen_witness(verts, flag, family) and not any(homology))


def stalk_counts(g: SlopeFunction, family: ClosedFamily, p: int, n: int) -> tuple[int, int, int]:
    """(flags, flags on the closed stratum, failed stalks) over every flag
    of type g over GF(p^n).  A flag's stalk depends only on the dims of its
    meets with rational subspaces, so one report per Frobenius orbit counts
    for the whole orbit; the flags `flag_orbits` certifies off the closed
    stratum have empty stalks, which pass."""
    flags = in_y = failed = 0
    for flag, size in _flag_layers()[1].flag_orbits(g, p, n, family):
        flags += size
        if flag is not None:
            rep = stalk_report(flag, family)
            in_y += size * rep.in_y
            failed += size * (not rep.passed)
    return flags, in_y, failed


# -- closed-stratum point counts (base field) ----------------------------------


def closed_stratum_count(
    g: SlopeFunction, family: ClosedFamily, ptype: ParabolicType, p: int
) -> int:
    """Number of base-field flags lying on every unstable stratum indexed by
    the reflections missing from ptype, detected through the standard
    coordinate subspaces."""
    if ptype.d != g.d:
        raise ConfigError("parabolic type and slope function disagree on d")
    if ptype.is_full:
        raise ConfigError("the closed-stratum count needs a proper reflection subset")
    full = SubspaceGF.full(make_field(p, 1), g.d)
    standards = tuple(SubspaceGF(full.field, g.d, full.basis[:i]) for i in ptype.complement())
    least = family.least_scaled_degree(g.scale)
    slopes, flagenum = _flag_layers()
    return sum(
        all(slopes.induced_degree(flag, std) >= least for std in standards)
        for flag in flagenum.enumerate_flags(g, p, 1)
    )
