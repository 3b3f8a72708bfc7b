"""Explicit complexes: parabolic induction complexes and stalk subcomplexes.

The induction complex for a proper reflection subset I0 has the functions
on (G/P_I)(k) for I between I0 and the full set, graded by the number of
missing reflections, with signed pullback differentials.  Its homology is
concentrated in the top degree, where it has the generalized Steinberg
dimension; verify_K checks exactly that with exact rational ranks.

The stalk machinery takes one flag, collects the rational subspaces whose
induced type lies in the family, and checks that the order complex of that
poset is acyclic, exhibiting the contraction U -> U + U0 predicted by the
poset contraction criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import ConfigError
from .exactalg.gf import make_field
from .exactalg.qcount import q_multinomial
from .exactalg.rational import ChainComplexQ, MatrixQ, chain_complex, rational_rank
from .exactalg.subspaces import SubspaceGF, enumerate_chains
from .flagenum import enumerate_flags, rational_subspaces
from .slopes import ClosedFamily, FilteredSpace, SlopeFunction, induced_type
from .weyl import ParabolicType

PartialFlag = tuple[SubspaceGF, ...]


class CosetSpace:
    """The finite set (G/P_I)(k) as canonical partial flags over GF(q)."""

    def __init__(self, ptype: ParabolicType, q: int, points: tuple[PartialFlag, ...]):
        self.ptype = ptype
        self.q = q
        self.points = points
        self.index = {pt: i for i, pt in enumerate(points)}

    def __len__(self):
        return len(self.points)


@lru_cache(maxsize=None)
def coset_space(ptype: ParabolicType, q: int) -> CosetSpace:
    field = make_field(q, 1)
    dims = ptype.complement()
    points = tuple(
        sorted(
            enumerate_chains(field, ptype.d, dims),
            key=lambda chain: tuple(m.sort_key() for m in chain),
        )
    )
    assert len(points) == q_multinomial(ptype.composition(), q)
    return CosetSpace(ptype, q, points)


def projection_indices(fine: ParabolicType, coarse: ParabolicType, q: int) -> tuple[int, ...]:
    """For I inside J, the point map (G/P_I)(k) -> (G/P_J)(k): forget the
    flag members whose dimension J does not cut."""
    if not fine.issubset(coarse):
        raise ConfigError("projection needs nested reflection subsets")
    fine_space = coset_space(fine, q)
    coarse_space = coset_space(coarse, q)
    keep = set(coarse.complement())
    fine_dims = fine.complement()
    out = []
    for pt in fine_space.points:
        coarse_pt = tuple(m for m, dim in zip(pt, fine_dims) if dim in keep)
        out.append(coarse_space.index[coarse_pt])
    return tuple(out)


def pullback_matrix(fine: ParabolicType, coarse: ParabolicType, q: int) -> MatrixQ:
    """Matrix of (functions on G/P_coarse) -> (functions on G/P_fine)."""
    proj = projection_indices(fine, coarse, q)
    rows = tuple({y: 1} for y in proj)
    return MatrixQ(len(rows), len(coset_space(coarse, q)), rows)


def pullback_span_rank(parabolic: ParabolicType, q: int) -> int:
    """Exact rank of the span of all functions pulled back from proper
    overgroup quotients.  Pullback images nest along inclusions, so the
    minimal proper overgroups (add one reflection) already span."""
    missing = parabolic.complement()
    if not missing:
        return 0
    rows = []
    for s in missing:
        coarse = parabolic.union((s,))
        block = [{} for _ in range(len(coset_space(coarse, q)))]
        for x, y in enumerate(projection_indices(parabolic, coarse, q)):
            block[y][x] = 1
        rows.extend(block)
    return rational_rank(rows)


# -- the induction complex ----------------------------------------------------


def _term_subsets(i0: ParabolicType, p: int) -> tuple[tuple[int, ...], ...]:
    """Missing-reflection subsets of size p+1 indexing the degree-p term."""
    pool = i0.complement()
    return tuple(sorted(combinations(pool, p + 1)))


def build_K(i0: ParabolicType, q: int, signs: str = "position") -> ChainComplexQ:
    """The induction complex for i0, in degrees -1 .. #missing - 1.

    signs="position" assigns a differential block the parity of the added
    reflection's position among the target's missing reflections (the
    convention under which the squares anticommute).  signs="index" uses
    the parity of the reflection's own index; that reading does not square
    to zero and is kept as a deliberate corruption hook for negative tests.
    """
    if signs not in ("position", "index"):
        raise ConfigError(f"unknown sign convention {signs!r}")
    if i0.is_full:
        raise ConfigError("the induction complex needs a proper reflection subset")
    d = i0.d
    top = len(i0.complement()) - 1
    layers = [((),)] + [_term_subsets(i0, p) for p in range(top + 1)]
    sizes = [
        [len(coset_space(_parabolic_from_missing(d, t), q)) if t else 1 for t in layer]
        for layer in layers
    ]
    dims = tuple(sum(s) for s in sizes)
    maps = []
    for p in range(len(layers) - 1):
        src_layer, tgt_layer = layers[p], layers[p + 1]
        src_sizes, tgt_sizes = sizes[p], sizes[p + 1]
        src_off = _offsets(src_sizes)
        tgt_off = _offsets(tgt_sizes)
        mat = [{} for _ in range(dims[p + 1])]
        tgt_index = {t: j for j, t in enumerate(tgt_layer)}
        for si, t_src in enumerate(src_layer):
            src_parabolic = _parabolic_from_missing(d, t_src)
            for i in i0.complement():
                if i in t_src:
                    continue
                t_tgt = tuple(sorted(t_src + (i,)))
                ti = tgt_index[t_tgt]
                if signs == "position":
                    sign = -1 if t_tgt.index(i) % 2 else 1
                else:
                    sign = -1 if i % 2 else 1
                tgt_parabolic = _parabolic_from_missing(d, t_tgt)
                if t_src:
                    block = pullback_matrix(tgt_parabolic, src_parabolic, q).entries
                else:
                    block = tuple({0: 1} for _ in range(len(coset_space(tgt_parabolic, q))))
                r0, c0 = tgt_off[ti], src_off[si]
                for r, row in enumerate(block):
                    for c, val in row.items():
                        mat[r0 + r][c0 + c] = sign * val
        maps.append(MatrixQ(dims[p + 1], dims[p], tuple(mat)))
    return chain_complex(-1, dims, maps)


def _offsets(sizes) -> tuple[int, ...]:
    out = []
    acc = 0
    for s in sizes:
        out.append(acc)
        acc += s
    return tuple(out)


def _parabolic_from_missing(d: int, missing: tuple[int, ...]) -> ParabolicType:
    return ParabolicType.from_gens(d, set(range(1, d)) - set(missing))


@dataclass(frozen=True)
class KComplexReport:
    i0: ParabolicType
    q: int
    dims: tuple[int, ...]
    homology: tuple[int, ...]
    expected_top: int
    passed: bool

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
    from .cohomology import dim_v

    complex_ = build_K(i0, q)
    homology = complex_.homology_dims()
    expected_top = dim_v(i0, q)
    passed = all(h == 0 for h in homology[:-1]) and homology[-1] == expected_top
    return KComplexReport(i0, q, complex_.dims, homology, expected_top, passed)


# -- stalk subcomplexes --------------------------------------------------------


@dataclass(frozen=True)
class StalkPoset:
    """Rational subspaces whose induced type at one flag lies in the family,
    ordered by inclusion."""

    vertices: tuple[SubspaceGF, ...]

    @property
    def is_empty(self) -> bool:
        return not self.vertices


def build_stalk(flag: FilteredSpace, family: ClosedFamily) -> StalkPoset:
    p = flag.field.p
    d = flag.slope.d
    verts = [
        u for u in rational_subspaces(p, d) if family.contains(induced_type(flag, u))
    ]
    return StalkPoset(tuple(sorted(verts, key=SubspaceGF.sort_key)))


@lru_cache(maxsize=None)
def _containment(p: int, d: int):
    """Position of each rational subspace of GF(p)^d, and for each position
    the positions of the rational subspaces properly containing it, ascending.
    Positions follow `rational_subspaces`, which is sorted like stalk vertices."""
    subs = rational_subspaces(p, d)
    above = tuple(
        tuple(j for j, v in enumerate(subs) if u.dim < v.dim and u.is_subspace_of(v))
        for u in subs
    )
    return {u: i for i, u in enumerate(subs)}, above


def _stalk_chains(sp: StalkPoset) -> list[list[tuple[int, ...]]]:
    """Chains of the poset grouped by length (order-complex simplices)."""
    verts = sp.vertices
    n = len(verts)
    position, contained_in = _containment(verts[0].field.p, verts[0].ambient_dim)
    local = {position[v]: i for i, v in enumerate(verts)}
    above = [[local[j] for j in contained_in[position[v]] if j in local] for v in verts]
    levels: list[list[tuple[int, ...]]] = []
    current = [(i,) for i in range(n)]
    while current:
        levels.append(current)
        nxt = []
        for chain in current:
            for j in above[chain[-1]]:
                nxt.append(chain + (j,))
        current = nxt
    return levels


def stalk_complex(sp: StalkPoset) -> ChainComplexQ | None:
    """Reduced simplicial chain complex of the order complex, encoded as a
    cochain complex of transposed boundary maps (ranks are unchanged)."""
    if sp.is_empty:
        return None
    levels = _stalk_chains(sp)
    dims = (1,) + tuple(len(level) for level in levels)
    index = [{chain: i for i, chain in enumerate(level)} for level in levels]
    maps = []
    # augmentation: every vertex hits the empty simplex with coefficient 1
    maps.append(MatrixQ(len(levels[0]), 1, tuple({0: 1} for _ in levels[0])))
    for p in range(1, len(levels)):
        faces = index[p - 1]
        rows = tuple(
            {faces[chain[:j] + chain[j + 1 :]]: -1 if j % 2 else 1 for j in range(len(chain))}
            for chain in levels[p]
        )
        maps.append(MatrixQ(len(levels[p]), len(levels[p - 1]), rows))
    return chain_complex(-1, dims, maps)


def stalk_homology(sp: StalkPoset) -> tuple[int, ...]:
    """Reduced homology dimensions (degrees -1, 0, 1, ...); empty tuple for
    an empty poset."""
    complex_ = stalk_complex(sp)
    if complex_ is None:
        return ()
    return complex_.homology_dims()


@dataclass(frozen=True)
class QuillenWitness:
    ok: bool
    u0: SubspaceGF | None
    failing: SubspaceGF | None
    pairs: tuple[tuple[SubspaceGF, SubspaceGF], ...]


def quillen_witness(sp: StalkPoset, flag: FilteredSpace, family: ClosedFamily) -> QuillenWitness:
    """Pick a minimal vertex U0 and check U -> U + U0 maps the poset into
    itself, which by the contraction criterion collapses the order complex."""
    if sp.is_empty:
        raise ConfigError("no witness for an empty poset")
    verts = sp.vertices
    vert_set = set(verts)
    u0 = next(
        v
        for v in verts
        if not any(u != v and u.is_subspace_of(v) for u in verts)
    )
    pairs = []
    for u in verts:
        image = u.sum_with(u0)
        # membership of the image is decided by the threshold family itself;
        # for a fully enumerated poset this agrees with `image in vert_set`
        ok = (
            image.dim < image.ambient_dim
            and family.contains(induced_type(flag, image))
            and image in vert_set
            and u.is_subspace_of(image)
            and u0.is_subspace_of(image)
        )
        if not ok:
            return QuillenWitness(False, u0, u, tuple(pairs))
        pairs.append((u, image))
    return QuillenWitness(True, u0, None, tuple(pairs))


@dataclass(frozen=True)
class StalkReport:
    in_y: bool
    vertex_count: int
    homology: tuple[int, ...]
    witness_ok: bool
    passed: bool


def stalk_report(flag: FilteredSpace, family: ClosedFamily) -> StalkReport:
    sp = build_stalk(flag, family)
    if sp.is_empty:
        return StalkReport(False, 0, (), True, True)
    homology = stalk_homology(sp)
    witness = quillen_witness(sp, flag, family)
    acyclic = all(h == 0 for h in homology)
    return StalkReport(True, len(sp.vertices), homology, witness.ok, acyclic and witness.ok)


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
    field = make_field(p, 1)
    standards = {
        i: SubspaceGF.from_rows(
            field, g.d, tuple(tuple(1 if c == r else 0 for c in range(g.d)) for r in range(i))
        )
        for i in ptype.complement()
    }
    count = 0
    for flag in enumerate_flags(g, p, 1):
        if all(
            family.contains(induced_type(flag, std)) for std in standards.values()
        ):
            count += 1
    return count
