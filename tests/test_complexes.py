import ast
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    containment_by_sum,
    kernel_intersection,
    rank_mod_prime,
    stalk_counts_every_flag,
)
from perdom import cohomology as coh
from perdom import complexes as cx
from perdom import flagenum
from perdom.errors import ConfigError, InternalCheckError
from perdom.exactalg import subspaces
from perdom.exactalg.gf import make_field
from perdom.exactalg.qcount import all_flag_points
from perdom.exactalg.subspaces import (
    SubspaceGF,
    enumerate_chains,
    enumerate_subspaces,
    rational_positions,
    rational_subspaces,
)
from perdom.flagenum import enumerate_flags
from perdom.slopes import (
    UNKNOWN,
    ClosedFamily,
    FilteredSpace,
    MeetStore,
    drinfeld,
    from_values,
    induced_type,
    parse_family,
)
from perdom.weyl import ParabolicType, length, parabolic_types

SS = ClosedFamily.semistable()


def test_coset_space_sizes_and_projection_fibers():
    borel = ParabolicType.empty(3)
    maximal = ParabolicType.from_gens(3, [1])
    assert len(cx.coset_space(borel, 2)) == 21
    assert len(cx.coset_space(maximal, 2)) == 7
    proj = cx.projection_indices(borel, maximal, 2)
    fibers = {}
    for x, y in enumerate(proj):
        fibers.setdefault(y, []).append(x)
    assert all(len(f) == 3 for f in fibers.values())


def test_projection_extremes():
    borel = ParabolicType.empty(3)
    assert cx.projection_indices(borel, borel, 2) == tuple(range(21))
    to_point = cx.projection_indices(borel, ParabolicType.full(3), 2)
    assert set(to_point) == {0}
    for _ in range(2):  # the cache holds results, not exceptions
        with pytest.raises(ConfigError):
            cx.projection_indices(ParabolicType.from_gens(3, [1]), borel, 2)


@pytest.mark.parametrize("d,q", [(d, q) for d in (2, 3, 4) for q in (2, 3)])
def test_coset_points_are_member_indices_in_member_sort_key_order(d, q):
    # a point holds each member's index among the subspaces of its dim; the
    # chain walk, an independent route, read through that index gives the
    # same points, each once, and sorted by the members' sort_key, largest
    # member first, the same order
    field = make_field(q, 1)
    index = {u: i for k in range(d + 1) for i, u in enumerate(enumerate_subspaces(field, d, k))}
    for ptype in parabolic_types(d):
        points = cx.coset_space(ptype, q)
        assert len(set(points)) == len(points)
        chains = sorted(
            enumerate_chains(field, d, ptype.complement()),
            key=lambda chain: tuple(m.sort_key() for m in reversed(chain)),
        )
        assert points == tuple(tuple(index[m] for m in chain) for chain in chains)


def test_narrow_i0_builds_only_the_subspaces_of_its_cut_dims(monkeypatch):
    # kcomplex --d 8 --q 2 --i0 2,3,4,5,6,7 needs the lines of GF(2)^8 only;
    # with a second cut at 7 it also needs the hyperplanes and their lines
    built = []
    rref_rows = subspaces._rref_rows
    monkeypatch.setattr(
        subspaces, "_rref_rows", lambda field, m, k: built.append((m, k)) or rref_rows(field, m, k)
    )
    for gens, cuts in (((2, 3, 4, 5, 6, 7), {1}), ((2, 3, 4, 5, 6), {1, 7})):
        for cache in (cx.coset_space, cx.projection_indices, subspaces.enumerate_subspaces,
                      subspaces._subspace_index, subspaces.subspaces_within,
                      subspaces._coordinate_rows):
            cache.cache_clear()
        built.clear()
        assert cx.verify_K(ParabolicType.from_gens(8, gens), 2).passed
        assert {k for m, k in built if m == 8} == cuts
        assert {m for m, k in built} <= cuts | {8}


@pytest.mark.parametrize("p,d", [(2, d) for d in (2, 3, 4, 5)] + [(3, d) for d in (2, 3, 4)])
def test_containment_lists_equal_all_pairs_sum_oracle(p, d):
    subs = rational_subspaces(p, d)
    expected = tuple(
        tuple(j for j, v in enumerate(subs) if u.dim < v.dim and containment_by_sum(u, v))
        for u in subs
    )
    assert cx._containment(p, d) == expected


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_full_type_coset_space_is_one_point(d):
    assert cx.coset_space(ParabolicType.full(d), 2) == ((),)


def test_build_K_dims():
    assert cx.build_K(ParabolicType.empty(3), 2).dims == (1, 14, 21)
    assert cx.build_K(ParabolicType.empty(2), 2).dims == (1, 3)
    assert cx.build_K(ParabolicType.from_gens(3, [1]), 2).dims == (1, 7)
    with pytest.raises(ConfigError):
        cx.build_K(ParabolicType.full(3), 2)


def test_verify_K_examples():
    rep = cx.verify_K(ParabolicType.empty(3), 2)
    assert rep.homology == (0, 0, 8) and rep.passed
    assert -1 + 14 - 21 == -rep.expected_top
    assert cx.verify_K(ParabolicType.empty(2), 2).homology == (0, 2)
    assert cx.verify_K(ParabolicType.from_gens(3, [1]), 2).homology == (0, 6)


def test_verify_K_report_json():
    rep = cx.verify_K(ParabolicType.from_gens(3, [2]), 2)
    payload = rep.as_json()
    assert payload == {
        "complex": "K",
        "I0": [2],
        "q": 2,
        "dims": [1, 7],
        "homology": [0, 6],
        "pass": True,
    }


def test_index_sign_reading_is_not_a_complex():
    with pytest.raises(InternalCheckError):
        cx.build_K(ParabolicType.empty(3), 2, signs="index")
    with pytest.raises(ConfigError):
        cx.build_K(ParabolicType.empty(3), 2, signs="bogus")


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_verify_K_small_grid(d, q):
    for i0 in parabolic_types(d):
        if not i0.is_full:
            assert cx.verify_K(i0, q).passed


def test_pullback_span_rank_rank_two():
    # the last differential's rows are the functions pulled back to the q + 1
    # lines of GF(q)^2 from the point: they span one dimension, and the top
    # homology is the Steinberg dimension q
    borel = ParabolicType.empty(2)
    for q in (2, 3, 5):
        assert cx.build_K(borel, q).maps[-1].rank() == 1
        assert cx.verify_K(borel, q).homology == (0, q)


def test_exact_rank_agrees_with_modular_probe_on_K_matrices():
    complex_ = cx.build_K(ParabolicType.empty(3), 3)
    for m in complex_.maps:
        dense = [[row.get(c, 0) for c in range(m.cols)] for row in m.entries]
        assert m.rank() == rank_mod_prime(dense, 1_073_741_789)


# -- stalks ---------------------------------------------------------------------


def test_stalk_of_projective_line_point():
    g = from_values([1, -1])
    flag = next(iter(enumerate_flags(g, 2, 1)))
    verts = cx.build_stalk(flag, SS)
    assert len(verts) == 1
    assert cx.stalk_homology(verts, 2, 2) == (0, 0)
    assert cx.quillen_witness(verts, flag, SS)
    assert cx._join(2, 2, verts[0], verts[0]) == verts[0]


def test_semistable_flag_reports_not_in_y():
    g = from_values([1, -1])
    semistable = [
        flag
        for flag in enumerate_flags(g, 2, 2)
        if not cx.build_stalk(flag, SS)
    ]
    assert len(semistable) == 2
    rep = cx.stalk_report(semistable[0], SS)
    assert not rep.in_y and rep.passed and rep.homology == ()
    with pytest.raises(ConfigError):
        cx.quillen_witness(cx.build_stalk(semistable[0], SS), semistable[0], SS)


@pytest.mark.parametrize("n", [1, 2])
def test_stalks_contract_everywhere_rank_three(n):
    g = from_values([2, 1, -3])
    for flag in enumerate_flags(g, 2, n):
        rep = cx.stalk_report(flag, SS)
        assert rep.in_y
        assert rep.passed
        assert all(h == 0 for h in rep.homology)


def test_chain_poset_images_take_the_larger_summand():
    # type (1, 0, -1) over GF(4) produces multi-vertex chain posets; there
    # the minimal vertex is absorbed: every image is max(U, U0) = U
    g = from_values([1, 0, -1])
    subs = rational_subspaces(2, 3)
    found = 0
    for flag in enumerate_flags(g, 2, 2):
        vs = cx.build_stalk(flag, SS)
        if len(vs) < 2:
            continue
        if not all(
            containment_by_sum(subs[a], subs[b]) or containment_by_sum(subs[b], subs[a])
            for i, a in enumerate(vs)
            for b in vs[i + 1 :]
        ):
            continue
        found += 1
        assert cx.quillen_witness(vs, flag, SS)
        u0 = vs[0]
        for u in vs:
            image = cx._join(2, 3, u, u0)
            assert image == (u if containment_by_sum(subs[u0], subs[u]) else u0)
    assert found == 21


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 3), (2, 4)])
def test_join_is_the_least_rational_subspace_containing_both(p, d):
    # U + U0 without a sum: the least proper subspace holding both, of
    # dim U + dim U0 - dim(U meet U0) by the kernel route; None if none is proper
    subs = rational_subspaces(p, d)
    holding = [{k for k, v in enumerate(subs) if containment_by_sum(u, v)} for u in subs]
    for i, u in enumerate(subs):
        for j, w in enumerate(subs):
            k = min(holding[i] & holding[j], key=lambda k: subs[k].dim, default=None)
            dim = subs[k].dim if k is not None else d
            assert dim == u.dim + w.dim - kernel_intersection(u, w).dim
            assert cx._join(p, d, i, j) == k


def first_minimal_vertex(verts, subs):
    """The minimal vertex found by scanning for one containing no other."""
    return next(
        v for v in verts if not any(u != v and containment_by_sum(subs[u], subs[v]) for u in verts)
    )


def test_witness_base_is_the_first_minimal_vertex():
    # build_stalk returns ascending positions, which sort by (dim, basis), so
    # its first vertex, the U0 of the witness, contains no other vertex
    g, subs = from_values([3, 1, -1, -3]), rational_subspaces(2, 4)
    stalks = 0
    for flag in enumerate_flags(g, 2, 1):
        verts = cx.build_stalk(flag, SS)
        if not verts:
            continue
        stalks += 1
        assert list(verts) == sorted(set(verts))
        assert verts[0] == first_minimal_vertex(verts, subs)
    assert stalks == 315


@pytest.mark.parametrize(
    "values,family,ns", [([3, 1, -1, -3], "ss", (1,)), ([2, 1, -3], "ge:1", (1, 2))]
)
def test_cached_stalk_homology_equals_a_fresh_computation(values, family, ns):
    g, family = from_values(values), parse_family(family)
    stalks = 0
    for n in ns:
        for flag in enumerate_flags(g, 2, n):
            verts = cx.build_stalk(flag, family)
            if not verts:
                continue
            stalks += 1
            fresh = cx._order_complex_homology.__wrapped__(cx._stalk_above(verts, 2, g.d))
            assert cx.stalk_homology(verts, 2, g.d) == fresh
    assert stalks


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_stalk_counts_equal_every_flag_counts(n):
    g, family = from_values([2, 1, -3]), parse_family("ge:1")
    assert cx.stalk_counts(g, family, 2, n) == stalk_counts_every_flag(g, family, 2, n)


def test_stalks_of_one_type_share_few_containment_relations():
    cx._order_complex_homology.cache_clear()
    assert cx.stalk_counts(from_values([3, 1, -1, -3]), SS, 2, 1) == (315, 315, 0)
    assert 0 < cx._order_complex_homology.cache_info().currsize <= 27


@pytest.mark.parametrize(
    "values,family,p,n",
    [((3, 1, -1, -3), "ss", 2, 1), ((2, 1, -3), "ge:1", 2, 2), ((1, 1, -2), "ss", 3, 1)],
)
def test_stalk_chains_stay_within_the_stalk_price(values, family, p, n):
    # `stalk` prices each flag at all_flag_points(d, p) - 1, the nonempty
    # chains of proper nonzero rational subspaces: every stalk's order
    # complex has at most that many simplices, and the whole poset has that many
    g, family = from_values(values), parse_family(family)
    bound = all_flag_points(g.d, p) - 1
    assert sum(map(len, cx._stalk_chains(cx._containment(p, g.d)))) == bound
    stalks = 0
    for flag in enumerate_flags(g, p, n):
        verts = cx.build_stalk(flag, family)
        if verts:
            stalks += 1
            assert sum(map(len, cx._stalk_chains(cx._stalk_above(verts, p, g.d)))) <= bound
    assert stalks


STALK_GRID = (
    [((3, 1, -1, -3), "ss", 2, 1)]
    + [((2, 1, -3), family, 2, n) for family in ("ss", "ge:1") for n in (1, 2, 3)]
    + [((1, 1, -2), "ss", 3, n) for n in (1, 2)]
    + [((Fraction(3, 2), Fraction(1, 2), -2), "ge:1/3", 3, n) for n in (1, 2)]
    # a degree on the threshold, and one between it and the next integer below
    + [((Fraction(3, 2), Fraction(1, 2), -2), family, 3, 1) for family in ("ge:1/2", "ge:-1/3")]
)


@pytest.mark.parametrize("values,family,p,n", STALK_GRID)
def test_stalk_degree_vectors_equal_per_subspace_types(values, family, p, n):
    # the integer degree vector against the scaled threshold, on a fresh and on
    # a shared meet table, picks the vertices the induced types pick
    g, family = from_values(values), parse_family(family)
    subs = rational_subspaces(p, g.d)
    for flag in enumerate_flags(g, p, n):
        fresh = FilteredSpace(flag.field, flag.slope, flag.members, MeetStore(flag.field, g))
        expected = tuple(i for i, u in enumerate(subs) if family.contains(induced_type(flag, u)))
        assert cx.build_stalk(fresh, family) == expected
        assert cx.build_stalk(flag, family) == expected


def recorded_flags(monkeypatch) -> list:
    """Every flag the enumeration yields from now on, in order."""
    flags = []
    enumerate_all = flagenum.enumerate_flags

    def recording(*args):
        for flag in enumerate_all(*args):
            flags.append(flag)
            yield flag

    monkeypatch.setattr(flagenum, "enumerate_flags", recording)
    return flags


def test_stalk_pass_intersects_and_joins_each_rational_pair_once(monkeypatch):
    g, p = from_values([3, 1, -1, -3]), 2
    flags = recorded_flags(monkeypatch)
    calls = {"intersect": 0, "sum_with": 0}
    for name in calls:
        def counted(self, other, name=name, original=getattr(SubspaceGF, name)):
            calls[name] += 1
            return original(self, other)

        monkeypatch.setattr(SubspaceGF, name, counted)
    cx._join.cache_clear()
    assert cx.stalk_counts(g, SS, p, 1) == (315, 315, 0)
    subs = rational_subspaces(p, g.d)
    assert 0 < calls["intersect"] <= len(subs) * (len(subs) + 1) // 2 == 2145
    assert 0 < calls["sum_with"] <= 351
    # at n = 1 every rational subspace is a member, and one intersection
    # fills dim(U meet W) in both rows
    store, position = flags[0].store, rational_positions(p, g.d)
    assert all(flag.store is store for flag in flags)
    assert set(store.entries) == set(position)
    for w in subs:
        for u, dim in zip(subs, store.row(w.basis)):
            assert dim == store.row(u.basis)[position[w.basis]] == kernel_intersection(u, w).dim


@pytest.mark.parametrize("g", [drinfeld(4), from_values([2, 1, 1, -4])])
def test_meet_rows_are_filed_only_under_members(monkeypatch, g):
    # the flags of each type share one store; at n = 1 a rational U of a
    # member's dim gets a mirrored row, and every line (drinfeld(4)) is a
    # member, while no plane of GF(2)^4 is a member of a (2,1,1,-4) flag
    flags = recorded_flags(monkeypatch)
    total, in_y, failed = cx.stalk_counts(g, SS, 2, 1)
    assert total == len(flags) and in_y and not failed
    members = {m.basis for flag in flags for m in flag.members[:-1]}
    for flag in flags:
        assert flag.store.entries and set(flag.store.entries) <= members
        assert all(UNKNOWN not in row for row in flag.rows)


def test_join_cache_keeps_the_vertex_check():
    # drop U + U0 from a stalk: the witness must fail whether or not the
    # join of (U, U0) is already cached
    subs, position = rational_subspaces(2, 4), rational_positions(2, 4)
    for flag in enumerate_flags(from_values([3, 1, -1, -3]), 2, 1):
        verts = cx.build_stalk(flag, SS)
        images = [position.get(subs[u].sum_with(subs[verts[0]]).basis) for u in verts]
        dropped = next((im for u, im in zip(verts, images) if im not in (u, verts[0])), None)
        if dropped is not None:
            break
    fewer = tuple(v for v in verts if v != dropped)
    assert len(fewer) >= 2
    cx._join.cache_clear()
    assert not cx.quillen_witness(fewer, flag, SS)
    assert cx.quillen_witness(verts, flag, SS)  # caches the join of every pair
    assert not cx.quillen_witness(fewer, flag, SS)


# -- closed-stratum counting -------------------------------------------------------


# slope values -> the primes their closed strata are counted over
CLOSED_STRATUM_PRIMES = {
    (2, 1, -3): (2, 3),
    (1, 1, -2): (2, 3),
    (3, 1, -1, -3): (2,),
    (2, 2, -1, -3): (2,),
    (3, -1, -1, -1): (2,),
    (1, 0, -1): (3,),
}


@pytest.mark.parametrize("values", list(CLOSED_STRATUM_PRIMES))
def test_closed_stratum_cell_counts(values):
    g = from_values(values)
    for q in CLOSED_STRATUM_PRIMES[values]:
        for family in (SS, parse_family("ge:1")):
            for ptype in parabolic_types(g.d):
                if ptype.is_full:
                    continue
                geometric = cx.closed_stratum_count(g, family, ptype, q)
                predicted = sum(q ** length(w) for w in coh.omega_set(g, family, ptype))
                assert geometric == predicted, (q, family, ptype)


def test_closed_stratum_count_rank_four():
    g = from_values([1, 1, -1, -1])
    ptype = ParabolicType.from_gens(4, [1, 3])
    geometric = cx.closed_stratum_count(g, SS, ptype, 2)
    predicted = sum(2 ** length(w) for w in coh.omega_set(g, SS, ptype))
    assert geometric == predicted
    with pytest.raises(ConfigError):
        cx.closed_stratum_count(g, SS, ParabolicType.full(4), 2)


# -- package structure -------------------------------------------------------------


PACKAGE = Path(cx.__file__).resolve().parent


def intra_package_imports(module_level: bool = False) -> dict[str, set[str]]:
    """For each perdom module, the perdom modules it imports with a relative
    `from` statement anywhere in its body, function-local ones included, or
    with module_level only those among its top-level statements, which run
    whenever the module is imported."""
    modules = {}  # module name -> (file, the package its relative imports start from)
    for path in PACKAGE.rglob("*.py"):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        package = ".".join(parts[:-1])
        modules[package if parts[-1] == "__init__" else ".".join(parts)] = (path, package)
    graph = {}
    for name, (path, package) in modules.items():
        edges = set()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body if module_level else ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                base = package.rsplit(".", node.level - 1)[0]
                target = f"{base}.{node.module}" if node.module else base
                # `from . import x` imports module x; `from .x import y` imports x
                edges |= {f"{target}.{a.name}" for a in node.names} | {target}
        graph[name] = (edges & modules.keys()) - {name}
    return graph


FIELD_MODULES = {"perdom.exactalg.gf", "perdom.exactalg.subspaces"}
# modules that a module must not load when it is imported, directly or through
# another module: the induction complexes run without the slope, flag, formula
# and check layers, the formula layers without a finite field, and slope
# functions without the symmetric group
FORBIDDEN_AT_IMPORT = {
    "perdom.complexes": {"perdom.slopes", "perdom.flagenum", "perdom.cohomology", "perdom.checks"},
    "perdom.cohomology": FIELD_MODULES,
    "perdom.slopes": FIELD_MODULES | {"perdom.weyl"},
    "perdom.weyl": FIELD_MODULES,
}


def test_module_level_imports_keep_the_layer_boundaries():
    graph = intra_package_imports(module_level=True)
    # the stalk half of complexes imports slopes inside a function
    assert "perdom.weyl" in graph["perdom.complexes"]
    assert "perdom.slopes" in intra_package_imports()["perdom.complexes"]
    for name, forbidden in FORBIDDEN_AT_IMPORT.items():
        loaded, todo = set(), [name]
        while todo:
            new = graph[todo.pop()] - loaded
            loaded |= new
            todo.extend(new)
        assert not loaded & forbidden, (name, sorted(loaded & forbidden))


def test_package_import_graph_has_no_cycle():
    graph = intra_package_imports()
    state: dict[str, str] = {}

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph.get(name, ())):
            if state.get(dep) == "open":
                raise AssertionError("import cycle: " + " -> ".join(path + [dep]))
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])


# FieldSpec.sub has no caller in src/: rref clears rows with axpy and neg.  It
# stays because the benchmark tracer counts calls to it by name, and goes
# together with that counter.
UNREFERENCED_ALLOWED = {"FieldSpec.sub"}


def test_every_function_has_a_caller_in_src():
    # a module function counts as used when another part of src/ names it
    # (bare or as an attribute); a method only when it is read as an
    # attribute; a read of C.attr, where C names a class in src/, counts only
    # for C's own attr; references inside the function's own body do not count
    defs = []  # (qualified name, bare name, is a method, def node)
    refs = []  # (name, read as an attribute, the name it is read from, the enclosing defs)
    classes = set()

    def visit(node, owner, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    qualified = f"{owner}.{child.name}" if owner else child.name
                    defs.append((qualified, child.name, owner is not None, child))
                visit(child, None, enclosing | {id(child)})
            elif isinstance(child, ast.ClassDef):
                classes.add(child.name)
                visit(child, child.name, enclosing)
            else:
                if isinstance(child, ast.Name):
                    refs.append((child.id, False, None, enclosing))
                elif isinstance(child, ast.Attribute):
                    base = child.value.id if isinstance(child.value, ast.Name) else None
                    refs.append((child.attr, True, base, enclosing))
                visit(child, None, enclosing)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None, frozenset())
    unreferenced = sorted(
        qualified
        for qualified, name, is_method, node in defs
        if not any(
            ref == name and (attr or not is_method) and id(node) not in enclosing
            and (base not in classes or qualified == f"{base}.{name}")
            for ref, attr, base, enclosing in refs
        )
    )
    assert unreferenced == sorted(UNREFERENCED_ALLOWED)
