import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mompoly.kaehler
import mompoly.report
from mompoly import census, classify, difftype, polygon
from mompoly.census import (
    ItemResult,
    enumerate_convex,
    enumerate_triangles,
    grid_points,
    run_census,
)
from mompoly.classify import DiffType, analyze, classify_triangle
from mompoly.difftype import diffeo_type
from mompoly.errors import ChamberError, GeometryError
from mompoly.kaehler import is_kaehlerizable
from mompoly.lattice import RationalPoint, primitive_int_ray
from mompoly.polygon import convex_hull, form_point, int_hull, integer_form
from mompoly.report import full_report

from oracle import _jarvis_hull, oracle_family_triangles, oracle_is_valid, oracle_kaehler


def test_grid_points():
    pts = grid_points(1)
    assert len(pts) == 6
    assert all(p.x >= p.y for p in pts)
    assert pts == sorted(pts)
    half = grid_points(1, 2)
    assert RationalPoint.of("1/2", "-1/2") in half


def test_enumerate_triangles_counts():
    pts = grid_points(1)
    tris = [indices for indices, _ in enumerate_triangles(pts)]
    # 6 choose 3 = 20 triples, minus the collinear ones.
    assert all(len(t) == 3 for t in tris)
    assert len(tris) == len(set(tris))
    assert 10 < len(tris) < 20


def test_enumerate_convex_small():
    pts = grid_points(1)
    items = [indices for indices, _ in enumerate_convex(pts)]
    assert len(items) == len(set(items))
    singles = [it for it in items if len(it) == 1]
    pairs = [it for it in items if len(it) == 2]
    tris = [it for it in items if len(it) == 3]
    assert len(singles) == 6
    assert len(pairs) == 15
    assert len(tris) == len(list(enumerate_triangles(pts)))
    # Quadrilaterals exist in this grid, e.g. the unit square below the wall.
    assert any(len(it) == 4 for it in items)


def test_enumerate_convex_complete():
    """Every subset of the max-coord 2 grid in convex position, once each,
    against a brute force over all subsets with the oracle's own hull."""
    grid = [(i, j) for i in range(-2, 3) for j in range(-2, 3) if i >= j]
    expected = set()
    for mask in range(1, 1 << len(grid)):
        subset = [p for k, p in enumerate(grid) if mask >> k & 1]
        if len(_jarvis_hull(subset)) == len(subset):
            expected.add(frozenset(subset))
    points = grid_points(2)
    items = [indices for indices, _ in enumerate_convex(points)]
    assert all(list(it) == sorted(it) for it in items)
    found = [frozenset((int(points[k].x), int(points[k].y)) for k in it) for it in items]
    assert len(found) == len(set(found)) == 15 + 105 + 1499
    assert set(found) == expected


@pytest.mark.parametrize("enumerate_candidates, denominator", [
    pytest.param(enumerate_convex, 1, id="1"),
    pytest.param(enumerate_convex, 2, id="2"),
    pytest.param(enumerate_triangles, 2, id="triangles"),
])
def test_enumerate_convex_yields_hulls_in_preorder(enumerate_candidates, denominator):
    """Each candidate's ccw is the hull of its vertices, counterclockwise
    from the smallest, as indices in the sorted points, and its `indices`
    are the same in increasing order; enumerate_triangles keeps the same
    contract.  A chain of enumerate_convex of length L >= 4
    follows its prefix, the last chain yielded with length L - 1."""
    points = grid_points(2, denominator)
    _, xy = integer_form(points)
    last = {}
    chains = 0
    for indices, ccw in enumerate_candidates(points):
        assert indices == tuple(sorted(ccw))
        assert [points[k] for k in indices] == sorted(points[k] for k in ccw)
        if len(ccw) <= 2:
            assert list(ccw) == sorted(ccw)
        else:
            pairs = tuple([xy[k] for k in ccw])
            assert int_hull(pairs) == pairs
        if len(ccw) >= 4:
            assert last[len(ccw) - 1] == ccw[:-1]
            chains += 1
        last[len(ccw)] = ccw
    if enumerate_candidates is enumerate_convex:
        assert chains > 0 and max(last) == 6
    else:
        assert chains == 0 and list(last) == [3]


def _scan_convex(points):
    """enumerate_convex as a scan, its reference: each chain node tests
    every point left of the first edge (`later`) on its own, where
    enumerate_convex reads the points that pass from its bitmask table."""
    _, xy = integer_form(sorted(points))
    for k in range(len(xy)):
        yield (k,), (k,)
    for i, j in itertools.combinations(range(len(xy)), 2):
        yield (i, j), (i, j)

    def extend(chain, later, ux, uy):
        # p must turn left at the chain's newest point c, and have the
        # chain's first point s left of the edge c -> p.
        sx, sy = xy[chain[0]]
        cx, cy = xy[chain[-1]]
        for j in later:
            px, py = xy[j]
            dx, dy = px - cx, py - cy
            if ux * dy - uy * dx > 0 and dx * (sy - py) - dy * (sx - px) > 0:
                ccw = chain + (j,)
                yield tuple(sorted(ccw)), ccw
                yield from extend(ccw, later, dx, dy)

    for i, (sx, sy) in enumerate(xy):
        for j in range(i + 1, len(xy)):
            ux, uy = xy[j][0] - sx, xy[j][1] - sy
            later = [k for k in range(i + 1, len(xy))
                     if ux * (xy[k][1] - sy) - uy * (xy[k][0] - sx) > 0]
            yield from extend((i, j), later, ux, uy)


@pytest.mark.parametrize("max_coord", [1, 2, 3])
@pytest.mark.parametrize("denominator", [1, 2, 3])
def test_enumerate_convex_matches_the_scan(max_coord, denominator):
    """The bitmask enumerator yields the scan's (indices, ccw) pairs, in
    the scan's order."""
    points = grid_points(max_coord, denominator)
    assert list(enumerate_convex(points)) == list(_scan_convex(points))


@st.composite
def _point_sets(draw):
    """Up to 12 points with denominators 1 to 3, some of them repeated, in
    any order."""
    coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    distinct = draw(st.lists(st.builds(RationalPoint, coord, coord), min_size=1, max_size=9))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=12 - len(distinct)))
    return draw(st.permutations(distinct + repeats))


@settings(max_examples=200, deadline=None)
@given(_point_sets())
def test_enumerate_convex_matches_the_scan_on_any_points(points):
    assert list(enumerate_convex(points)) == list(_scan_convex(points))


def _half_planes_by_cross_products(xy):
    """census._half_planes by its definition, its reference: bit k of
    left[a][b] is set iff the cross product of b - a and k - a is positive,
    each of the n^2 masks from its own n cross products."""
    return [[sum([1 << k for k, (x, y) in enumerate(xy)
                  if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0])
             for bx, by in xy]
            for ax, ay in xy]


def _assert_half_planes(xy):
    """_half_planes gives its reference's table, and for each pair a, b
    its two masks split the points off the line ab between them."""
    left = census._half_planes(xy)
    assert left == _half_planes_by_cross_products(xy)
    for a, (ax, ay) in enumerate(xy):
        assert left[a][a] == 0
        for b, (bx, by) in enumerate(xy):
            off_line = sum(1 << k for k, (x, y) in enumerate(xy)
                           if (bx - ax) * (y - ay) != (by - ay) * (x - ax))
            assert left[a][b] & left[b][a] == 0
            assert left[a][b] | left[b][a] == off_line


@pytest.mark.parametrize("max_coord", [1, 2, 3, 4])
@pytest.mark.parametrize("denominator", [1, 2, 3])
def test_half_planes_match_the_cross_products(max_coord, denominator):
    _, xy = integer_form(grid_points(max_coord, denominator))
    _assert_half_planes(xy)


@st.composite
def _int_point_sets(draw):
    """Up to 20 int pairs: scattered points and whole collinear runs, some
    of them repeated, in any order."""
    coord = st.integers(-6, 6)
    points = draw(st.lists(st.tuples(coord, coord), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        (x, y), (dx, dy) = draw(st.tuples(coord, coord)), draw(st.tuples(coord, coord))
        points += [(x + t * dx, y + t * dy) for t in range(draw(st.integers(2, 5)))]
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=20 - len(points)))
    return draw(st.permutations(points))


@settings(max_examples=200, deadline=None)
@given(_int_point_sets())
def test_half_planes_match_the_cross_products_on_any_points(xy):
    _assert_half_planes(xy)


def test_census_builds_the_half_plane_table_once(monkeypatch):
    """A drained enumerate_convex and an `--shape all` census each build one
    half-plane table; a triangles census builds none."""
    calls = []
    half_planes = census._half_planes
    monkeypatch.setattr(census, "_half_planes", lambda xy: calls.append(xy) or half_planes(xy))
    points = grid_points(2)
    _, xy = integer_form(points)
    assert sum(1 for _ in enumerate_convex(points)) == 1619
    assert calls == [xy]
    calls.clear()
    run_census(2, shape="all")
    assert calls == [xy]
    calls.clear()
    run_census(2)
    assert calls == []


def _classify_via_analysis(points, indices):
    """The ItemResult of the full Analysis of the hull of the candidate's
    points, points[k] for k in indices."""
    analysis = analyze(convex_hull([points[k] for k in indices]))
    if not analysis.report.valid:
        return ItemResult(indices, False, None, None, None)
    kaehler, _ = is_kaehlerizable(analysis)
    if len(analysis.polygon) != 3:
        return ItemResult(indices, True, None, kaehler, None)
    fam = classify_triangle(analysis)
    return ItemResult(indices, True, fam.tag, kaehler, diffeo_type(fam, analysis).value)


@pytest.mark.parametrize("max_coord, denominator, shape", [
    (3, 1, "triangles"), (3, 2, "triangles"), (3, 3, "triangles"), (4, 1, "triangles"),
    (2, 1, "all"), (2, 2, "all"),
])
def test_census_items_agree_with_analysis(max_coord, denominator, shape):
    """run_census judges each candidate on its grid indices and the grid's
    ray table, and takes a valid one's fields from the first candidate of
    its ray signature; the full Analysis of the candidate's own hull gives
    the same items (at max-coord 4, for 942 memo hits among 1,070 valid
    triangles)."""
    items = []
    run_census(max_coord, denominator, shape, on_item=items.append)
    points = grid_points(max_coord, denominator)
    enumerate_candidates = enumerate_triangles if shape == "triangles" else enumerate_convex
    assert items == [_classify_via_analysis(points, indices)
                     for indices, _ in enumerate_candidates(points)]


@pytest.mark.parametrize("max_coord, shape", [(3, "triangles"), (2, "all")])
def test_census_hands_on_item_item_results(max_coord, shape):
    """on_item receives ItemResult objects, read by field name and
    immutable.  An ItemResult equals the plain tuple of its fields, so
    test_census_items_agree_with_analysis alone would accept bare tuples."""
    items = []
    run_census(max_coord, shape=shape, on_item=items.append)
    assert any(item.valid for item in items) and not all(item.valid for item in items)
    for item in items:
        assert type(item) is ItemResult
        assert item == ItemResult(indices=item.indices, valid=item.valid,
                                  family_tag=item.family_tag, kaehler=item.kaehler,
                                  diff_type=item.diff_type)
        with pytest.raises(AttributeError):
            item.valid = not item.valid


@pytest.mark.parametrize("denominator", [1, 2])
@pytest.mark.parametrize("max_coord, shape", [(3, "triangles"), (2, "all")])
def test_census_summary_is_the_same_with_and_without_on_item(max_coord, shape, denominator):
    """run_census gives the same summary with on_item=None and with a
    callback; its total is the number of candidates the enumerator yields
    and its valid and invalid counts add up to it."""
    items = []
    with_callback = run_census(max_coord, denominator, shape, on_item=items.append)
    without = run_census(max_coord, denominator, shape)
    assert with_callback == without
    enumerate_candidates = enumerate_triangles if shape == "triangles" else enumerate_convex
    candidates = sum(1 for _ in enumerate_candidates(grid_points(max_coord, denominator)))
    assert without.total == len(items) == candidates
    assert without.valid + without.invalid == without.total
    assert without.valid == sum(item.valid for item in items) > 0
    assert without.by_family == Counter(item.family_tag for item in items
                                        if item.family_tag is not None)


@pytest.mark.parametrize("enumerate_candidates", [enumerate_triangles, enumerate_convex])
def test_enumerators_yield_grid_indices(enumerate_candidates):
    """A candidate is carried as grid indices, never as points: each yield
    is a pair of tuples of ints, its indices in increasing order and the
    same counterclockwise; the stream writes the grid points' texts by
    index."""
    points = grid_points(2, 2)
    candidates = list(enumerate_candidates(points))
    assert candidates
    for indices, ccw in candidates:
        assert type(indices) is tuple and type(ccw) is tuple
        assert indices == tuple(sorted(ccw))
        assert all(type(k) is int and 0 <= k < len(points) for k in indices)


def _assert_ray_table(points):
    """rays[i][j] is the id of the primitive ray from point i to point j
    and the negation's id is that id ^ 1; the ids are those of dirs."""
    grid = census._Grid(points)
    xy, rays, dirs = grid.xy, grid.rays, grid.dirs
    assert len(rays) == len(xy)
    for i, j in itertools.permutations(range(len(xy)), 2):
        (xi, yi), (xj, yj) = xy[i], xy[j]
        assert dirs[rays[i][j]] == primitive_int_ray(xj - xi, yj - yi)
        assert rays[j][i] == rays[i][j] ^ 1
    assert {r for row in rays for r in row if r is not None} == set(range(len(dirs)))
    return grid


@pytest.mark.parametrize("max_coord, denominator",
                         [(0, 1)] + [(m, d) for m in range(1, 7) for d in (1, 2)])
def test_ray_table_gives_each_direction_one_id(max_coord, denominator):
    """The ray table of a grid, and of an empty one (max-coord 0), in which
    no direction has two ids."""
    grid = _assert_ray_table(grid_points(max_coord, denominator) if max_coord else [])
    assert len(set(grid.dirs)) == len(grid.dirs)


@settings(max_examples=200, deadline=None)
@given(_point_sets())
def test_ray_table_on_any_chamber_points(points):
    """The ray table of distinct points in the chamber, in any order, and
    in lexicographic order, where no direction has two ids."""
    chamber = list(dict.fromkeys(RationalPoint(max(p), min(p)) for p in points))
    _assert_ray_table(chamber)
    grid = _assert_ray_table(sorted(chamber))
    assert len(set(grid.dirs)) == len(grid.dirs)


def test_census_grid_refuses_chamber_exit():
    vertices = [RationalPoint.of(x, y) for x, y in ((0, 0), (1, 0), (0, 1))]
    for route in (census._Grid, lambda points: _classify_via_analysis(points, (0, 1, 2))):
        with pytest.raises(ChamberError):
            route(vertices)


@pytest.fixture
def derived(monkeypatch):
    """Records the arguments of every triangle_family call of the census
    and refuses every Analysis, report, Polygon, hull and
    check_momentum_polytope, wherever it would be built or called."""
    made = []
    triangle_family = census.triangle_family

    def recording(*args):
        made.append(args)
        return triangle_family(*args)

    def refused(*args, **kwargs):
        raise AssertionError("the census built an Analysis, report, Polygon or hull")

    monkeypatch.setattr(census, "triangle_family", recording)
    for cls in (classify.Analysis, classify.ClassificationReport, classify.VertexAnalysis):
        monkeypatch.setattr(cls, "__new__", refused)
    monkeypatch.setattr(polygon.Polygon, "__init__", refused)
    monkeypatch.setattr(polygon.Polygon, "_hull", refused)
    for module, name in ((polygon, "convex_hull"), (classify, "convex_hull"),
                         (classify, "check_momentum_polytope")):
        monkeypatch.setattr(module, name, refused)
    return made


def _signature(vertices):
    """A valid candidate's ray signature, from the full Analysis of its own
    hull: (on_wall, ray to the next vertex, ray to the previous one) at
    each hull vertex, counterclockwise from the smallest."""
    return tuple((va.on_wall, *va.rays) for va in analyze(convex_hull(vertices)).report.vertex_data)


def _first_triangle_per_signature(points, valid):
    """The hull of the first valid triangle of each signature, in
    first-seen order, for valid items of a census on the grid `points`."""
    first = {}
    for item in valid:
        if len(item.indices) == 3:
            vertices = [points[k] for k in item.indices]
            first.setdefault(_signature(vertices), vertices)
    return [convex_hull(vertices).vertices for vertices in first.values()]


def _derived_triangles(derived):
    """The vertices of each triangle handed to triangle_family, from its int
    pairs and scale, in call order."""
    return [tuple([form_point(q, scale) for q in xy]) for xy, scale, *_ in derived]


def test_census_analyzes_only_valid_candidates(derived, monkeypatch):
    """An invalid candidate is rejected from the verdict rows; a valid one's
    fields are those of its ray signature, and only the first valid
    triangle of each signature is derived, with no Analysis."""
    valid = []
    summary = run_census(2, on_item=lambda item: item.valid and valid.append(item))
    monkeypatch.undo()
    assert summary.total > summary.valid == len(valid) > len(derived) > 0
    assert _derived_triangles(derived) == _first_triangle_per_signature(grid_points(2), valid)


def test_census_checks_every_valid_triangle_rebuilds(derived, monkeypatch):
    """run_census(4) derives 128 signatures for its 1,070 valid triangles
    (run_census(6) 284 for 5,203), and the one rebuild check,
    classify.require_rebuild, runs once on every valid triangle: inside
    triangle_family for the first of a signature, in the judge for the
    later ones."""
    checked = []
    require_rebuild = classify.require_rebuild

    def recording(family, xy, *args):
        checked.append(xy)
        return require_rebuild(family, xy, *args)

    for module in (classify, census):
        monkeypatch.setattr(module, "require_rebuild", recording)
    for max_coord, valid, signatures in ((4, 1070, 128), (6, 5203, 284)):
        checked.clear()
        derived.clear()
        assert run_census(max_coord).valid == valid
        assert len(derived) == signatures
        assert len(checked) == len(set(checked)) == valid


def test_census_memo_hits_run_the_rebuild_check(monkeypatch):
    """A memo hit rebuilds its triangle from its own base, its own edge
    scale and the cone rays stored for its signature: cone rays that
    rebuild no triangle fail the census on its first hit, and the message
    names that triangle's three vertices as points, the signature's family
    tag and the cone rays checked, the doubled one among them."""
    derive = census._Grid.derive
    stored = []

    def wrong_rays(grid, *args):
        tag, kaehler, diff_type, (r1, r2) = derive(grid, *args)
        rays = (2 * r1, r2)
        stored.append((tag, rays))
        return tag, kaehler, diff_type, rays

    monkeypatch.setattr(census._Grid, "derive", wrong_rays)
    with pytest.raises(AssertionError, match="does not rebuild the triangle") as excinfo:
        run_census(4)
    message = str(excinfo.value)
    named = [p for p in grid_points(4) if repr(p) in message]
    assert len(named) == 3
    assert analyze(convex_hull(named)).report.valid
    assert any(message.startswith(f"{tag} does not rebuild")
               and message.endswith(f" with the cone rays {rays}") for tag, rays in stored)


@pytest.mark.parametrize("max_coord, denominator, shape", [
    (3, 1, "triangles"), (3, 2, "triangles"), (2, 1, "all"),
])
def test_census_hands_over_the_validity_report(derived, monkeypatch, max_coord, denominator,
                                               shape):
    """The facts the census hands to triangle_family and diff_type, read
    from its verdict rows and ray table, are the ones check_momentum_polytope
    reports on the candidate's own hull: the base vertex's index, its rays
    and wall type, and the rays of the first vertex."""
    first_rays = []
    diff_type = census.diff_type
    monkeypatch.setattr(census, "diff_type",
                        lambda fam, r1, r2: first_rays.append((r1, r2)) or diff_type(fam, r1, r2))
    run_census(max_coord, denominator, shape)
    monkeypatch.undo()
    assert derived and len(first_rays) == len(derived)
    for (_, _, i, rays, wall_type), vertices, first in zip(
            derived, _derived_triangles(derived), first_rays):
        hull = convex_hull(vertices)
        assert hull.vertices == vertices
        report = classify.check_momentum_polytope(hull)
        assert report.valid
        assert i == classify.base_vertex(hull.xy)
        va = report.vertex_data[i]
        assert (rays, wall_type) == (va.rays, va.wall_type)
        assert first == report.vertex_data[0].rays


def test_census_reads_rays_from_one_table(monkeypatch):
    """The max-coord 4 grid has 45 points, 990 unordered pairs of them and
    108 distinct difference vectors between a point and a later one.  Its
    table reduces each difference vector once, by the gcd of its int pair:
    108 gcds, where one per pair took 990 and judging each triangle on its
    own hull computed 30,917 primitive rays.  Each verdict row judges a
    pair of ray ids once: 2,270 vertex_kind calls, each wall pattern
    matched once per pair."""
    rays = []
    kinds = []
    wall = []
    gcd, primitive_int_ray = census.gcd, polygon.primitive_int_ray
    vertex_kind = census.vertex_kind
    classify_wall_rays = classify.classify_wall_rays
    monkeypatch.setattr(census, "gcd", lambda a, b: rays.append((a, b)) or gcd(a, b))
    monkeypatch.setattr(polygon, "primitive_int_ray",
                        lambda a, b: rays.append((a, b)) or primitive_int_ray(a, b))
    monkeypatch.setattr(census, "vertex_kind",
                        lambda *args: kinds.append(args) or vertex_kind(*args))
    monkeypatch.setattr(classify, "classify_wall_rays",
                        lambda r1, r2: wall.append((r1, r2)) or classify_wall_rays(r1, r2))
    summary = run_census(4)
    assert summary.total == 13428 and summary.valid == 1070
    assert len(grid_points(4)) == 45
    assert len(rays) == len(set(rays)) == 108
    assert len(kinds) == len(set(kinds)) == 2270
    assert wall and len(wall) == len(set(wall))


def test_census_judges_chains_without_hulls(derived, monkeypatch):
    """An `--shape all` census judges each candidate on the chain
    enumerate_convex grew it as: it takes no hull and builds no Analysis,
    judges each chain vertex once for all the chains that extend it and
    reads each verdict from its row.  Each (on_wall, r1, r2) is judged
    once (65,459 vertex_kind calls when every candidate's hull was judged
    from scratch, 30,240 when a valid chain's vertices were judged again,
    19,757 when an interior vertex was judged on every visit, 1,051 now).
    Only the first valid triangle of each ray signature is derived; a
    valid polygon with four or more vertices (2,664 of the 3,024 valid
    items) gets a Kaehler verdict and no family.  That verdict is
    obstructing_edge on the polygon's own rays, once per polygon, and
    once more per derived triangle: 2,664 + 74 = 2,738 calls, where a
    memo per ray signature made 538 + 74 = 612."""
    kinds = []
    edges = []
    vertex_kind, obstructing_edge = census.vertex_kind, census.obstructing_edge
    monkeypatch.setattr(census, "vertex_kind",
                        lambda *args: kinds.append(args) or vertex_kind(*args))
    monkeypatch.setattr(census, "obstructing_edge",
                        lambda *args: edges.append(args) or obstructing_edge(*args))
    valid = []
    summary = run_census(3, shape="all", on_item=lambda item: item.valid and valid.append(item))
    triangles = len(derived)
    monkeypatch.undo()
    assert summary.total == 46667 and summary.valid == len(valid) == 3024
    assert sum(len(item.indices) >= 4 for item in valid) == 2664
    assert len(kinds) == len(set(kinds)) == 1051
    assert triangles == 74 and len(edges) == 2664 + triangles
    assert _derived_triangles(derived) == _first_triangle_per_signature(grid_points(3), valid)


@pytest.mark.parametrize("name", ["triangle_family", "diff_type", "require_rebuild"])
def test_report_and_census_read_each_fact_from_one_routine(monkeypatch, name):
    """The report and the census take a triangle's family from
    classify.triangle_family, its diff type from difftype.diff_type and its
    rebuild check from classify.require_rebuild: a routine patched to give
    a wrong value, in every module that binds it, changes both the full
    report of a triangle and the summary of run_census(3), and a rebuild
    check patched to refuse every family fails both.  The report and the
    census bind diff_type by name, as difftype's own diffeo_type reads it."""
    if name == "diff_type":
        assert mompoly.report.diff_type is census.diff_type is difftype.diff_type
        owners = (difftype, census, mompoly.report)
    else:
        owners = (classify, census)
    original = getattr(owners[0], name)
    assert all(getattr(module, name) is original for module in owners)

    def wrong(*args):
        if name == "require_rebuild":
            raise AssertionError("refused")
        if name == "diff_type":
            return DiffType.PROJECTIVE_SPACE_4, None
        # The same family and cone under another tag.
        value = original(*args)
        return type("Wrong", (type(value),), {"__slots__": (), "tag": "wrong"})(*value)

    triangle = [RationalPoint.of(x, y) for x, y in ((1, 0), (2, 0), (1, -1))]
    report, summary = full_report(triangle), run_census(3).as_dict()
    assert report["diffeo_type"]["type"] != "projective_space_4"
    for module in owners:
        monkeypatch.setattr(module, name, wrong)
    if name == "require_rebuild":
        for run in (lambda: full_report(triangle), lambda: run_census(3)):
            with pytest.raises(AssertionError, match="refused"):
                run()
        return
    wrong_report, wrong_summary = full_report(triangle), run_census(3).as_dict()
    key = "triangle_family" if name == "triangle_family" else "diffeo_type"
    assert wrong_report[key] != report[key]
    field = "by_family" if name == "triangle_family" else "by_diff_type"
    assert wrong_summary[field] != summary[field]
    assert wrong_summary["valid"] == summary["valid"]


def test_report_and_census_read_one_kaehler_rule(monkeypatch):
    """The report and the census take every Kaehler verdict from
    kaehler.obstructing_edge: patched, in both modules that bind it, to
    name edge 0 of every polygon, it turns the one-wall Kaehler
    quadrilateral's report false with edge 0 as witness, and every valid
    item of run_census(2, shape="all") false, the derived triangles and
    the larger polygons alike, while validity does not change."""
    quadrilateral = [RationalPoint.of(x, y) for x, y in ((2, 2), (5, 2), (5, 1), (2, 1))]
    assert census.obstructing_edge is mompoly.kaehler.obstructing_edge
    assert full_report(quadrilateral)["kaehler"] == {"verdict": True, "witness_edge": None}
    summary = run_census(2, shape="all")
    assert (summary.valid, summary.kaehler_true, summary.kaehler_false) == (343, 339, 4)
    for module in (mompoly.kaehler, census):
        monkeypatch.setattr(module, "obstructing_edge", lambda on_wall, rays: 0)
    # Edge 0 runs from the smallest vertex, (2, 1), counterclockwise.
    assert full_report(quadrilateral)["kaehler"] == {
        "verdict": False, "witness_edge": [[2, 1], [5, 1]]}
    summary = run_census(2, shape="all")
    assert (summary.valid, summary.kaehler_true, summary.kaehler_false) == (343, 0, 343)


@pytest.mark.parametrize("max_coord, denominator", [(3, 1), (2, 2)])
def test_triangle_and_chain_judges_agree(max_coord, denominator):
    """A triangles census judges its candidates with _triangle_judge, an
    `--shape all` census with _chain_judge.  On the same grid the two give
    the same ItemResult for every 3-point candidate, valid or not: the same
    family, Kaehler verdict and diff type, keyed by its indices."""
    chains = {}
    run_census(max_coord, denominator, "all",
               on_item=lambda item: len(item.indices) == 3 and chains.setdefault(item.indices, item))
    triangles = {}
    run_census(max_coord, denominator, "triangles",
               on_item=lambda item: triangles.setdefault(item.indices, item))
    assert len(triangles) > sum(item.valid for item in triangles.values()) > 0
    assert triangles == chains


@pytest.mark.parametrize("max_coord, denominator", [
    (True, 1), (2.5, 1), (2, True), (2, 1.0), ("2", 1), (None, 1),
])
def test_census_refuses_non_integers(max_coord, denominator):
    for shape in ("triangles", "all"):
        with pytest.raises(GeometryError, match="must be an integer"):
            run_census(max_coord, denominator, shape)


def test_census_propagates_on_item_error():
    seen = []

    def on_item(item):
        seen.append(item)
        raise RuntimeError("consumer failed")

    with pytest.raises(RuntimeError):
        run_census(4, on_item=on_item)
    assert len(seen) == 1


def test_census_all_shape():
    summary = run_census(1, shape="all")
    d = summary.as_dict()
    assert d["total"] > d["valid"] > 0
    # Points and segments are never valid (dimension < 2).
    assert d["invalid"] >= 6 + 15


def _coordinates(points, item):
    """The (x, y) of the grid points an item's indices name."""
    return [(points[k].x, points[k].y) for k in item.indices]


def test_census_all_agrees_with_oracle():
    items = []
    run_census(2, shape="all", on_item=items.append)
    assert len(items) == 1619
    points = grid_points(2)
    for item in items:
        assert item.valid == oracle_is_valid(_coordinates(points, item)), item
    assert any(item.valid and len(item.indices) >= 4 for item in items)


def test_census_kaehler_agrees_with_oracle():
    """The census reads a valid candidate's Kaehler verdict off its ray
    signature; the oracle decides it from the candidate's points.  On the
    `--shape all` grids of max-coord 2 and 3, every Kaehler-false item has
    four or more vertices: 4 of 260 and 48 of 2,664."""
    for max_coord, counts in ((2, (343, 260, 4)), (3, (3024, 2664, 48))):
        items = []
        run_census(max_coord, shape="all", on_item=items.append)
        points = grid_points(max_coord)
        valid = [item for item in items if item.valid]
        verdicts = [oracle_kaehler(_coordinates(points, item)) for item in valid]
        assert [item.kaehler for item in valid] == verdicts
        polygons = [verdict for item, verdict in zip(valid, verdicts) if len(item.indices) >= 4]
        assert (len(valid), len(polygons), polygons.count(False)) == counts
        assert verdicts.count(False) == counts[2]


@pytest.mark.parametrize("max_coord, denominator, counts", [
    (4, 1, {"delzant": 874, "wall_edge": 118, "half_refl_plus": 31, "half_refl_minus": 31,
            "reflection": 16}),
    (2, 2, {"delzant": 43, "wall_edge": 24, "half_refl_plus": 6, "half_refl_minus": 6,
            "reflection": 4}),
], ids=["max-coord-4", "max-coord-2-denominator-2"])
def test_census_valid_triangles_are_the_family_triangles(max_coord, denominator, counts):
    """The census filters the grid's triangles; the oracle generates the
    families' triangles on the same grid.  Both give the same triangles
    with the same family tags."""
    items = []
    run_census(max_coord, denominator, on_item=items.append)
    points = grid_points(max_coord, denominator)
    found = {frozenset(_coordinates(points, item)): item.family_tag
             for item in items if item.valid}
    generated = oracle_family_triangles(max_coord, denominator)
    assert found == generated
    assert Counter(generated.values()) == counts


_DUAL_TAG = {"half_refl_plus": "half_refl_minus", "half_refl_minus": "half_refl_plus"}


@pytest.mark.parametrize("max_coord, shape", [(3, "triangles"), (2, "all")])
def test_census_is_dual_under_minus_w0(max_coord, shape):
    """sigma(x, y) = (-y, -x), the map lambda -> -w0(lambda), maps the
    census grid onto itself and each candidate onto one of the same
    census.  The image keeps `valid`, `kaehler` and `diff_type`, and its
    family tag swaps half_refl_plus and half_refl_minus; the other tags
    stay.  sigma maps a ray signature to a different one, so this holds
    the memo's fields for one signature against those for its image."""
    items = []
    run_census(max_coord, shape=shape, on_item=items.append)
    points = grid_points(max_coord)
    by_points = {frozenset(_coordinates(points, item)): item for item in items}
    assert len(by_points) == len(items)
    for item in items:
        image = by_points[frozenset((-y, -x) for x, y in _coordinates(points, item))]
        assert (image.valid, image.kaehler, image.diff_type) == (
            item.valid, item.kaehler, item.diff_type), item
        assert image.family_tag == _DUAL_TAG.get(item.family_tag, item.family_tag), item
    tags = Counter(item.family_tag for item in items if item.valid)
    assert tags["half_refl_plus"] == tags["half_refl_minus"] > 0


# The moves of the max-coord 2 grid into a max-coord 4 grid, by the
# denominator of that grid.
_MOVES = {
    2: {"same": lambda x, y: (x, y),
        "shifted": lambda x, y: (x + Fraction(1, 2), y + Fraction(1, 2))},
    1: {"doubled": lambda x, y: (2 * x, 2 * y)},
}


@pytest.mark.parametrize("shape, counts", [
    ("triangles", {"same": 407, "shifted": 105, "doubled": 407}),
    ("all", {"same": 1619, "shifted": 275, "doubled": 1619}),
])
def test_census_is_invariant_under_shift_and_scale(shape, counts):
    """A shift along eps1+eps2 and a positive scaling keep the chamber, the
    wall and every lattice fact, so they keep a candidate's fields.  Every
    item of the max-coord 2 census equals, by points and fields, the item
    at its points moved: at the same points and at the points shifted by
    (eps1+eps2)/2 in the max-coord 4 / denominator 2 census (where the
    shift stays on the grid), and at the doubled points in the max-coord 4
    census."""
    items = []
    run_census(2, shape=shape, on_item=items.append)
    coarse = grid_points(2)
    for denominator, moves in _MOVES.items():
        index = {p: k for k, p in enumerate(grid_points(4, denominator))}
        images = {}
        for name, move in moves.items():
            for item in items:
                image = [RationalPoint(*move(coarse[k].x, coarse[k].y)) for k in item.indices]
                if all(p in index for p in image):
                    images[name, item] = tuple(sorted(index[p] for p in image))
        wanted, found = set(images.values()), {}
        run_census(4, denominator, shape, on_item=lambda item: item.indices in wanted
                   and found.setdefault(item.indices, item[1:]))
        assert Counter(name for name, _ in images) == {name: counts[name] for name in moves}
        for (name, item), indices in images.items():
            assert found[indices] == item[1:], (name, item)
