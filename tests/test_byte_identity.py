"""Byte-identity guard: sha256 digests of census streams, classify reports
and SVG drawings, recorded from the engine before its analysis refactor
(the census-all-2 digests before the integer rewrite of enumerate_convex,
the census-tri-4 digests before the integer form of polygons, the
census-all-2-d2 digests before the census rejected candidates on the
integer hull, the census-tri-3-d3 digests before the census read its
grid's integer form and wrote stream lines from cached point texts, the
reports.rational digest before reports were rendered by their own
renderer and their fixpoint images ordered on the integer form, the
svg.rational digest before the analysis kept its fixpoints in one
integer-ordered tuple, the census-all-3 digests before the census judged
`--shape all` candidates on their enumeration chains, the
reports.redundant and svg.rational-xray digests before reports printed
their points from the integer form and the x-ray was built on int pairs,
the census-tri-6 digests before triangles took their own judge and stream
writer; the woodward digests, which the CI step checks on the installed
console script, at the same commit; the halfrefl.svg digest, which it
checks too, before x-ray strata dropped their scale).

A refactor of the engine must not change a single output byte.  When a
change alters an output on purpose, record the new digests by running
this file as a script and say so in the change description:

    PYTHONPATH=src python tests/test_byte_identity.py
"""

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction

from mompoly.classify import analyze
from mompoly.cli import main
from mompoly.lattice import RationalPoint
from mompoly.polygon import convex_hull
from mompoly.report import full_report, render_document
from mompoly.svgplot import OVERLAYS, render_svg

from oracle import transform
from test_acceptance import _sweep_families

EXPECTED = {
    "census-tri-3.summary": "2f55cc5091fa5a3ce1999c86110b3d47f658aba05376e2ace16bb8754cef6ec2",
    "census-tri-3.stream": "75d25b1917fdb0cea9132167a0bf2d00e819c79100efc44e88fe4adb0ab8957b",
    "census-tri-4.summary": "c63ec3ae45c8c2220f4976278d87628a1e54422dbeddc9f3971b8773ab26b123",
    "census-tri-4.stream": "876ca508ff9c55aae682511ebfb87f0cbc25ca67ef9c506768d8b5f9fb44498e",
    "census-tri-6.summary": "6758d118cdb30017f804b245e8ec821efe5545214e8f5787861fc004db3c9da2",
    "census-tri-6.stream": "10b41b90859281ccabace9ebf7861ad737b736c1c7a5e7ab1a3a56d619fb3d65",
    "census-tri-3-d3.summary": "53eeb214ab87790926125983e64538e51fc9d0ac5bbdaacb6b4ee83d1532ed43",
    "census-tri-3-d3.stream": "4330d0b95c497d2de22bdbd68e3e726b0318ca3bdadb83d2e3103376d2f7b5f2",
    "census-all-1.summary": "990216e89c951aa7c3c4001dc5b9aef1b415d62d8f3c3df6829a41e4e301ee80",
    "census-all-1.stream": "5c0ce774f2ce0bbc2ec577d06f3868b5062e141fa34365ff0de7e77a04891117",
    "census-all-2.summary": "c05fc4d29a91c5a965a60296d64d4a97931d2a930f800513a57aeacfe01589db",
    "census-all-2.stream": "954e808c68637191398d25298120db53022ae0d53be6aeb14fb6eff1fc55a1c2",
    "census-all-3.summary": "eac45f0bc44ef721bdfbbd5ff1c1d88b50c74b17e8cefc8946b4776e32330cf8",
    "census-all-3.stream": "bf627dbfd3eca28aba017ce2729fe25b362d1473bbe7389e625e1e28157bedcf",
    "census-all-2-d2.summary": "2767981347e218cb78ab2b877d85e55cf7587a3434e81e47f727734a8095116c",
    "census-all-2-d2.stream": "8ab3340c46ee96784d969cbc49cb4c647e5dd3d51e6ff9bcb05d1517990e399e",
    "woodward.report": "574d60f837a5dfae7bdd97d9537b2e4639f8ff8c22037849a2be115b30cdd538",
    "woodward.svg": "be284b7d2418c385feda5a60c0b345ff0e5824d6a4685e3225767487e74f8a86",
    "halfrefl.svg": "3a53fd6967a3d48927b3ef8ff3e8b9484bd1ec1d0f5771c538a1bde82c12d46c",
    "reports.fixtures": "c4866ab59ac2935a79656f60ec560808f2fb57986960ea57dde426b901b42b22",
    "reports.figures": "712be223ea584a5e575f533ca0f20e218e49caf66152792faf14ea0ea64d00ce",
    "reports.rational": "99743ab99a9ed1f617dbbdfd5465555819180d8e2a7151cc3b0a797c09d93002",
    "reports.redundant": "b18f8a0be7dcc92e9cbe6d8431a1b08be5fab522daf7f1dd49c7d3086739530a",
    "reports.sweep": "b67e5df076a6474832c245afc271940330cc6df5adc79fd139a2b4964da58b61",
    "svg.figures": "74d82aa1a56d795e1476c815b34ad65e47b9889ff207c37a737af976d7b2a1b9",
    "svg.rational": "c2370fa8f442ef37ae0971f01decff6b43bf1e6db936e4235564e9429efd726f",
    "svg.rational-xray": "f725fb52493c117f18d8ac05d48f89560795021c74d6e27256b440f128e604dc",
}

FIGURES = (
    ((2, 2), (5, 2), (5, 1), (2, 1)),
    ((2, 2), (3, 2), (5, 1), (2, 1)),
    ((2, 2), (5, 2), (5, 0), (4, 0)),
    ((2, 2), (3, 2), (5, 1), (3, 1)),
)

# Acceptance fixtures, plus one polytope for each way a report can refuse.
FIXTURES = (
    ((0, 0), (1, 0), (0, -1), (3, -1)),                      # Woodward trapezoids
    ((0, 0), (1, 0), (1, -1), (3, -1)),
    *(((-1, -1), (0, -2), (j, -j - 1)) for j in range(5)),   # half-reflection triangles
    ((0, 0), (1, 0), (0, -1)),                               # reflection triangle
    ((0, 0), (1, 1), (3, 2)),                                # wall-edge triangle
    ((1, 0), (0, -1), (0, -2)),                              # Delzant triangle
    (("1/2", "1/2"), ("7/2", "1/2"), ("1/2", "-5/2")),       # scaled reflection triangle
    ((0, 0), (2, 2)),                                        # condition 1 fails
    ((1, 0), (3, 1), (2, -1)),                               # condition 3 fails
    ((0, 0), (2, 1), (2, -1)),                               # condition 4 fails
    ((1, 0), (2, 0), (1, -1), (2, -1)),                      # no wall vertex
    ((0, 0), (1, 1), (3, 2), (2, 0)),                        # two wall vertices
)

# Maps v -> s(eps1+eps2) + t*v with mixed denominators.  On the moved
# polygons the order of the fixpoint images is an order of fractions
# across denominators.
MOVES = (
    (Fraction(1, 3), Fraction(7, 5)),
    (Fraction(-5, 7), Fraction(11, 6)),
    (Fraction(2, 9), Fraction(3, 4)),
)


def _points(coords):
    return [RationalPoint.of(x, y) for x, y in coords]


def rational_inputs():
    """The vertices of every fixture and figure polygon moved by each of MOVES."""
    return [list(transform(convex_hull(_points(c)), s, t).vertices)
            for c in FIXTURES + FIGURES for s, t in MOVES]


def redundant_inputs():
    """Each rational input reversed, with every edge's midpoint, the
    vertices' centroid and its first vertex again: collinear, interior and
    duplicate points whose denominators differ from the vertices'."""
    out = []
    for points in rational_inputs():
        n = len(points)
        mids = [RationalPoint((a.x + b.x) / 2, (a.y + b.y) / 2)
                for a, b in zip(points, points[1:] + points[:1])]
        centroid = RationalPoint(sum(p.x for p in points) / n, sum(p.y for p in points) / n)
        out.append([*reversed(points), *mids, centroid, points[0]])
    return out


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
    return h.hexdigest()


def _census(max_coord: int, denominator: int, shape: str, tmp: str) -> tuple[str, str]:
    stream = os.path.join(tmp, f"{shape}-{max_coord}-{denominator}.jsonl")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["enumerate", "--max-coord", str(max_coord), "--denominator", str(denominator),
                   "--shape", shape, "--output", stream])
    assert rc == 0
    with open(stream, encoding="utf-8") as fh:
        return _sha([out.getvalue()]), _sha([fh.read()])


# The README's Woodward document, as the CI step writes it for the installed
# console script.
WOODWARD = '{"vertices": [[0,0],[1,0],[0,-1],[3,-1]]}\n'

# A rational quadrilateral on scale 2 whose one wall vertex is HalfReflPlus(j=0):
# its x-ray takes the all_edges rule, Woodward's the inner_edges_and_cross one.
HALFREFL = '{"vertices": [[0,0],["1/2","-1/2"],["3/2","-1/2"],[1,0]]}\n'


def _document(tmp: str, name: str, text: str) -> str:
    doc = os.path.join(tmp, f"{name}.json")
    with open(doc, "w", encoding="utf-8") as fh:
        fh.write(text)
    return doc


def _plot(tmp: str, doc: str, *overlays: str) -> str:
    """The digest of `mompoly plot doc` with the given overlays."""
    svg = os.path.join(tmp, "plot.svg")
    args = [arg for name in overlays for arg in ("--overlay", name)]
    assert main(["plot", doc, *args, "--output", svg]) == 0
    with open(svg, encoding="utf-8") as fh:
        return _sha([fh.read()])


def _woodward(tmp: str) -> tuple[str, str]:
    """The classify report and the x-ray and fixpoints plot of WOODWARD."""
    doc = _document(tmp, "woodward", WOODWARD)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["classify", doc]) == 0
    return _sha([out.getvalue()]), _plot(tmp, doc, "xray", "fixpoints")


def compute_digests() -> dict:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        # census-tri-3-d3 and census-all-2-d2 have fractional vertices: their
        # streams write "p/q" coordinates and their polygons have scale > 1.
        for name, max_coord, denominator, shape in (("census-tri-3", 3, 1, "triangles"),
                                                    ("census-tri-4", 4, 1, "triangles"),
                                                    ("census-tri-6", 6, 1, "triangles"),
                                                    ("census-tri-3-d3", 3, 3, "triangles"),
                                                    ("census-all-1", 1, 1, "all"),
                                                    ("census-all-2", 2, 1, "all"),
                                                    ("census-all-3", 3, 1, "all"),
                                                    ("census-all-2-d2", 2, 2, "all")):
            summary, stream = _census(max_coord, denominator, shape, tmp)
            digests[f"{name}.summary"] = summary
            digests[f"{name}.stream"] = stream
        digests["woodward.report"], digests["woodward.svg"] = _woodward(tmp)
        digests["halfrefl.svg"] = _plot(tmp, _document(tmp, "halfrefl", HALFREFL),
                                        "reflection", "xray", "fixpoints")
    digests["reports.fixtures"] = _sha(
        render_document(full_report(_points(c))) for c in FIXTURES)
    digests["reports.figures"] = _sha(
        render_document(full_report(_points(c))) for c in FIGURES)
    digests["reports.rational"] = _sha(
        render_document(full_report(points)) for points in rational_inputs())
    digests["reports.redundant"] = _sha(
        render_document(full_report(points)) for points in redundant_inputs())
    digests["reports.sweep"] = _sha(
        render_document(full_report(list(fam.triangle().vertices)))
        for fam in _sweep_families())
    digests["svg.figures"] = _sha(
        render_svg(convex_hull(_points(c)), OVERLAYS) for c in FIGURES)
    # The fixpoints overlay needs a valid polygon.
    digests["svg.rational"] = _sha(
        render_svg(hull, ("fixpoints",)) for hull in map(convex_hull, rational_inputs())
        if analyze(hull).report.valid)
    # The xray overlay needs a valid polygon with one wall vertex.
    digests["svg.rational-xray"] = _sha(
        render_svg(hull, ("xray",)) for hull in map(convex_hull, rational_inputs())
        if (report := analyze(hull).report).valid
        and sum(va.on_wall for va in report.vertex_data) == 1)
    return digests


def test_outputs_byte_identical():
    assert compute_digests() == EXPECTED


if __name__ == "__main__":
    print(json.dumps(compute_digests(), indent=4))
