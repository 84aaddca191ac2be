"""Correctness gate: decides which items of a pass count as failed.

Census passes are checked against the values recorded at the commit that
added the benchmark (summary and sha256 of the JSONL stream) and, on a
seed-chosen sample of stream lines, against the independent oracle in
tests/oracle.py.  Classify reports are checked against what the generator
built (validity, hull, family), against the oracle, against the first
pass of the run, and, for seeds with a recorded digest, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from gen import coord_out


def check_census_pass(rc: int, stdout: str, stream_path, expected: dict,
                      sample: set, oracle_is_valid) -> tuple[int, list[str]]:
    """Failed items of one census pass.  A wrong exit code, summary or
    stream digest fails every item of the pass; otherwise each sampled
    line whose verdict the oracle disputes fails."""
    fatal = []
    if rc != 0:
        fatal.append(f"exit code {rc}")
    if stdout != json.dumps(expected["summary"], indent=2) + "\n":
        fatal.append("census summary differs from the recorded one")
    digest = hashlib.sha256()
    disputed = []
    try:
        fh = open(stream_path, "rb")
    except OSError as exc:
        return expected["summary"]["total"], fatal + [f"no stream: {exc}"]
    with fh:
        for index, line in enumerate(fh):
            digest.update(line)
            if index in sample:
                try:
                    record = json.loads(line)
                    points = [(Fraction(x), Fraction(y)) for x, y in record["vertices"]]
                    agrees = record["valid"] == oracle_is_valid(points)
                except (ValueError, KeyError, TypeError) as exc:
                    disputed.append(f"stream line {index}: malformed: {exc!r}")
                    continue
                if not agrees:
                    disputed.append(f"stream line {index}: oracle disputes valid={record['valid']}")
    if digest.hexdigest() != expected["stream_sha256"]:
        fatal.append("stream sha256 differs from the recorded one")
    if fatal:
        return expected["summary"]["total"], fatal + disputed
    return len(disputed), disputed


def stream_items(stream_path):
    """(vertices, valid) of every line of a census stream."""
    with open(stream_path, "rb") as fh:
        for line in fh:
            record = json.loads(line)
            yield [(Fraction(x), Fraction(y)) for x, y in record["vertices"]], record["valid"]


def _family_problem(doc, family: dict):
    """Compare a report's triangle_family section with what was built.

    The recognized parameters are canonical, so they equal the built ones
    except for Delzant triangles with an edge on a ray where a_i + b_i = 0
    (then only the tag is compared)."""
    if family.get("family") != doc.family:
        return f"classified as {family.get('family')}, built as {doc.family}"
    params = doc.params
    if doc.family == "delzant" and not (params["a1"] + params["b1"] > 0
                                        and params["a2"] + params["b2"] > 0):
        return None
    for name, value in params.items():
        want = str(value) if isinstance(value, Fraction) else value
        if family.get(name) != want:
            return f"{doc.family} parameter {name}={family.get(name)!r}, built {want!r}"
    return None


def check_report(doc, rendered, oracle_is_valid):
    """Problem with one rendered report, or None when it checks out."""
    if rendered is None:
        return "raised"
    try:
        return _report_problem(doc, json.loads(rendered), oracle_is_valid)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"


def _report_problem(doc, report: dict, oracle_is_valid):
    if report["valid"] != doc.valid:
        return f"valid={report['valid']}, built valid={doc.valid}"
    points = [(Fraction(x), Fraction(y)) for x, y in report["input"]["vertices"]]
    if oracle_is_valid(points) != doc.valid:
        return "oracle disputes the verdict"
    if report["hull_vertices"] != [[coord_out(x), coord_out(y)] for x, y in doc.hull]:
        return "hull differs from the generator's hull"
    if doc.family is not None:
        problem = _family_problem(doc, report["triangle_family"])
        if problem:
            return problem
    if report["atiyah_cross_check"] is False:
        return "Kähler verdict and fixpoint-boundary criterion disagree"
    return None


def check_reports(docs, outputs, reference, expected_sha256, oracle_is_valid):
    """Failed items of one classify pass.

    `reference` is the first pass's output (None when this is the first
    pass, whose reports are then checked in full).  A digest mismatch for
    a seed with a recorded digest fails every item of the pass."""
    problems = []
    failed = 0
    for i, (doc, rendered) in enumerate(zip(docs, outputs)):
        if reference is None:
            problem = check_report(doc, rendered, oracle_is_valid)
        else:
            problem = None if rendered == reference[i] else "differs from the first pass"
        if problem:
            failed += 1
            problems.append(f"document {i}: {problem}")
    if expected_sha256 is not None:
        digest = hashlib.sha256()
        for out in outputs:  # piecewise, so that no copy of all reports adds to peak_rss_mb
            digest.update((out or "").encode())
        if digest.hexdigest() != expected_sha256:
            problems.append("reports sha256 differs from the recorded one")
            failed = len(docs)
    return failed, problems
