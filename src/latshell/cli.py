"""Command-line front end: ingest JSON/group files, run a pipeline, emit a
JSON report.

Exit codes: 0 when a verdict was computed, 1 when a verification failed
(for example a labeling that does not satisfy the axioms, or an internal
self-check that disagreed), 2 on malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, is_dataclass

from . import complexes as cxm
from . import groups as gm
from . import labeling as lb
from . import lattice as lm
from . import morse as mm
from . import poset as pm
from .errors import InputParseError, LatshellError, SelfCheckFailed

POSET_KEYS = {"elements", "covers"}
LABELING_KEYS = {"edges"}
COMPLEX_KEYS = {"facets"}


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from None


def _read_json(path: str, allowed_keys) -> dict:
    raw = _read_bytes(path)
    if raw.startswith(b"\xef\xbb\xbf"):
        raise InputParseError(f"{path}: byte-order mark not allowed")
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputParseError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputParseError(f"{path}: top level must be an object")
    unknown = set(data) - allowed_keys
    if unknown:
        raise InputParseError(f"{path}: unknown keys {sorted(unknown)}")
    return data


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_poset(path: str) -> pm.Poset:
    """A poset file: ``elements``, an array of id strings, and ``covers``,
    an array of [lower, upper] pairs of ids."""
    data = _read_json(path, POSET_KEYS)
    try:
        elements, covers = data["elements"], data["covers"]
    except KeyError as exc:
        raise InputParseError(f"{path}: missing key {exc}") from None
    if not _is_strings(elements):
        raise InputParseError(f"{path}: 'elements' must be an array of strings")
    if not isinstance(covers, list):
        raise InputParseError(f"{path}: 'covers' must be an array")
    for c in covers:
        if not (_is_strings(c) and len(c) == 2):
            raise InputParseError(f"{path}: cover {c!r} is not a pair of strings")
    return pm.build_poset(elements, [tuple(c) for c in covers])


def load_labeling(path: str, poset: pm.Poset) -> lb.EdgeLabeling:
    """A labeling file: ``edges``, an array of {from, to, label} objects,
    each a cover of ``poset`` listed at most once; the labels are all
    finite numbers or all strings.  ``json`` reads ``NaN``, ``Infinity``
    and out-of-range numbers such as ``1e400`` as non-finite floats, which
    are refused."""
    data = _read_json(path, LABELING_KEYS)
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise InputParseError(f"{path}: 'edges' must be an array")
    covers = set(poset.covers())
    labels = {}
    for edge in edges:
        try:
            ends = (edge["from"], edge["to"])
            label = edge["label"]
        except (TypeError, KeyError):
            raise InputParseError(f"{path}: bad edge entry {edge!r}") from None
        if not all(isinstance(e, str) for e in ends):
            raise InputParseError(f"{path}: edge {edge!r} has non-string ends")
        if ends in labels:
            raise InputParseError(f"{path}: edge {ends[0]!r} -> {ends[1]!r} "
                                  "is listed twice")
        if ends not in covers:
            raise InputParseError(f"{path}: edge {ends[0]!r} -> {ends[1]!r} "
                                  "is not a cover of the poset")
        if isinstance(label, float) and not math.isfinite(label):
            raise InputParseError(f"{path}: edge {ends[0]!r} -> {ends[1]!r} "
                                  f"has the non-finite label {label!r}")
        labels[ends] = label
    values = labels.values()
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in values)
    if not (numbers or all(isinstance(v, str) for v in values)):
        raise InputParseError(
            f"{path}: labels must be all numbers or all strings")
    return lb.EdgeLabeling(labels)


def _read_facets(path: str) -> list:
    """The ``facets`` entry of a complex or order file: a list of facets,
    each a JSON array of vertex-name strings."""
    facets = _read_json(path, COMPLEX_KEYS).get("facets", [])
    if not isinstance(facets, list):
        raise InputParseError(f"{path}: 'facets' must be an array")
    for f in facets:
        if not _is_strings(f):
            raise InputParseError(
                f"{path}: facet {f!r} is not an array of strings")
    return facets


def load_complex(path: str) -> cxm.SimplicialComplex:
    facets = _read_facets(path)
    vertices = []
    seen = set()
    for f in facets:
        for v in f:
            if v not in seen:
                seen.add(v)
                vertices.append(v)
    return cxm.SimplicialComplex.from_faces(vertices, facets)


def load_group(path: str, order_limit: int) -> gm.PermGroup:
    try:
        return gm.parse_group_file(_read_bytes(path).decode("utf-8"), order_limit)
    except LatshellError:
        raise
    except Exception as exc:
        raise InputParseError(f"{path}: {exc}") from None


def labeling_json(lab: lb.EdgeLabeling) -> dict:
    edges = [{"from": x, "to": y, "label": _plain(l)}
             for (x, y), l in sorted(lab.labels.items())]
    return {"edges": edges}


def poset_json(P: pm.Poset) -> dict:
    return {"elements": list(P.elements),
            "covers": [list(c) for c in P.covers()]}


def complex_json(cx: cxm.SimplicialComplex) -> dict:
    facets = sorted(sorted(s) for s in cx.facet_name_sets())
    return {"facets": facets}


def _plain(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _plain(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_plain(v) for v in items]
    return obj


class Report:
    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = {p: hashlib.sha256(_read_bytes(p)).hexdigest()
                       for p in inputs}
        self.results = {}
        self.warnings = []
        self.element_order = None
        self._start = time.monotonic()

    def finish(self, fmt: str) -> str:
        body = {
            "command": self.command,
            "inputs": self.inputs,
            "results": _plain(self.results),
            "warnings": self.warnings,
            "element_order": self.element_order,
            "timing_seconds": round(time.monotonic() - self._start, 6),
        }
        if fmt == "json":
            return json.dumps(body, indent=2, sort_keys=True)
        lines = [f"{self.command}:"]
        for k, v in sorted(body["results"].items()):
            lines.append(f"  {k}: {v}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    top = argparse.ArgumentParser(prog="latshell")
    top.add_argument("--format", choices=("json", "text"), default="json")
    top.add_argument("--limit-chains", type=int, default=mm.CHAIN_LIMIT)
    top.add_argument("--limit-faces", type=int, default=cxm.FACE_LIMIT)
    top.add_argument("--limit-vd-vertices", type=int, default=cxm.VD_VERTEX_LIMIT)
    top.add_argument("--limit-order", type=int, default=gm.ORDER_LIMIT)
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("poset")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("check")
    q.add_argument("poset")

    p = sub.add_parser("label")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("modular")
    q.add_argument("--poset", required=True)
    q.add_argument("--chain", required=True,
                   help="comma-separated element ids from bottom to top")
    q = ps.add_parser("verify")
    q.add_argument("--poset", required=True)
    q.add_argument("--labeling", required=True)
    q.add_argument("--strict", action="store_true",
                   help="require a unique ascending chain per interval")

    p = sub.add_parser("complex")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("vd")
    q.add_argument("complex")
    q.add_argument("--skeleton", type=int, default=None)
    q = ps.add_parser("depth")
    q.add_argument("complex")
    q = ps.add_parser("shell")
    q.add_argument("complex")
    q.add_argument("--verify", required=True, metavar="ORDER_JSON",
                   help="JSON file with a facet order under key 'facets'")

    p = sub.add_parser("morse")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("report")
    q.add_argument("--poset", required=True)
    q.add_argument("--labeling", required=True)

    p = sub.add_parser("group")
    ps = p.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("lattice")
    q.add_argument("group")
    q = ps.add_parser("solvable")
    q.add_argument("group")
    q.add_argument("--method", choices=("depth", "skeleton"), default="depth")
    q = ps.add_parser("thevenaz")
    q.add_argument("group")
    return top


def run(argv) -> tuple[int, str]:
    args = _parser().parse_args(argv)
    handler = {
        ("poset", "check"): _poset_check,
        ("label", "modular"): _label_modular,
        ("label", "verify"): _label_verify,
        ("complex", "vd"): _complex_vd,
        ("complex", "depth"): _complex_depth,
        ("complex", "shell"): _complex_shell,
        ("morse", "report"): _morse_report,
        ("group", "lattice"): _group_lattice,
        ("group", "solvable"): _group_solvable,
        ("group", "thevenaz"): _group_thevenaz,
    }[(args.cmd, args.sub)]
    return handler(args)


def _poset_check(args):
    rep = Report("poset check", [args.poset])
    P = load_poset(args.poset)
    rep.element_order = list(P.elements)
    rep.results = {
        "elements": P.n,
        "covers": len(P.covers()),
        "bounded": P.is_bounded,
        "poset": poset_json(P),
    }
    if P.is_bounded:
        verdict = pm.is_graded(P)
        rep.results["graded"] = verdict.graded
        if verdict.graded:
            rep.results["rank"] = verdict.rank
    return 0, rep.finish(args.format)


def _label_modular(args):
    rep = Report("label modular", [args.poset])
    P = load_poset(args.poset)
    rep.element_order = list(P.elements)
    L = lm.lattice_check(P)
    chain = lm.verify_chain_modularity(L, args.chain.split(","))
    lab = lb.left_modular_labeling(L, chain)
    rep.results = {
        "chain_kind": chain.kind,
        "r": chain.r,
        "labeling": labeling_json(lab),
    }
    return 0, rep.finish(args.format)


def _label_verify(args):
    rep = Report("label verify", [args.poset, args.labeling])
    P = load_poset(args.poset)
    rep.element_order = list(P.elements)
    lab = load_labeling(args.labeling, P)
    res = (lb.verify_el if args.strict else lb.verify_quasi_el)(P, lab)
    rep.results = {
        "ok": res.ok,
        "violations": [
            {"kind": v.kind, "interval": list(v.interval),
             "chains": _plain(v.chains)} for v in res.violations],
        "spines": {f"{x}..{y}": {"elements": list(s.elements),
                                 "labels": _plain(s.alphas)}
                   for (x, y), s in sorted(res.spines.items())},
    }
    return (0 if res.ok else 1), rep.finish(args.format)


def _complex_vd(args):
    rep = Report("complex vd", [args.complex])
    cx = load_complex(args.complex)
    if args.skeleton is not None:
        if args.skeleton >= 0:
            # the skeleton keeps every vertex, so refuse before building it
            cxm.refuse_vd_vertices(cx, args.limit_vd_vertices)
        cx = cx.skeleton(args.skeleton)
    ok = cxm.is_vd_bruteforce(cx, max_vertices=args.limit_vd_vertices)
    rep.results = {"vertex_decomposable": ok,
                   "vertices": cx.n_vertices,
                   "facets": len(cx.facets)}
    return 0, rep.finish(args.format)


def _complex_depth(args):
    rep = Report("complex depth", [args.complex])
    cx = load_complex(args.complex)
    rep.results = {"depth": cxm.depth(cx, limit=args.limit_faces),
                   "dimension": cx.dim,
                   "betti": cxm.betti_numbers(cx, limit=args.limit_faces)}
    return 0, rep.finish(args.format)


def _complex_shell(args):
    rep = Report("complex shell", [args.complex, args.verify])
    cx = load_complex(args.complex)
    order = [frozenset(f) for f in _read_facets(args.verify)]
    ok = cxm.verify_shelling(cx, order)
    rep.results = {"shelling": ok}
    return (0 if ok else 1), rep.finish(args.format)


def _morse_report(args):
    rep = Report("morse report", [args.poset, args.labeling])
    P = load_poset(args.poset)
    rep.element_order = list(P.elements)
    lab = load_labeling(args.labeling, P)
    report = mm.homology_consistency(P, lab, limit=args.limit_chains,
                                     homology_limit=args.limit_faces)
    rep.results = {
        "descending_chains": [
            {"chain": list(d.chain), "labels": _plain(d.labels),
             "distinct": d.ell0, "repeated": d.ell1,
             "dimension_bound": d.dimension_bound}
            for d in report.descending],
        "connectivity_bound": (report.connectivity_bound
                               if report.connectivity_bound is not None
                               else "contractible-candidate"),
        "betti": report.betti,
        "census": report.census,
        "consistent": report.consistent,
        "note": report.note,
    }
    return (0 if report.consistent else 1), rep.finish(args.format)


def _group_lattice(args):
    rep = Report("group lattice", [args.group])
    G = load_group(args.group, args.limit_order)
    GL = gm.subgroup_lattice(G, order_limit=args.limit_order)
    rep.element_order = list(GL.names)
    rep.results = {
        "order": G.order,
        "subgroups": len(GL.names),
        "normal": sorted(GL.normal_names),
        "chief_series": list(GL.chief.elements),
        "r": GL.r,
        "poset": poset_json(GL.lattice.poset),
    }
    return 0, rep.finish(args.format)


def _group_solvable(args):
    rep = Report("group solvable", [args.group])
    G = load_group(args.group, args.limit_order)
    GL = gm.subgroup_lattice(G, order_limit=args.limit_order)
    if args.method == "depth":
        out = gm.solvability_by_depth(GL, homology_limit=args.limit_faces)
    else:
        out = gm.skeleton_shellability_criterion(GL, homology_limit=args.limit_faces)
    rep.results = _plain(out)
    if not out.agree:
        rep.warnings.append("topological verdict disagrees with the derived series")
        return 1, rep.finish(args.format)
    return 0, rep.finish(args.format)


def _group_thevenaz(args):
    rep = Report("group thevenaz", [args.group])
    G = load_group(args.group, args.limit_order)
    GL = gm.subgroup_lattice(G, order_limit=args.limit_order)
    out = gm.thevenaz_check(GL, homology_limit=args.limit_faces)
    rep.results = _plain(out)
    return (0 if out.ok else 1), rep.finish(args.format)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        code, text = run(argv)
    except SelfCheckFailed as exc:
        print(json.dumps({"error": type(exc).__name__, "check": exc.check,
                          "message": str(exc)}))
        return 1
    except LatshellError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
