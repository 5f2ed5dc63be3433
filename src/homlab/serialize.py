"""JSON file formats and builtin-name resolution.

Graph file:       {"vertices": ["a", ...], "edges": [["a", "b"], ...]}
                  (a loop is ["v", "v"]; vertices may be strings or numbers)
Involution file:  {"graph": <name-or-path-or-inline>, "map": {"a": "a'", ...}}
Map file:         {"source": ..., "target": ..., "assignment": {...}}
Certificate file: {"source": <graph>, "target": <graph>,
                   "colorings": [{"a": 1, ...}, ...]}

A relative path inside a file is read from that file's directory.
"""

from __future__ import annotations

import hashlib
import json
import math
from importlib import resources
from pathlib import Path

from .errors import InputError
from .graphs import Graph, GraphMap, Z2Graph, builtin, cycle_reflection
from .hom import PathCertificate

__all__ = [
    "graph_to_json",
    "graph_from_json",
    "load_graph",
    "load_involution",
    "load_graph_map",
    "certificate_to_json",
    "certificate_from_json",
    "load_certificate",
    "bundled_fig3_certificate",
    "graph_signature",
    "dumps",
    "json_number",
]


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def json_number(x):
    """``x`` if an int or a finite float, else its string ("inf", "nan")."""
    return x if isinstance(x, int) or (isinstance(x, float) and math.isfinite(x)) else str(x)


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[u, v] for u, v in g.sorted_edges()],
    }


_NAME = (str, int, float)  # the JSON values that name a vertex


def _field(obj, key: str, what: str, kind: type = object):
    """``obj[key]``, where ``obj`` is the JSON of a ``what``; InputError
    unless ``obj`` is an object with a ``key`` entry of type ``kind``."""
    if not (isinstance(obj, dict) and key in obj and isinstance(obj[key], kind)):
        shape = "" if kind is object else f" as a {kind.__name__}"
        raise InputError(f"{what} JSON needs {key!r}{shape}")
    return obj[key]


def graph_from_json(obj) -> Graph:
    vertices = _field(obj, "vertices", "graph", list)
    edges = _field(obj, "edges", "graph", list)
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(v, _NAME) for v in e)):
            raise InputError(f"graph JSON: edge {e!r} is not a pair of vertices")
    if not all(isinstance(v, _NAME) for v in vertices):
        raise InputError("graph JSON: vertices must be strings or numbers")
    return Graph.build(vertices, [tuple(e) for e in edges])


def _names_file(spec: str) -> bool:
    """Whether a graph, involution or map spec names a file, not a builtin."""
    return Path(spec).exists() or spec.endswith(".json")


def _read_json(path, *refs: str) -> object:
    """The JSON in the file ``path``; each string entry under a key of
    ``refs`` that names a file is made relative to ``path``'s directory."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    here = Path(path).parent
    for key in refs:
        spec = obj.get(key) if isinstance(obj, dict) else None
        if isinstance(spec, str) and _names_file(str(here / spec)):
            obj[key] = str(here / spec)
    return obj


def _coerce_keys(mapping: dict, g: Graph) -> dict:
    """Resolve JSON object keys (always strings) against the graph's vertices."""
    if not isinstance(mapping, dict):
        raise InputError(f"{mapping!r} is not a JSON object of vertices")
    by_str = {str(v): v for v in g.vertices}
    out = {}
    for k, v in mapping.items():
        if g.has_vertex(k):
            out[k] = v
        elif k in by_str:
            out[by_str[k]] = v
        else:
            raise InputError(f"key {k!r} is not a vertex of the graph")
    return out


def _coerce_value(value, g: Graph):
    if isinstance(value, _NAME) and g.has_vertex(value):
        return value
    by_str = {str(v): v for v in g.vertices}
    if str(value) in by_str:
        return by_str[str(value)]
    raise InputError(f"value {value!r} is not a vertex of the graph")


def load_graph(spec) -> Graph:
    """Resolve a graph from an inline dict, a file path, or a builtin name."""
    if isinstance(spec, Graph):
        return spec
    if isinstance(spec, dict):
        return graph_from_json(spec)
    spec = str(spec)
    if _names_file(spec):
        return graph_from_json(_read_json(spec))
    got = builtin(spec)
    if isinstance(got, Z2Graph):
        raise InputError(f"builtin {spec!r} is an involution, not a graph")
    if isinstance(got, Graph):
        return got
    raise InputError(f"builtin {spec!r} is not a graph")


def load_involution(spec, graph: Graph = None) -> Z2Graph:
    """Resolve a Z2-graph from a file, an inline dict, or a builtin name.

    With ``graph`` given, the involution must live on (a graph equal to) it.
    """
    if isinstance(spec, Z2Graph):
        z = spec
    elif isinstance(spec, dict):
        g = load_graph(spec["graph"]) if "graph" in spec else graph
        if g is None:
            raise InputError("involution JSON needs a 'graph' entry")
        m = _coerce_keys(_field(spec, "map", "involution"), g)
        z = Z2Graph.build(g, {k: _coerce_value(v, g) for k, v in m.items()})
    else:
        spec = str(spec)
        if _names_file(spec):
            z = load_involution(_read_json(spec, "graph"), graph)
        else:
            name = spec.lower()
            if name in ("swap", "flip") and graph is not None:
                z = Z2Graph.build(graph, _swap_first_two(graph))
            elif name == "reflection" and graph is not None:
                z = cycle_reflection(len(graph.vertices))
            else:
                got = builtin(spec)
                if not isinstance(got, Z2Graph):
                    raise InputError(f"builtin {spec!r} is not an involution")
                z = got
    if graph is not None and z.graph != graph:
        raise InputError("involution is defined on a different graph")
    return z


def _swap_first_two(g: Graph) -> dict:
    if len(g.vertices) < 2:
        raise InputError("swap needs a graph with at least 2 vertices")
    a, b = g.vertices[0], g.vertices[1]
    m = {v: v for v in g.vertices}
    m[a], m[b] = b, a
    return m


def load_graph_map(spec) -> GraphMap:
    if isinstance(spec, GraphMap):
        return spec
    if not isinstance(spec, dict):
        spec = str(spec)
        if _names_file(spec):
            return load_graph_map(_read_json(spec, "source", "target"))
        got = builtin(spec)
        if not isinstance(got, GraphMap):
            raise InputError(f"builtin {spec!r} is not a graph map")
        return got
    source = load_graph(_field(spec, "source", "graph map"))
    target = load_graph(_field(spec, "target", "graph map"))
    raw = _coerce_keys(_field(spec, "assignment", "graph map"), source)
    return GraphMap.build(source, target,
                          {k: _coerce_value(v, target) for k, v in raw.items()})


def certificate_to_json(cert: PathCertificate) -> dict:
    return {
        "source": graph_to_json(cert.source),
        "target": graph_to_json(cert.target),
        "colorings": [
            dict(zip(cert.source.vertices, row)) for row in cert.colorings
        ],
    }


def certificate_from_json(obj) -> PathCertificate:
    source = load_graph(_field(obj, "source", "certificate"))
    target = load_graph(_field(obj, "target", "certificate"))
    colorings = []
    for row in _field(obj, "colorings", "certificate", list):
        raw = _coerce_keys(row, source)
        colorings.append({k: _coerce_value(v, target) for k, v in raw.items()})
    return PathCertificate.build(source, target, colorings)


def load_certificate(path) -> PathCertificate:
    return certificate_from_json(_read_json(path, "source", "target"))


def bundled_fig3_certificate() -> PathCertificate:
    """The shipped 16-coloring path certificate between f and f∘gamma2."""
    with resources.files("homlab.data").joinpath("fig3_path.json").open() as fh:
        return certificate_from_json(json.load(fh))


def graph_signature(g: Graph) -> str:
    """Stable identifier: vertex/edge counts plus a canonicalized hash.

    The hash is taken over the sorted vertex order, so isomorphic inputs with
    relabeled vertices still differ, but re-orderings of one labeling agree.
    """
    verts = sorted(g.vertices, key=str)
    edges = sorted(
        (sorted((u, v), key=str) for u, v in g.edges),
        key=lambda e: [str(x) for x in e],
    )
    blob = json.dumps([verts, edges], sort_keys=True, default=str)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:8]
    return f"g{len(g.vertices)}e{len(g.edges)}-{digest}"
