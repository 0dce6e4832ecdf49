"""Independent checker of a finished global routing.

It reads only the design's input data (grid size, layer directions,
capacities, pins), the geometry of every routed net and the demand the
grid holds, and recomputes everything else itself. It uses none of the
router's bookkeeping: no ``Route.connects``/``nodes``/``wirelength``,
no ``RoutingMetrics`` and no ``GridGraph`` overflow helpers.

Four checks, each reported as a list of problems (empty when legal):

1. every net's route covers all its pins in one connected component,
   where only wire runs and via stacks connect nodes (own union-find);
2. every wire is axis-aligned, follows its layer's preferred direction
   and stays on the grid; every via stack stays on the grid and within
   the layer stack;
3. the wire and via demand on the grid equal the demand accumulated
   from the routes (demand counts are whole numbers: compared exactly);
4. wirelength, vias, overflow and the Eq. 15 score recomputed from that
   demand and the grid capacity match what the router reports.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping

import numpy as np

# Eq. 15 weights of the paper, kept here so the checker does not read
# the router's own constants.
ALPHA, BETA, GAMMA = 0.5, 4.0, 500.0


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[tuple, tuple] = {}

    def find(self, node: tuple) -> tuple:
        parent = self.parent.setdefault(node, node)
        while parent != node:
            grand = self.parent[parent]
            self.parent[node] = grand
            node, parent = parent, grand
        return node

    def union(self, a: tuple, b: tuple) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _check_geometry(name, route, nx, ny, horizontal, problems) -> bool:
    n_layers = len(horizontal)
    ok = True
    for w in route.wires:
        if not 0 <= w.layer < n_layers:
            problems.append(f"{name}: wire on missing layer {w.layer}")
            ok = False
            continue
        if not (0 <= w.x1 < nx and 0 <= w.x2 < nx and 0 <= w.y1 < ny and 0 <= w.y2 < ny):
            problems.append(f"{name}: wire off grid {w}")
            ok = False
        along_x = w.y1 == w.y2 and w.x1 != w.x2
        along_y = w.x1 == w.x2 and w.y1 != w.y2
        if not (along_x or along_y):
            problems.append(f"{name}: wire not a straight run {w}")
            ok = False
        elif along_x != horizontal[w.layer]:
            problems.append(f"{name}: wire against layer {w.layer} direction {w}")
            ok = False
    for v in route.vias:
        if not (0 <= v.x < nx and 0 <= v.y < ny):
            problems.append(f"{name}: via off grid {v}")
            ok = False
        if not 0 <= v.lo < v.hi < n_layers:
            problems.append(f"{name}: via layers out of range {v}")
            ok = False
    return ok


def _connected(route, pins) -> bool:
    distinct = {(p.x, p.y, p.layer) for p in pins}
    if len(distinct) <= 1:
        return True
    uf = _UnionFind()
    for w in route.wires:
        if w.y1 == w.y2:
            cells = [(x, w.y1, w.layer) for x in range(min(w.x1, w.x2), max(w.x1, w.x2) + 1)]
        else:
            cells = [(w.x1, y, w.layer) for y in range(min(w.y1, w.y2), max(w.y1, w.y2) + 1)]
        for a, b in zip(cells, cells[1:]):
            uf.union(a, b)
    for v in route.vias:
        for layer in range(v.lo, v.hi):
            uf.union((v.x, v.y, layer), (v.x, v.y, layer + 1))
    if any(pin not in uf.parent for pin in distinct):
        return False
    roots = {uf.find(pin) for pin in distinct}
    return len(roots) == 1


def check_solution(design, routes: Mapping, reported: Mapping[str, float]) -> List[str]:
    """Return every problem found in ``routes`` on ``design`` (empty = legal).

    ``reported`` holds the router's own figures: ``wirelength``,
    ``vias``, ``overflow`` and ``score``.
    """
    graph = design.graph
    nx, ny, n_layers = graph.nx, graph.ny, graph.n_layers
    horizontal = [graph.stack.is_horizontal(layer) for layer in range(n_layers)]
    problems: List[str] = []

    nets = {net.name: net for net in design.netlist}
    for name in sorted(set(routes) - set(nets)):
        problems.append(f"{name}: routed but not in the netlist")

    wire_demand = [np.zeros_like(np.asarray(a)) for a in graph.wire_capacity]
    via_demand = np.zeros_like(np.asarray(graph.via_capacity))
    wirelength = 0
    n_vias = 0
    for name, net in nets.items():
        route = routes.get(name)
        if route is None:
            problems.append(f"{name}: no route")
            continue
        if not _check_geometry(name, route, nx, ny, horizontal, problems):
            continue
        if not _connected(route, net.pins):
            problems.append(f"{name}: pins not in one connected component")
        for w in route.wires:
            if w.y1 == w.y2:
                lo, hi = sorted((w.x1, w.x2))
                wire_demand[w.layer][lo:hi, w.y1] += 1.0
            else:
                lo, hi = sorted((w.y1, w.y2))
                wire_demand[w.layer][w.x1, lo:hi] += 1.0
            wirelength += hi - lo
        for v in route.vias:
            via_demand[v.lo:v.hi, v.x, v.y] += 1.0
            n_vias += v.hi - v.lo

    for layer in range(n_layers):
        if not np.array_equal(wire_demand[layer], np.asarray(graph.wire_demand[layer])):
            diff = int(np.count_nonzero(wire_demand[layer] != graph.wire_demand[layer]))
            problems.append(f"wire demand on layer {layer} differs on {diff} edges")
    if not np.array_equal(via_demand, np.asarray(graph.via_demand)):
        diff = int(np.count_nonzero(via_demand != graph.via_demand))
        problems.append(f"via demand differs on {diff} edges")

    overflow = sum(
        float(np.maximum(wire_demand[layer] - graph.wire_capacity[layer], 0.0).sum())
        for layer in range(n_layers)
    ) + float(np.maximum(via_demand - graph.via_capacity, 0.0).sum())
    expected = {
        "wirelength": wirelength,
        "vias": n_vias,
        "overflow": overflow,
        "score": ALPHA * wirelength + BETA * n_vias + GAMMA * overflow,
    }
    for key, value in expected.items():
        if not math.isclose(reported[key], value, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"reported {key} {reported[key]!r} != recomputed {value!r}")
    return problems


def reported_metrics(result) -> Dict[str, float]:
    """The router's own quality figures of a ``RoutingResult``."""
    m = result.metrics
    return {
        "wirelength": m.wirelength,
        "vias": m.n_vias,
        "overflow": m.shorts,
        "score": m.score,
    }
