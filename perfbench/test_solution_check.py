"""The independent checker accepts a real routing and rejects broken ones."""

import pytest

from repro import GlobalRouter, RouterConfig, load_benchmark
from repro.grid.route import Route, WireSegment
from solution_check import check_solution, reported_metrics


@pytest.fixture(scope="module")
def routed():
    design = load_benchmark("18test5", scale=0.1)
    result = GlobalRouter(design, RouterConfig.fastgr_l(executor="ordered")).run()
    return design, result


def multi_wire_net(result):
    return next(name for name, route in result.routes.items() if len(route.wires) >= 2)


def test_accepts_router_output(routed):
    design, result = routed
    assert check_solution(design, result.routes, reported_metrics(result)) == []


def test_rejects_dropped_segment(routed):
    design, result = routed
    name = multi_wire_net(result)
    routes = dict(result.routes)
    original = routes[name]
    routes[name] = Route(original.wires[1:], original.vias)
    problems = check_solution(design, routes, reported_metrics(result))
    assert f"{name}: pins not in one connected component" in problems
    assert any(p.startswith("wire demand on layer") for p in problems)


def test_rejects_route_committed_twice(routed):
    design, result = routed
    route = result.routes[multi_wire_net(result)]
    route.commit(design.graph)
    try:
        problems = check_solution(design, result.routes, reported_metrics(result))
    finally:
        route.uncommit(design.graph)
    assert any(p.startswith("wire demand on layer") for p in problems)


def test_rejects_misreported_score(routed):
    design, result = routed
    reported = dict(reported_metrics(result), score=result.metrics.score + 0.5)
    problems = check_solution(design, result.routes, reported)
    assert len(problems) == 1 and problems[0].startswith("reported score")


def test_rejects_wire_against_layer_direction(routed):
    design, result = routed
    name = multi_wire_net(result)
    routes = dict(result.routes)
    wire = routes[name].wires[0]
    other_layer = wire.layer + 1 if wire.layer + 1 < design.graph.n_layers else wire.layer - 1
    moved = WireSegment(other_layer, wire.x1, wire.y1, wire.x2, wire.y2)
    routes[name] = Route([moved] + routes[name].wires[1:], routes[name].vias)
    problems = check_solution(design, routes, reported_metrics(result))
    assert any("against layer" in p for p in problems)


def test_warm_cold_comparison_flags_differences(routed):
    from run import same_state

    design, result = routed
    assert same_state(result.routes, design.graph, result.routes, design.graph) == []
    name = multi_wire_net(result)
    routes = dict(result.routes)
    routes[name] = Route(routes[name].wires[1:], routes[name].vias)
    warm = load_benchmark("18test5", scale=0.1).graph
    for route in routes.values():
        route.commit(warm)
    problems = same_state(routes, warm, result.routes, design.graph)
    assert f"{name}: warm route differs from cold route" in problems
    assert any(p.startswith("wire demand on layer") for p in problems)
