"""End-to-end routing benchmark: one workload per invocation.

    python3 perfbench/run.py --workload pattern_bound --seed 1 --seconds 20 --trace 0

A closed loop with one caller: the process routes one operation at a
time, each on inputs generated from ``--input-seed`` (default 0, so
every run routes the same inputs), with the preset exactly as
``repro route --config <preset>`` ships it. ``--seed`` is the run's
label; it changes no input, so quality figures are identical across
runs. Operations repeat in whole rounds until ``--seconds`` have
passed; each timing is the median over the run's operations.

Every operation is checked by the independent solution checker
(``solution_check.py``) and against the first round's quality figures;
an ``eco_replay`` run ends by comparing its last warm session with a
cold route of the edited netlist (routes per net and demand arrays must
be identical). An operation that raises or fails a check counts as
failed.

With ``--trace 0`` the last stdout line is one JSON object with the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced
and traced, the JSON holds the per-layer metrics (per traced
operation), the spans go to ``perfbench/out/`` as Chrome trace-event
JSON, and the tracing overhead (traced minus untraced ``route_s``) is
printed.

Exits non-zero without a result when a ``REPRO_*`` executor override is
set, when the router sources are missing, or when the generated inputs
do not match ``digests.json``.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: before ``import repro``

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402  (the script's own directory)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Each of these silently changes the measured program.
GUARDED_ENV = (
    "REPRO_FORCE_EXECUTOR",
    "REPRO_PROCESS_WORKERS",
    "REPRO_MP_START",
    "REPRO_PROCESS_TIMEOUT",
)
#: setup_s is the median of this many set-ups: the run's own plus
#: fresh-process probes.
SETUP_SAMPLES = 3

#: Per-layer metrics and their units, in report order. Those in
#: SPAN_METRICS come from spans, the rest from each operation's result.
LAYER_UNITS = {
    "core.route_design_s": "s",
    "core.self_s": "s",
    "netlist.generate_s": "s",
    "tree.steiner_s": "s",
    "tree.trees": "count",
    "sched.schedule_s": "s",
    "sched.tasks": "count",
    "sched.run_self_s": "s",
    "pattern.route_batch_s": "s",
    "pattern.self_s": "s",
    "pattern.reconstruct_s": "s",
    "pattern.batches": "count",
    "pattern.batched_nets": "count",
    "pattern.kernel_launches": "count",
    "gpu.kernel_elements": "count",
    "gpu.bytes_to_device": "bytes",
    "grid.cost_rebuild_s": "s",
    "grid.cost_rebuilds": "count",
    "grid.cost_refreshed_edges": "count",
    "grid.commit_s": "s",
    "grid.commits": "count",
    "maze.route_net_s": "s",
    "maze.searches": "count",
    "maze.nodes_visited": "count",
    "maze.nets_ripped": "count",
    "maze.nets_failed": "count",
    "maze.violation_scan_s": "s",
    "session.signature_s": "s",
    "session.cache_hits": "count",
    "session.cache_misses": "count",
    "session.hit_ratio": "ratio",
    "eval.measure_s": "s",
}
#: Span-derived metrics: metric -> (span name, "total_s"|"self_s"|"count").
SPAN_METRICS = {
    "core.route_design_s": ("core.route_design", "total_s"),
    "core.self_s": ("core.route_design", "self_s"),
    "netlist.generate_s": ("netlist.generate_design", "total_s"),
    "tree.steiner_s": ("tree.build_steiner_tree", "total_s"),
    "tree.trees": ("tree.build_steiner_tree", "count"),
    "sched.schedule_s": ("sched.schedule", "total_s"),
    "sched.run_self_s": ("sched.run", "self_s"),
    "pattern.route_batch_s": ("pattern.route_batch", "total_s"),
    "pattern.self_s": ("pattern.route_batch", "self_s"),
    "pattern.reconstruct_s": ("pattern.reconstruct_route", "total_s"),
    "grid.cost_rebuild_s": ("grid.cost_rebuild", "total_s"),
    "grid.commit_s": ("grid.commit", "total_s"),
    "grid.commits": ("grid.commit", "count"),
    "maze.route_net_s": ("maze.route_net", "total_s"),
    "maze.searches": ("maze.route_net", "count"),
    "maze.violation_scan_s": ("maze.find_violating_nets", "total_s"),
    "session.signature_s": ("session.demand_signature", "total_s"),
    "eval.measure_s": ("eval.measure", "total_s"),
}
#: The end-to-end metric each layer metric should move, and where.
LAYER_TARGETS = {
    "core": "route_s, all workloads",
    "netlist": "setup_s, all workloads",
    "tree": "route_s, pattern_bound",
    "sched": "route_s, all workloads (run_self_s: maze_bound)",
    "pattern": "route_s, pattern_bound",
    "gpu": "route_s, pattern_bound",
    "grid": "route_s, pattern_bound then maze_bound (commits: eco_replay)",
    "maze": "route_s, maze_bound (violation_scan_s: eco_replay)",
    "session": "route_s, eco_replay",
    "eval": "route_s, all workloads",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="run label; changes no input")
    parser.add_argument("--input-seed", type=int, default=0,
                        help="seed of the generated inputs (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_router():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"router sources not found under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {src}")
    return repro


# ---------------------------------------------------------------------- #
# Per-operation results
# ---------------------------------------------------------------------- #
def quality(result):
    m = result.metrics
    return (m.wirelength, m.n_vias, m.score)


def result_counts(result, eco=None):
    """Per-operation work counters read from the router's results."""
    hits = eco.cache_hits if eco is not None else 0
    misses = eco.cache_misses if eco is not None else 0
    return {
        "sched.tasks": sum(r.n_tasks for r in result.stage_reports()),
        "pattern.batches": result.pattern_batches,
        "pattern.batched_nets": result.pattern_batched_nets,
        "pattern.kernel_launches": result.pattern_kernel_launches,
        "gpu.kernel_elements": result.device_stats.get("total_elements", 0.0),
        "gpu.bytes_to_device": result.device_stats.get("bytes_to_device", 0.0),
        "grid.cost_rebuilds": result.cost_stats.get("rebuilds", 0.0),
        "grid.cost_refreshed_edges": result.cost_stats.get("refreshed_edges", 0.0),
        "maze.nodes_visited": result.maze_nodes_visited,
        "maze.nets_ripped": sum(it.n_ripped for it in result.iterations),
        "maze.nets_failed": sum(it.n_failed for it in result.iterations),
        "session.cache_hits": hits,
        "session.cache_misses": misses,
        "session.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def same_state(warm_routes, warm_graph, cold_routes, graph):
    """Problems between a warm ECO state and a cold route of its netlist."""
    import numpy as np

    problems = []
    if set(warm_routes) != set(cold_routes):
        problems.append("warm and cold route different net sets")
    for name, route in cold_routes.items():
        warm = warm_routes.get(name)
        if warm is not None and (warm.wires != route.wires or warm.vias != route.vias):
            problems.append(f"{name}: warm route differs from cold route")
    for layer in range(graph.n_layers):
        if not np.array_equal(warm_graph.wire_demand[layer], graph.wire_demand[layer]):
            problems.append(f"wire demand on layer {layer} differs from cold route")
    if not np.array_equal(warm_graph.via_demand, graph.via_demand):
        problems.append("via demand differs from cold route")
    return problems


class Op:
    """Outcome of one timed operation."""

    __slots__ = ("seconds", "quality", "counts", "problems", "traced", "slot")

    def __init__(self, slot, traced):
        self.slot = slot  # position within its round
        self.traced = traced
        self.seconds = None
        self.quality = None
        self.counts = {}
        self.problems = []


# ---------------------------------------------------------------------- #
# The benchmark
# ---------------------------------------------------------------------- #
class Bench:
    def __init__(self, args, recorder=None):
        from workloads import make_config

        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.config = make_config(self.workload)
        self.recorder = recorder
        self.ops = []
        self.reference = {}  # slot -> quality of the first round
        self.design_digest = None
        self.deltas = []
        self.session = None  # warm session carried from set-up (eco)
        self.last_round = None  # (session, last op) of the last ECO round

    # -- inputs --------------------------------------------------------- #
    def new_design(self, traced):
        from workloads import input_digest, make_design

        self._record(traced)
        design = make_design(self.workload, self.args.input_seed)
        self._record(False)
        digest = input_digest(design)
        if self.design_digest is None:
            self.design_digest = digest
        elif digest != self.design_digest:
            fail("generated design changed within the run")
        return design

    def check_inputs(self, design):
        from workloads import eco_deltas, input_digest, recorded_digest

        if self.workload.eco_edits:
            self.deltas = eco_deltas(self.workload, design, self.args.input_seed)
        digest = input_digest(design, self.deltas)
        recorded = recorded_digest(self.workload.name, self.args.input_seed)
        if recorded is None:
            print(f"inputs: digest {digest} (no recorded digest for "
                  f"input seed {self.args.input_seed})")
        elif digest != recorded:
            fail(f"inputs of {self.workload.name} changed: digest {digest}, "
                 f"recorded {recorded}; if intended, run "
                 f"`python3 perfbench/workloads.py --write-digests`")
        else:
            print(f"inputs: digest {digest} matches digests.json")

    def _record(self, on):
        if self.recorder is not None:
            self.recorder.recording = on

    def _op_span(self, name):
        return self.recorder.span(name) if self.recorder is not None else nullcontext()

    # -- set-up ---------------------------------------------------------- #
    def setup(self):
        """Generate inputs and run one warm-up operation (untimed)."""
        from solution_check import check_solution, reported_metrics

        design = self.new_design(False)
        self.check_inputs(design)
        if self.workload.eco_edits:
            self.session = self.open_session(design)
            design, result = self.session.design, self.session.result
        else:
            result = self.cold_route(design)
        setup_s = time.perf_counter() - _T0
        problems = check_solution(design, result.routes, reported_metrics(result))
        if problems:
            fail("warm-up operation failed the checker: " + "; ".join(problems[:5]), 1)
        return setup_s

    def open_session(self, design):
        from repro import DesignHandle, RoutingSession

        session = RoutingSession(DesignHandle.from_design(design), self.config)
        session.run()
        return session

    def cold_route(self, design):
        from repro import GlobalRouter

        return GlobalRouter(design, self.config).run()

    # -- timed loop ------------------------------------------------------ #
    def loop(self):
        min_rounds = 2 if self.recorder is not None else 1
        deadline = time.perf_counter() + self.args.seconds
        rounds = 0
        while rounds < min_rounds or time.perf_counter() < deadline:
            # Traced runs alternate untraced and traced rounds, so both
            # see the same conditions and the overhead can be read off.
            traced = self.recorder is not None and rounds % 2 == 1
            if self.workload.eco_edits:
                self.eco_round(traced)
            else:
                self.cold_round(traced)
            rounds += 1
        return rounds

    def _finish(self, op, design, result, eco=None):
        from solution_check import check_solution, reported_metrics

        op.quality = quality(result)
        op.counts = result_counts(result, eco)
        op.problems = check_solution(design, result.routes, reported_metrics(result))
        expected = self.reference.setdefault(op.slot, op.quality)
        if op.quality != expected:
            op.problems.append(f"quality {op.quality} != first round {expected}")

    def cold_round(self, traced):
        op = Op(0, traced)
        self.ops.append(op)
        design = self.new_design(traced)
        try:
            gc.collect()
            self._record(traced)
            with self._op_span("op.route"):
                start = time.perf_counter()
                result = self.cold_route(design)
                op.seconds = time.perf_counter() - start
            self._record(False)
            self._finish(op, design, result)
        except Exception as exc:  # one failed operation; the run goes on
            self._record(False)
            op.problems.append(f"raised {type(exc).__name__}: {exc}")

    def eco_round(self, traced):
        # Round 1 continues the set-up session; later rounds start a
        # fresh session on a fresh design (base route untimed).
        session, self.session = self.session, None
        round_ops = [Op(k, traced) for k in range(len(self.deltas))]
        self.ops.extend(round_ops)
        try:
            if session is None:
                self.close_last_round()
                session = self.open_session(self.new_design(traced))
            for op, delta in zip(round_ops, self.deltas):
                gc.collect()
                self._record(traced)
                with self._op_span("op.eco"):
                    start = time.perf_counter()
                    eco = session.eco(delta)
                    op.seconds = time.perf_counter() - start
                self._record(False)
                self._finish(op, session.design, eco.result, eco)
        except Exception as exc:  # the rest of the round counts as failed
            self._record(False)
            for op in round_ops:
                if op.seconds is None or op is round_ops[-1]:
                    op.problems.append(f"round raised {type(exc).__name__}: {exc}")
            if session is not None:
                session.close()
            return
        self.last_round = (session, round_ops[-1])

    def close_last_round(self):
        if self.last_round is not None:
            self.last_round[0].close()
            self.last_round = None

    def verify_last_round(self):
        """Compare the final warm ECO state with a cold route of its netlist."""
        if self.last_round is None:
            return
        session, last_op = self.last_round
        try:
            cold_design = session.cold_design()
            cold = self.cold_route(cold_design)
            last_op.problems.extend(same_state(
                session.result.routes, session.graph, cold.routes, cold_design.graph
            ))
        except Exception as exc:
            last_op.problems.append(f"cold comparison raised {type(exc).__name__}: {exc}")
        finally:
            self.close_last_round()


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
def setup_probe_samples(args, n):
    """Set-up time of ``n`` fresh processes (import, inputs, warm-up)."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--input-seed", str(args.input_seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}", 1)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def environment_line():
    import numpy

    return (f"env: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def timing_line(name, samples):
    samples = sorted(samples)
    n = len(samples)
    if not n:
        return f"{name}: no successful operations"
    line = f"{name}: median {statistics.median(samples):.4f} s over {n} operations"
    if n >= 40:
        # The highest percentile with at least ten samples beyond it.
        q = 1 - 10 / n
        line += f", p{100 * q:.0f} {samples[math.ceil(q * n) - 1]:.4f} s"
    return line


def layer_metrics(ops, recorder):
    """Per traced operation: span totals and result counters."""
    traced = [op for op in ops if op.traced and op.seconds is not None]
    n = max(len(traced), 1)
    totals = recorder.totals()
    values = {}
    for metric, (span, field) in SPAN_METRICS.items():
        values[metric] = totals.get(span, {}).get(field, 0) / n
    for metric in LAYER_UNITS:
        if metric not in values:
            values[metric] = sum(op.counts.get(metric, 0) for op in traced) / n
    return values


def differing_counts(ops):
    """Result counters that differ between operations of the same slot
    (traced and untraced alike)."""
    first = {}
    differing = set()
    for op in ops:
        ref = first.setdefault(op.slot, op.counts)
        differing.update(k for k, v in op.counts.items() if v != ref[k])
    return sorted(differing)


def print_layer_table(values, workload):
    print(f"per-layer split of {workload} (per traced operation):")
    print(f"  {'metric':28s} {'value':>14s} {'unit':6s} moves")
    previous = None
    for metric, unit in LAYER_UNITS.items():
        layer = metric.split(".", 1)[0]
        target = LAYER_TARGETS[layer] if layer != previous else ""
        previous = layer
        print(f"  {metric:28s} {values[metric]:14.6g} {unit:6s} {target}")


def main(argv=None):
    args = parse_args(argv)
    guarded = [name for name in GUARDED_ENV if name in os.environ]
    if guarded:
        fail(f"refusing to run with {', '.join(guarded)} set: it changes "
             "the measured program")
    import_router()

    recorder = None
    if args.trace and not args.setup_probe:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    bench = Bench(args, recorder)
    setup_s = bench.setup()
    if args.setup_probe:
        if bench.session is not None:
            bench.session.close()
        print(json.dumps({"setup_s": setup_s}))
        return

    rounds = bench.loop()
    bench.verify_last_round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = bench.ops
    failed = [op for op in ops if op.problems or op.seconds is None]
    for op in failed[:10]:
        print(f"failed operation (slot {op.slot}): {'; '.join(op.problems[:3])}",
              file=sys.stderr)
    good = [op for op in ops if op not in failed]
    w = bench.workload
    print(f"workload: {w.name} ({w.design} scale {w.scale}, preset {w.preset}"
          + (f", {w.eco_edits} ECO deltas per round" if w.eco_edits else "")
          + f"), input seed {args.input_seed}, run seed {args.seed}")
    print(environment_line())
    print(f"rounds: {rounds}; operations attempted {len(ops)}, failed {len(failed)}")

    untraced = [op.seconds for op in good if not op.traced]
    if recorder is None:
        setups = [setup_s] + setup_probe_samples(args, SETUP_SAMPLES - 1)
        # The final routing: the last operation of a round (first round).
        wl, vias, score = bench.reference.get(max(bench.reference, default=0), (0, 0, 0.0))
        metrics = {
            "route_s": (statistics.median(untraced) if untraced else 0.0, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "score": (score, "score"),
            "wirelength": (wl, "gcells"),
            "vias": (vias, "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(timing_line("route_s", untraced))
        print(f"setup_s: median {statistics.median(setups):.4f} s of "
              f"{', '.join(f'{s:.4f}' for s in setups)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value} {unit}")
    else:
        traced_times = [op.seconds for op in good if op.traced]
        values = layer_metrics(good, recorder)
        print_layer_table(values, w.name)
        print(timing_line("untraced route_s", untraced))
        print(timing_line("traced route_s", traced_times))
        if untraced and traced_times:
            overhead = statistics.median(traced_times) - statistics.median(untraced)
            print(f"tracing overhead: {overhead:+.4f} s per operation "
                  f"({overhead / statistics.median(untraced):+.1%})")
        differing = differing_counts(good)
        print("result counters of traced and untraced operations: "
              + ("identical" if not differing else "differ in " + ", ".join(differing)))
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{w.name}-seed{args.seed}.json"
        recorder.write_chrome_trace(trace_path)
        print(f"spans: {len(recorder.spans)} written to {trace_path.relative_to(ROOT)}")
        metrics = {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}

    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


if __name__ == "__main__":
    main()
