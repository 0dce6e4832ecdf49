"""Workload inputs of the routing benchmark, and their recorded digests.

Every workload is fixed by an input seed (default 0): the same seed
always generates the same designs and ECO deltas. ``digests.json``
records a digest of those inputs per workload and input seed, so a
change to ``load_benchmark``/``perturb_design`` that alters a workload
stops the benchmark instead of silently measuring something else.

Regenerate the recorded digests (after an intended input change)::

    python3 perfbench/workloads.py --write-digests
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Dict, List, Optional

DIGESTS_FILE = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Workload:
    name: str
    design: str
    scale: float
    preset: str
    # Deltas applied per round to a warm session; 0 = cold routes.
    eco_edits: int = 0


#: Fixed 3-edit ECO: 1 moved, 1 added, 1 removed net (each fraction
#: resolves to one net on these designs).
ECO_SPEC = dict(
    name="perfbench3", move_fraction=1e-4, add_fraction=1e-4, remove_fraction=1e-4
)

#: Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("pattern_bound", "19test8", 0.25, "fastgr_h"),
        Workload("maze_bound", "19test9m", 0.12, "fastgr_l"),
        Workload("eco_replay", "19test8", 0.25, "fastgr_l", eco_edits=8),
    )
}


def make_design(workload: Workload, input_seed: int):
    from repro import load_benchmark

    return load_benchmark(workload.design, scale=workload.scale, seed=input_seed)


def make_config(workload: Workload):
    """The preset exactly as ``repro route --config <preset>`` ships it."""
    from repro import RouterConfig

    return getattr(RouterConfig, workload.preset)()


def eco_deltas(workload: Workload, design, input_seed: int) -> List:
    """The fixed delta stream of one ECO round, drawn without routing.

    Delta ``k`` is drawn by ``perturb_design`` (seed ``k`` at input seed
    0) from the netlist the first ``k - 1`` deltas produced, exactly the
    netlist a warm session holds when it applies delta ``k``.
    """
    from repro import Design, PerturbSpec, perturb_design

    spec = PerturbSpec(**ECO_SPEC)
    deltas = []
    current = design
    for k in range(1, workload.eco_edits + 1):
        delta = perturb_design(current, spec, seed=1000 * input_seed + k)
        deltas.append(delta)
        current = Design(current.name, current.graph, delta.apply(current.netlist))
    return deltas


def input_digest(design, deltas=()) -> str:
    """Digest of a design's input data and a delta stream.

    Hashes grid size, layer directions, capacities, pins and the
    deltas' wire format; none of the router's own content keys.
    """
    graph = design.graph
    h = blake2b(digest_size=16)
    dirs = "".join(
        "H" if graph.stack.is_horizontal(layer) else "V"
        for layer in range(graph.n_layers)
    )
    h.update(f"{design.name};{graph.nx};{graph.ny};{dirs};".encode())
    for cap in graph.wire_capacity:
        h.update(cap.tobytes())
    h.update(graph.via_capacity.tobytes())
    for net in design.netlist:
        h.update(f"{net.name}:{[(p.x, p.y, p.layer) for p in net.pins]};".encode())
    for delta in deltas:
        h.update(json.dumps(delta.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def recorded_digest(workload: str, input_seed: int) -> Optional[str]:
    if not DIGESTS_FILE.exists():
        return None
    return json.loads(DIGESTS_FILE.read_text()).get(workload, {}).get(str(input_seed))


def _main() -> None:
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-digests", action="store_true",
                        help="also record them in digests.json")
    parser.add_argument("--input-seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args()
    table: Dict[str, Dict[str, str]] = (
        json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
    )
    for name, workload in WORKLOADS.items():
        for seed in args.input_seeds:
            design = make_design(workload, seed)
            digest = input_digest(design, eco_deltas(workload, design, seed))
            print(f"{name} input_seed={seed} {digest}")
            table.setdefault(name, {})[str(seed)] = digest
    if args.write_digests:
        DIGESTS_FILE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS_FILE.name}")


if __name__ == "__main__":
    _main()
