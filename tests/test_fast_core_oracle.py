"""Differential oracle: the fast core must match the python core exactly.

The two cores share one event engine and one memory datapath; the fast
core (``REPRO_CORE=fast`` / ``SystemConfig.core``) swaps only the SM
issue stage for :class:`~repro.gpu.sm_fast.FastSM`'s flattened tick.  Its
contract is *byte identity*: every statistic of every scenario must equal
the pure-Python oracle's, field for field.  This test runs the fig6.x
fast-size scenario set, the five fleet workloads, two ablations on which
``FastSM`` falls back to ``SM.tick`` and the benchmark UTS cell at four
held-out tree seeds under both cores in one process
(``SystemConfig.core`` pins a single system regardless of the
environment) and diffs:

* the serialized result (``SimResult.to_dict()``: cycles, instructions,
  the stall breakdown, per-SM breakdowns, the frozen stats schema), and
* the complete flattened component stats tree -- every counter,
  histogram and derived stat of every component in the machine, which is
  strictly stronger than the artifact schema and catches divergence in
  parts no figure renders (engine event/wakeup counts, mesh slot
  accounting, per-bank L2 counters, ...).

Both are also checked against SHA-256 pins committed in
``tests/data/stats_pins.json``, so a change to the shared engine or
datapath that moves both cores alike still fails here.

Any mismatch here means a rewrite changed simulation order or dropped a
side effect; fix the code, never the oracle or its pins.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.campaign import DEFAULT_FLEET
from repro.experiments.figures import _implicit_grid, _uts_protocol_grid
from repro.experiments.spec import Scenario, Sweep
from repro.system import run_workload


def _fig6x_fast_scenarios() -> list[Scenario]:
    """The scenario grids of the fig6.x artifacts at --fast sizes
    (the sizes CI's identity gate regenerates the goldens with)."""
    scenarios: list[Scenario] = []
    for sc in _uts_protocol_grid("uts", 60, 4):
        scenarios.append(Scenario("fig6.1/" + sc.name, sc.workload,
                                  sc.workload_args, sc.config))
    for sc in _uts_protocol_grid("utsd", 60, 4):
        scenarios.append(Scenario("fig6.2/" + sc.name, sc.workload,
                                  sc.workload_args, sc.config))
    for sc in _implicit_grid(2, 8):
        scenarios.append(Scenario("fig6.3/" + sc.name, sc.workload,
                                  sc.workload_args, sc.config))
    mshr_axis = [{"mshr_entries": s, "store_buffer_entries": s} for s in (32, 256)]
    for base in _implicit_grid(2, 8):
        for sc in Sweep(base, {"mshr_entries": mshr_axis}).expand():
            scenarios.append(Scenario("fig6.4/" + sc.name, sc.workload,
                                      sc.workload_args, sc.config))
    return scenarios


def _fleet_fast_scenarios() -> list[Scenario]:
    """The five fleet workloads at their campaign fast sizes."""
    return [
        Scenario("fleet/" + label, workload, dict(fast_args), dict(config))
        for label, workload, _full, fast_args, config in DEFAULT_FLEET
    ]


#: the benchmark's UTS cell: 300 nodes, 2 warps/TB, 2 SMs, GPU coherence
PERFBENCH_UTS_ARGS = {"total_nodes": 300, "warps_per_tb": 2}
PERFBENCH_UTS_CONFIG = {"protocol": "gpu", "num_sms": 2}


def _ablation_scenarios() -> list[Scenario]:
    """The benchmark's UTS cell under the configurations on which
    :class:`FastSM` delegates to ``SM.tick``."""
    return [
        Scenario("ablation/" + name, "uts", dict(PERFBENCH_UTS_ARGS),
                 dict(PERFBENCH_UTS_CONFIG, **override))
        for name, override in (("gto", {"warp_scheduler": "gto"}),
                               ("strong", {"attribution_policy": "strong"}))
    ]


def _perfbench_uts_scenarios() -> list[Scenario]:
    """The benchmark's UTS cell at the tree seeds of benchmark seeds 2-5,
    which the benchmark's own seed-1 reference digests do not cover."""
    return [
        Scenario("perfbench/uts-%d" % tree_seed, "uts",
                 dict(PERFBENCH_UTS_ARGS, tree_seed=tree_seed),
                 dict(PERFBENCH_UTS_CONFIG))
        for tree_seed in (62655, 15596, 15470, 40823)
    ]


SCENARIOS = (_fig6x_fast_scenarios() + _fleet_fast_scenarios()
             + _ablation_scenarios() + _perfbench_uts_scenarios())

#: scenario name -> SHA-256 of the canonical ``SimResult.to_dict()`` JSON
#: and of the flattened component stats tree, generated on the python core
PINS_PATH = Path(__file__).parent / "data" / "stats_pins.json"


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(result) -> dict[str, str]:
    return {"result": _sha(result.to_dict()),
            "stats": _sha(result.stats_tree.flatten())}


def _run(scenario: Scenario, core: str):
    config = scenario.build_config().scaled(core=core)
    return run_workload(config, scenario.build_workload())


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.name for s in SCENARIOS])
def test_fast_core_matches_python_oracle(scenario: Scenario, pins: dict) -> None:
    outcome = {core: _run(scenario, core) for core in ("python", "fast")}
    py, fast = outcome["python"], outcome["fast"]
    assert fast.to_dict() == py.to_dict(), "serialized SimResult diverged from oracle"
    assert fast.stats_tree.flatten() == py.stats_tree.flatten(), (
        "component stats tree diverged from oracle")
    assert _digests(py) == pins[scenario.name], "result differs from its pin"


if __name__ == "__main__":
    # Regenerate the pins (only for an intended model change):
    #   PYTHONPATH=src python tests/test_fast_core_oracle.py > tests/data/stats_pins.json
    json.dump({sc.name: _digests(_run(sc, "python")) for sc in SCENARIOS},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
