"""Integration tests of the L1 <-> mesh <-> L2 <-> DRAM path, per protocol.

These build a miniature two-core system (no SMs) and drive the L1
controllers directly, asserting the latencies, service locations and
directory transitions that GSI's sub-classification depends on.
"""

import pytest

from repro.core.stall_types import ServiceLocation
from repro.mem.cache import LineState
from repro.mem.coherence.denovo import DeNovoCoherence
from repro.mem.coherence.gpu_coherence import GpuCoherence
from repro.mem.l1 import L1Controller
from repro.mem.l2 import L2Cache
from repro.mem.main_memory import Dram, GlobalMemory
from repro.noc.mesh import Mesh
from repro.noc.message import MsgType
from repro.sim.config import SystemConfig


class MiniSystem:
    """Two L1s sharing an L2 over the mesh."""

    def __init__(self, protocol_cls, config=None):
        self.config = config or SystemConfig()
        from repro.sim.engine import Engine

        self.engine = Engine()
        self.mesh = Mesh(
            self.engine,
            self.config.mesh_rows,
            self.config.mesh_cols,
            hop_latency=self.config.hop_latency,
            endpoint_bw=self.config.mesh_endpoint_bw,
        )
        self.memory = GlobalMemory()
        self.dram = Dram(self.config.dram_latency, self.config.dram_channels)
        self.l2 = L2Cache(self.config, self.mesh, self.memory, self.dram)
        self.l1s = {}
        for node in (0, 5):
            self.l1s[node] = L1Controller(
                node,
                self.config,
                self.mesh,
                self.l2.node_of_line,
                protocol_cls(),
                self.memory,
            )
        for node in range(self.config.num_nodes):
            self.mesh.attach(node, self._dispatch(node))

    def _dispatch(self, node):
        requests = {
            MsgType.GETS,
            MsgType.PUT_WT,
            MsgType.GETO,
            MsgType.ATOMIC,
            MsgType.WB_OWNED,
        }

        def handler(message):
            if message.mtype in requests:
                self.l2.handle_message(message)
            else:
                self.l1s[node].handle_message(message)

        return handler

    def load(self, node, line):
        """Blocking load helper: returns (service_loc, latency)."""
        out = {}
        start = self.engine.now

        def done(loc, _rid):
            out["loc"] = loc
            out["latency"] = self.engine.now - start

        self.l1s[node].load_line(line, done)
        self.engine.run()
        return out["loc"], out["latency"]

    def store(self, node, line):
        self.l1s[node].store_line(line)
        self.engine.run()

    def atomic(self, node, addr, fn):
        out = {}
        self.l1s[node].atomic(addr, fn, lambda v: out.setdefault("value", v))
        self.engine.run()
        return out["value"]


class TestGpuCoherence:
    def test_cold_load_serviced_at_memory(self):
        sys = MiniSystem(GpuCoherence)
        loc, latency = sys.load(0, line=0x100)
        assert loc is ServiceLocation.MEMORY
        # Table 5.1: memory latency 197-261 cycles.
        assert latency >= sys.config.dram_latency

    def test_second_load_hits_l1(self):
        sys = MiniSystem(GpuCoherence)
        sys.load(0, 0x100)
        loc, latency = sys.load(0, 0x100)
        assert loc is ServiceLocation.L1
        assert latency <= 2

    def test_l2_hit_after_remote_fill(self):
        sys = MiniSystem(GpuCoherence)
        sys.load(0, 0x100)  # fills L2 from DRAM
        loc, latency = sys.load(5, 0x100)
        assert loc is ServiceLocation.L2
        # Table 5.1: L2 hit latency 29-61 cycles.
        assert 20 <= latency <= 80

    def test_write_through_reaches_l2_and_frees_sb(self):
        sys = MiniSystem(GpuCoherence)
        sys.store(0, 0x100)
        assert sys.l1s[0].store_buffer.is_empty()
        assert sys.l2.stores == 1
        # Write-through, no ownership registered.
        assert sys.l2.owner == {}

    def test_acquire_invalidates_everything(self):
        sys = MiniSystem(GpuCoherence)
        sys.load(0, 0x100)
        sys.load(0, 0x140)
        assert sys.l1s[0].cache.occupancy() == 2
        sys.l1s[0].acquire_invalidate()
        assert sys.l1s[0].cache.occupancy() == 0

    def test_no_remote_l1_service_ever(self):
        sys = MiniSystem(GpuCoherence)
        sys.store(0, 0x100)
        loc, _ = sys.load(5, 0x100)
        assert loc in (ServiceLocation.L2, ServiceLocation.MEMORY)


class TestDeNovo:
    def test_store_registers_ownership(self):
        sys = MiniSystem(DeNovoCoherence)
        sys.store(0, 0x100)
        assert sys.l2.owner.get(0x100) == 0
        assert sys.l1s[0].cache.state_of(0x100) is LineState.OWNED

    def test_remote_load_forwarded_to_owner(self):
        sys = MiniSystem(DeNovoCoherence)
        sys.store(0, 0x100)
        loc, latency = sys.load(5, 0x100)
        assert loc is ServiceLocation.REMOTE_L1
        assert sys.l2.remote_forwards == 1
        # Table 5.1: remote L1 hit latency 35-83 cycles.
        assert 20 <= latency <= 100

    def test_owner_load_stays_local(self):
        sys = MiniSystem(DeNovoCoherence)
        sys.store(0, 0x100)
        loc, _ = sys.load(0, 0x100)
        assert loc is ServiceLocation.L1

    def test_acquire_keeps_owned_lines(self):
        sys = MiniSystem(DeNovoCoherence)
        sys.store(0, 0x100)   # owned
        sys.load(0, 0x200)    # valid
        sys.l1s[0].acquire_invalidate()
        assert sys.l1s[0].cache.state_of(0x100) is LineState.OWNED
        assert not sys.l1s[0].cache.contains(0x200)

    def test_second_store_to_owned_line_is_local(self):
        sys = MiniSystem(DeNovoCoherence)
        sys.store(0, 0x100)
        grants_before = sys.l2.ownership_grants
        sys.store(0, 0x100)
        assert sys.l2.ownership_grants == grants_before
        assert sys.l1s[0].local_store_hits == 1
        assert sys.l1s[0].store_buffer.is_empty()

    def test_ownership_transfer_on_remote_store(self):
        sys = MiniSystem(DeNovoCoherence)
        sys.store(0, 0x100)
        sys.store(5, 0x100)
        assert sys.l2.owner.get(0x100) == 5
        # The old owner's line was invalidated by the FWD_GETO.
        assert not sys.l1s[0].cache.contains(0x100)
        assert sys.l2.ownership_recalls >= 1

    def test_eviction_writes_back_and_clears_directory(self):
        cfg = SystemConfig(l1_size=2 * 64 * 1, l1_assoc=1)  # 2 sets, direct
        sys = MiniSystem(DeNovoCoherence, cfg)
        sys.store(0, 0x0)      # set 0, owned
        sys.store(0, 0x2)      # set 0 again -> evicts line 0
        sys.engine.run()
        assert sys.l2.owner.get(0x0) is None
        assert sys.l2.owner.get(0x2) == 0

    def test_atomic_rmw_at_l2(self):
        sys = MiniSystem(DeNovoCoherence)
        value = sys.atomic(0, 0x400, lambda old: (old + 7, old))
        assert value == 0
        assert sys.memory.load_word(0x400) == 7
        value = sys.atomic(5, 0x400, lambda old: (old + 1, old))
        assert value == 7

    def test_atomic_recalls_remote_owner(self):
        sys = MiniSystem(DeNovoCoherence)
        sys.store(0, 0x400 >> 6 << 6 >> 6)  # own the atomic's line: line 0x10
        sys.store(0, 0x10)
        sys.atomic(5, 0x400, lambda old: (old + 1, old))
        assert sys.l2.owner.get(0x10) is None


class TestFunctionalMemory:
    def test_store_then_load_roundtrip(self):
        sys = MiniSystem(GpuCoherence)
        sys.memory.store_word(0x1234, 99)
        assert sys.memory.load_word(0x1234) == 99

    def test_word_alignment(self):
        mem = GlobalMemory()
        mem.store_word(0x103, 5)
        assert mem.load_word(0x100) == 5

    def test_atomic_rmw_returns_old_and_result(self):
        mem = GlobalMemory()
        mem.store_word(0x40, 10)
        old, result = mem.atomic_rmw(0x40, lambda v: (v * 2, v))
        assert (old, result) == (10, 10)
        assert mem.load_word(0x40) == 20


class TestDram:
    def test_fixed_latency(self):
        dram = Dram(latency=100, channels=2)
        assert dram.access_done(0, line=0) == 100

    def test_channel_serialization(self):
        dram = Dram(latency=100, channels=1)
        t1 = dram.access_done(0, 0)
        t2 = dram.access_done(0, 1)
        assert t2 == t1 + 1

    def test_channels_are_independent(self):
        dram = Dram(latency=100, channels=2)
        t1 = dram.access_done(0, 0)
        t2 = dram.access_done(0, 1)  # other channel
        assert t1 == t2

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            Dram(latency=10, channels=0)


class TestMessagePool:
    """Every producer of a message the L1 recycles allocates from the pool,
    so repeating a run leaves the pool where the first run left it."""

    @pytest.mark.parametrize("core", ["python", "fast"])
    @pytest.mark.parametrize("protocol", ["gpu", "denovo"])
    def test_pool_stays_bounded_across_runs(self, protocol, core):
        from repro.experiments.spec import Scenario
        from repro.noc import message
        from repro.system import run_workload

        # UTS: load fills from the L2 and, under DeNovo, owner-forwarded
        # DATA responses from remote L1s
        scenario = Scenario("uts", "uts", {"total_nodes": 40, "warps_per_tb": 2},
                            {"num_sms": 2, "protocol": protocol, "core": core})

        def pool_after_run():
            run_workload(scenario.build_config(), scenario.build_workload())
            return len(message._msg_pool)

        first = pool_after_run()
        assert pool_after_run() == first
