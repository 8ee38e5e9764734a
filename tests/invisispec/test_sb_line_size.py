"""The SB holds lines of the machine's line size, not a fixed 64 bytes."""

from repro.configs import ProcessorConfig, Scheme
from repro.invisispec.sb import SpeculativeBuffer
from repro.mem.address import AddressSpace
from repro.params import CacheParams, SystemParams
from repro.system import System
from repro.workloads import SPEC_PROFILES, SyntheticTrace


def test_store_forward_past_byte_64_survives_the_fill():
    space = AddressSpace(line_bytes=128)
    sb = SpeculativeBuffer(4, space.line_bytes)
    sb.allocate(0)
    sb.forward_from_store(0, 0x1000, 70, [0xAB])
    memory_line = tuple(range(128))
    slot = sb.fill(0, 0x1000, memory_line, version=1, address_mask=1 << 70)
    assert slot.data[70] == 0xAB
    assert slot.from_store_mask >> 70 & 1
    assert slot.data[:70] == memory_line[:70]
    assert slot.data[71:] == memory_line[71:]


def test_core_sizes_its_sb_from_the_address_space():
    line = 128
    params = SystemParams.for_spec(
        l1d=CacheParams(
            size_bytes=64 * 1024, ways=8, round_trip_latency=1, ports=3,
            line_bytes=line,
        ),
        l2_bank=CacheParams(
            size_bytes=2 * 1024 * 1024, ways=16, round_trip_latency=8,
            ports=1, line_bytes=line,
        ),
    )
    system = System(
        params, ProcessorConfig(scheme=Scheme.IS_FUTURE),
        [SyntheticTrace(SPEC_PROFILES["mcf"], seed=0)],
    )
    assert system.cores[0].visibility.sb.line_bytes == line
