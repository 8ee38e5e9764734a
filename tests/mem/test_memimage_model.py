"""The line-granular memory image against a byte-dict reference model."""

from hypothesis import given, settings, strategies as st

from repro.mem.address import AddressSpace
from repro.mem.memimage import MemoryImage

LINE = 64


class ByteDictImage:
    """Reference: one dict entry per byte, versions per touched line."""

    def __init__(self, space):
        self.space = space
        self.bytes = {}
        self.versions = {}

    def _bump(self, addr, size):
        for line in self.space.lines_touched(addr, size):
            self.versions[line] = self.versions.get(line, 0) + 1

    def read_bytes(self, addr, size):
        return tuple(self.bytes.get(addr + i, 0) for i in range(size))

    def read(self, addr, size):
        value = 0
        for i, byte in enumerate(self.read_bytes(addr, size)):
            value |= byte << (8 * i)
        return value

    def write(self, addr, size, value):
        for i in range(size):
            self.bytes[addr + i] = (value >> (8 * i)) & 0xFF
        self._bump(addr, size)

    def write_bytes(self, addr, data):
        for i, byte in enumerate(data):
            self.bytes[addr + i] = byte & 0xFF
        self._bump(addr, max(len(data), 1))

    def snapshot(self, addr, size):
        return self.read_bytes(addr, size), self.versions.get(
            self.space.line_of(addr), 0
        )


# Addresses span four lines, so accesses start anywhere and straddle.
addrs = st.integers(min_value=0, max_value=4 * LINE - 1)
sizes = st.integers(min_value=0, max_value=LINE + 8)
ops = st.one_of(
    st.tuples(st.just("write"), addrs, sizes,
              st.integers(min_value=0, max_value=2 ** 600)),
    st.tuples(st.just("write_bytes"), addrs,
              st.lists(st.integers(min_value=-300, max_value=300),
                       max_size=LINE + 8)),
    st.tuples(st.just("check"), addrs, sizes),
)


def assert_same(image, model, addr, size):
    space = image.space
    assert image.read_bytes(addr, size) == model.read_bytes(addr, size)
    assert image.read(addr, size) == model.read(addr, size)
    assert image.read_byte(addr) == model.read_bytes(addr, 1)[0]
    assert image.snapshot(addr, size) == model.snapshot(addr, size)
    for line in space.lines_touched(addr, size):
        assert image.line_version(line) == model.versions.get(line, 0)
    expected = model.read_bytes(addr, size)
    assert image.matches(addr, size, list(expected))
    if size:
        flipped = (expected[0] ^ 1,) + expected[1:]
        assert not image.matches(addr, size, flipped)


class TestAgainstByteDict:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(ops, max_size=40))
    def test_every_access_matches_the_reference(self, sequence):
        space = AddressSpace(line_bytes=LINE)
        image, model = MemoryImage(space), ByteDictImage(space)
        for op in sequence:
            if op[0] == "write":
                _, addr, size, value = op
                image.write(addr, size, value)
                model.write(addr, size, value)
                assert_same(image, model, addr, size)
            elif op[0] == "write_bytes":
                _, addr, data = op
                image.write_bytes(addr, data)
                model.write_bytes(addr, data)
                assert_same(image, model, addr, len(data))
            else:
                _, addr, size = op
                assert_same(image, model, addr, size)
        for line in range(0, 5 * LINE, LINE):
            assert image.read_bytes(line, LINE) == model.read_bytes(line, LINE)
            assert image.line_version(line) == model.versions.get(line, 0)

    @given(st.integers(min_value=0, max_value=LINE - 1),
           st.integers(min_value=1, max_value=LINE),
           st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_aba_write_passes_validation_while_version_advances(
        self, offset, size, first, second
    ):
        image = MemoryImage(AddressSpace(line_bytes=LINE))
        addr = 2 * LINE + offset  # may straddle into the next line
        image.write(addr, size, first)
        used, version = image.snapshot(addr, size)
        image.write(addr, size, second)
        image.write(addr, size, first)  # A -> B -> A
        assert image.matches(addr, size, used)
        assert image.line_version(image.space.line_of(addr)) == version + 2
