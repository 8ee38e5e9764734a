"""Global memory image: the architectural contents of memory.

The simulator separates *where* a line physically lives (cache arrays,
speculative buffers) from *what* the coherent value of memory is.  A store
updates the image at the instant it performs (merges into the cache and
becomes observable, Section II-B); a load reads the image at the instant its
data response is generated.  Each line also carries a version counter so
InvisiSpec validations can cheaply detect "the bytes I read have since
changed" while still implementing true value-based comparison (an ABA
sequence of writes that restores the original bytes passes validation,
Section VI-E4).

Storage is line-granular: one ``bytearray`` per line ever written, so a
read or write within a line is one slice.  Never-written memory reads as
zero.
"""

from __future__ import annotations

from ..errors import SimulationError


class MemoryImage:
    """Sparse byte-addressable memory with per-line version counters."""

    def __init__(self, address_space):
        self.space = address_space
        self._line_bytes = address_space.line_bytes
        self._offset_mask = address_space.line_bytes - 1
        self._lines = {}  # line_addr -> bytearray(line_bytes)
        self._versions = {}  # line_addr -> int

    def _get(self, addr, size):
        """``size`` bytes from ``addr``, a fresh copy (may straddle lines)."""
        offset = addr & self._offset_mask
        end = offset + size
        line = self._lines.get(addr - offset)
        if end <= self._line_bytes:
            if line is None:
                return bytes(size)
            return line[offset:end]
        head = self._line_bytes - offset
        return self._get(addr, head) + self._get(addr + head, size - head)

    def _put(self, addr, data):
        """Store ``bytes`` at ``addr`` (may straddle lines)."""
        lines = self._lines
        while data:
            offset = addr & self._offset_mask
            base = addr - offset
            line = lines.get(base)
            if line is None:
                line = lines[base] = bytearray(self._line_bytes)
            chunk = data[:self._line_bytes - offset]
            line[offset:offset + len(chunk)] = chunk
            data = data[len(chunk):]
            addr += len(chunk)

    def _bump_versions(self, addr, size):
        versions = self._versions
        for line in self.space.lines_touched(addr, size):
            versions[line] = versions.get(line, 0) + 1

    def read_byte(self, addr):
        line = self._lines.get(addr & ~self._offset_mask)
        return 0 if line is None else line[addr & self._offset_mask]

    def read(self, addr, size):
        """Read ``size`` bytes little-endian as an unsigned integer."""
        return int.from_bytes(self._get(addr, size), "little")

    def read_bytes(self, addr, size):
        """Read ``size`` bytes as a tuple (used by validation comparison)."""
        return tuple(self._get(addr, size))

    def write(self, addr, size, value):
        """Write ``size`` bytes little-endian; bumps the line version(s)."""
        if value < 0:
            raise SimulationError(f"negative store value {value}")
        if size > 0:
            self._put(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(
                size, "little"
            ))
        self._bump_versions(addr, size)

    def write_bytes(self, addr, data):
        """Write a sequence of byte values starting at ``addr``."""
        self._put(addr, bytes(byte & 0xFF for byte in data))
        self._bump_versions(addr, max(len(data), 1))

    def line_version(self, line_addr):
        return self._versions.get(line_addr, 0)

    def snapshot(self, addr, size):
        """Capture ``(bytes, line_version)`` for a speculative read."""
        return (
            tuple(self._get(addr, size)),
            self._versions.get(addr & ~self._offset_mask, 0),
        )

    def matches(self, addr, size, snapshot_bytes):
        """Value-based comparison used by InvisiSpec validation."""
        return tuple(self._get(addr, size)) == tuple(snapshot_bytes)
