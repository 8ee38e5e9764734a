"""Mesh topology (Table IV: 4x2 mesh, 128-bit links, 1 cycle per hop).

Cores and L2 banks are co-located: core *i* and bank *i* sit at node *i*,
numbered row-major.  The memory controller sits at node 0.
"""

from __future__ import annotations

from ..errors import ConfigError


class MeshTopology:
    """Row-major 2D mesh with X-Y routing distances."""

    def __init__(self, cols, rows):
        if cols <= 0 or rows <= 0:
            raise ConfigError(f"invalid mesh {cols}x{rows}")
        self.cols = cols
        self.rows = rows
        nodes = cols * rows
        #: ``hop_table[src * nodes + dst]``: X-Y hop count, built once.
        self.hop_table = [
            abs(src % cols - dst % cols) + abs(src // cols - dst // cols)
            for src in range(nodes)
            for dst in range(nodes)
        ]

    @property
    def num_nodes(self):
        return self.cols * self.rows

    def coords(self, node):
        if not 0 <= node < self.num_nodes:
            raise ConfigError(f"node {node} outside {self.cols}x{self.rows} mesh")
        return node % self.cols, node // self.cols

    def hops(self, src, dst):
        """Manhattan (X-Y routed) hop count between two nodes."""
        nodes = self.cols * self.rows
        if 0 <= src < nodes and 0 <= dst < nodes:
            return self.hop_table[src * nodes + dst]
        bad = dst if 0 <= src < nodes else src
        raise ConfigError(f"node {bad} outside {self.cols}x{self.rows} mesh")

    def max_hops(self):
        return (self.cols - 1) + (self.rows - 1)

    def route(self, src, dst):
        """Node sequence of the X-Y route (inclusive of endpoints)."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        path = [(sx, sy)]
        x, y = sx, sy
        while x != dx:
            x += 1 if dx > x else -1
            path.append((x, y))
        while y != dy:
            y += 1 if dy > y else -1
            path.append((x, y))
        return [py * self.cols + px for px, py in path]
