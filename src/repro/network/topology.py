"""The interconnect topology: cluster nodes, coordinates, hops, and routes.

The paper's Table 1 charges every miss a flat latency, which is equivalent
to assuming an unloaded crossbar whose port-to-port delay has been folded
into the protocol numbers.  To study what happens when distance and load
matter, :class:`MeshTopology` maps cluster ids onto the nodes of a
near-square 2D mesh with dimension-order (X then Y) routing, the
canonical DASH/Origin-era fabric, and answers two questions the latency
layer asks:

* ``hops(a, b)`` — how many hops a message from node ``a`` to node ``b``
  traverses (0 when ``a == b``);
* ``route(a, b)`` — which *links* it occupies on the way, as a tuple of
  stable integer link ids (the four directed ports of each node), so the
  contention model can track per-link utilization.
"""

from __future__ import annotations

__all__ = ["MeshTopology"]


def mesh_dims(n_nodes: int) -> tuple[int, int]:
    """Near-square (width, height) factorization with ``width <= height``."""
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    width = int(n_nodes ** 0.5)
    while n_nodes % width:
        width -= 1
    return width, n_nodes // width


class MeshTopology:
    """2D mesh of cluster nodes with dimension-order routing.

    Node ``k`` sits at ``(k % width, k // width)``; a message from ``a``
    to ``b`` first walks the X dimension, then Y.  Each traversed link is
    one of the four directed ports (+x, -x, +y, -y) of the node it leaves.
    """

    #: directed port indices (order matters only for link-id stability)
    _PORT_XP, _PORT_XN, _PORT_YP, _PORT_YN = 0, 1, 2, 3

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self.width, self.height = mesh_dims(n_nodes)
        #: one link id per (node, directed port)
        self.n_links = 4 * n_nodes

    def coords(self, node: int) -> tuple[int, int]:
        """(x, y) position of a node."""
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} out of range")
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        """Node id at position (x, y)."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height}")
        return y * self.width + x

    def hops(self, a: int, b: int) -> int:
        """Manhattan distance between two nodes."""
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        return abs(ax - bx) + abs(ay - by)

    def route(self, a: int, b: int) -> tuple[int, ...]:
        """Link ids occupied by a message from ``a`` to ``b`` (X then Y)."""
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        links = []
        x, y = ax, ay
        while x != bx:
            port = self._PORT_XP if bx > x else self._PORT_XN
            links.append(4 * self.node_at(x, y) + port)
            x += 1 if bx > x else -1
        while y != by:
            port = self._PORT_YP if by > y else self._PORT_YN
            links.append(4 * self.node_at(x, y) + port)
            y += 1 if by > y else -1
        return tuple(links)
