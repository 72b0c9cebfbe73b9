"""Simulated message-passing network on the discrete-event engine.

A :class:`Network` connects named nodes.  ``send`` delivers a message
after a random latency drawn from ``[min_latency, max_latency]``, dropping
it with probability ``loss``; messages to down nodes vanish (no errors —
the sender cannot tell a slow node from a dead one, which is what makes
heartbeats and elections necessary).  Delivery order between two nodes is
not guaranteed (independent latency draws), matching a datagram network.

Determinism: all latency/loss draws come from one seeded stream, so
protocol runs replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..sim.engine import Engine


class NetworkError(Exception):
    """Illegal network operation (duplicate node, unknown sender...)."""


@dataclass(frozen=True)
class NetworkConfig:
    """Latency and loss parameters."""

    min_latency: float = 0.001
    max_latency: float = 0.010
    loss: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.min_latency <= self.max_latency:
            raise NetworkError(
                f"need 0 <= min <= max latency, got "
                f"[{self.min_latency!r}, {self.max_latency!r}]"
            )
        if not 0.0 <= self.loss < 1.0:
            raise NetworkError(f"loss must be in [0, 1), got {self.loss!r}")


Handler = Callable[[str, Any], None]  # (sender, message) -> None


class Network:
    """Datagram network between named nodes."""

    def __init__(
        self,
        engine: Engine,
        rng: np.random.Generator,
        config: NetworkConfig | None = None,
    ) -> None:
        self.engine = engine
        self.rng = rng
        self.config = config or NetworkConfig()
        self._handlers: dict[str, Handler] = {}
        self._up: dict[str, bool] = {}
        self.sent = 0
        self.delivered = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def register(self, name: str, handler: Handler) -> None:
        """Attach a node's message handler under ``name``."""
        if name in self._handlers:
            raise NetworkError(f"node {name!r} already registered")
        self._handlers[name] = handler
        self._up[name] = True

    @property
    def nodes(self) -> list[str]:
        return sorted(self._handlers)

    def set_down(self, name: str) -> None:
        """Partition/crash a node: it receives nothing until set_up."""
        if name not in self._handlers:
            raise NetworkError(f"unknown node {name!r}")
        self._up[name] = False

    def set_up(self, name: str) -> None:
        """Heal a node after :meth:`set_down`."""
        if name not in self._handlers:
            raise NetworkError(f"unknown node {name!r}")
        self._up[name] = True

    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, message: Any) -> None:
        """Queue a message for delivery (or silent loss)."""
        if src not in self._handlers:
            raise NetworkError(f"unknown sender {src!r}")
        if dst not in self._handlers:
            raise NetworkError(f"unknown destination {dst!r}")
        self.sent += 1
        if self.config.loss > 0 and self.rng.random() < self.config.loss:
            self.dropped += 1
            return
        delay = float(
            self.rng.uniform(self.config.min_latency, self.config.max_latency)
        )
        self.engine.schedule(delay, self._deliver, src, dst, message)

    def broadcast(self, src: str, message: Any, include_self: bool = False) -> None:
        """Send to every registered node (each copy independently delayed
        and dropped)."""
        for dst in self.nodes:
            if dst == src and not include_self:
                continue
            self.send(src, dst, message)

    def _deliver(self, src: str, dst: str, message: Any) -> None:
        if not self._up.get(dst, False):
            self.dropped += 1
            return
        self.delivered += 1
        self._handlers[dst](src, message)
