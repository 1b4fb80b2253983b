"""Host-bound TCP stack: listeners, demux, and ephemeral ports.

The stack is the glue between :class:`~repro.simnet.host.Host` (IP in/out)
and :class:`~repro.tcp.connection.TcpConnection` (per-flow state machine).
Every IoT device, hub, cloud server, and local server in the reproduction
talks through one of these.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from ..simnet.host import Host
from ..simnet.packet import IpPacket
from .connection import TcpCallbacks, TcpConfig, TcpConnection
from .segment import TcpSegment

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

#: Callback invoked with a brand-new server-side connection so the
#: application can install its handlers before the handshake completes.
AcceptHandler = Callable[[TcpConnection], None]

EPHEMERAL_BASE = 49152


class TcpStack:
    """One host's TCP: connection table plus listening sockets."""

    def __init__(self, host: Host, default_config: TcpConfig | None = None) -> None:
        self.host = host
        self.sim: "Simulator" = host.sim
        self.default_config = default_config or TcpConfig()
        self._connections: dict[tuple[int, str, int], TcpConnection] = {}
        self._listeners: dict[int, tuple[AcceptHandler, TcpConfig]] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        host.ip_handler = self._on_ip_packet
        self.segments_dropped = 0

    # ----------------------------------------------------------- open/listen

    def listen(
        self,
        port: int,
        on_accept: AcceptHandler,
        config: TcpConfig | None = None,
    ) -> None:
        if port in self._listeners:
            raise ValueError(f"port {port} already listening on {self.host.hostname}")
        self._listeners[port] = (on_accept, config or self.default_config)

    def stop_listening(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connect(
        self,
        remote_ip: str,
        remote_port: int,
        callbacks: TcpCallbacks | None = None,
        config: TcpConfig | None = None,
        local_port: int | None = None,
    ) -> TcpConnection:
        """Open an active connection (SYN goes out immediately)."""
        port = local_port if local_port is not None else self._allocate_port()
        conn = TcpConnection(
            stack=self,
            local_port=port,
            remote_ip=remote_ip,
            remote_port=remote_port,
            config=config or self.default_config,
            callbacks=callbacks,
        )
        key = conn.key
        if key in self._connections:
            raise ValueError(f"connection already exists: {key}")
        self._connections[key] = conn
        conn.open_active()
        return conn

    def _allocate_port(self) -> int:
        for _ in range(65536 - EPHEMERAL_BASE):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= 65536:
                self._next_ephemeral = EPHEMERAL_BASE
            if not any(k[0] == port for k in self._connections) and port not in self._listeners:
                return port
        raise RuntimeError("ephemeral port space exhausted")

    # -------------------------------------------------------------- wire I/O

    def send_segment(self, conn: TcpConnection, segment: TcpSegment) -> None:
        self.host.send_ip(IpPacket(self.host.ip, conn.remote_ip, segment))

    def _on_ip_packet(self, packet: IpPacket) -> None:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return
        key = (segment.dst_port, packet.src_ip, segment.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.on_segment(segment)
            return
        if segment.syn and not segment.ack_flag:
            listener = self._listeners.get(segment.dst_port)
            if listener is not None:
                self._accept(packet, segment, *listener)
                return
        self.segments_dropped += 1
        # A real stack answers strays with RST; the reproduction stays quiet
        # to keep traces readable, matching embedded stacks that drop.

    def _accept(
        self,
        packet: IpPacket,
        syn: TcpSegment,
        on_accept: AcceptHandler,
        config: TcpConfig,
    ) -> None:
        conn = TcpConnection(
            stack=self,
            local_port=syn.dst_port,
            remote_ip=packet.src_ip,
            remote_port=syn.src_port,
            config=config,
        )
        self._connections[conn.key] = conn
        # Let the application install callbacks before any data can arrive.
        on_accept(conn)
        conn.open_passive_syn(syn)

    # ------------------------------------------------------------- lifecycle

    def forget(self, conn: TcpConnection) -> None:
        self._connections.pop(conn.key, None)

    def connections(self) -> list[TcpConnection]:
        return list(self._connections.values())

    def connection_count(self) -> int:
        return len(self._connections)
