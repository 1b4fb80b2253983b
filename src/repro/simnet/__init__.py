"""Discrete-event network substrate: scheduler, LAN, ARP, WAN, capture."""

from .arp import ArpCache, ArpEntry, DEFAULT_ARP_TTL
from .cloudhost import CloudHost
from .host import Host
from .inet import DnsRegistry, Internet, DEFAULT_WAN_LATENCY
from .link import Lan, Nic, DEFAULT_LAN_LATENCY
from .packet import (
    ArpPacket,
    BROADCAST_MAC,
    EthernetFrame,
    IpPacket,
    MacPool,
)
from .router import Router
from .scheduler import Simulator, Timer
from .trace import CapturedFrame, FlowKey, PacketCapture, PacketMeta

__all__ = [
    "ArpCache",
    "ArpEntry",
    "ArpPacket",
    "BROADCAST_MAC",
    "CapturedFrame",
    "CloudHost",
    "DEFAULT_ARP_TTL",
    "DEFAULT_LAN_LATENCY",
    "DEFAULT_WAN_LATENCY",
    "DnsRegistry",
    "EthernetFrame",
    "FlowKey",
    "Host",
    "Internet",
    "IpPacket",
    "Lan",
    "MacPool",
    "Nic",
    "PacketCapture",
    "PacketMeta",
    "Router",
    "Simulator",
    "Timer",
]
