"""IoT servers: vendor endpoints, integration clouds, and local hubs."""

from .endpoint import DeviceRecord, EndpointServer, DEFAULT_PORT
from .integration import DiscardedEvent, IntegrationServer, DEFAULT_C2C_LATENCY
from .local_server import DEFAULT_HAP_PORT, LocalIoTServer
from .notifications import DEFAULT_PUSH_LATENCY, Notification, NotificationService

__all__ = [
    "DEFAULT_C2C_LATENCY",
    "DEFAULT_HAP_PORT",
    "DEFAULT_PORT",
    "DEFAULT_PUSH_LATENCY",
    "DeviceRecord",
    "DiscardedEvent",
    "EndpointServer",
    "IntegrationServer",
    "LocalIoTServer",
    "Notification",
    "NotificationService",
]
