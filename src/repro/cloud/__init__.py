"""IoT servers: vendor endpoints, integration clouds, and local hubs."""

from .endpoint import DeviceRecord, EndpointServer, DEFAULT_PORT
from .integration import DiscardedEvent, IntegrationServer, DEFAULT_C2C_LATENCY
from .local_server import DEFAULT_HAP_PORT, LocalIoTServer
from .notifications import DEFAULT_PUSH_LATENCY, Notification, NotificationService
from .user_app import AppView, ManualCommand, UserApp

__all__ = [
    "AppView",
    "DEFAULT_C2C_LATENCY",
    "ManualCommand",
    "UserApp",
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
