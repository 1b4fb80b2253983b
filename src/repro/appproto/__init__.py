"""Application-layer IoT protocols: messages, dialects, and timeout engines."""
