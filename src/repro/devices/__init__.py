"""IoT device models: the 50-device catalogue and their runtimes."""
