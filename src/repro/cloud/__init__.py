"""IoT servers: vendor endpoints, integration clouds, and local hubs."""
