"""Section VII countermeasures: ACK timeouts and timestamp checking."""
