"""Simulated TCP: segments, the connection state machine, and the stack."""
