"""Simulated TLS: record protection decoupled from any timeout detection."""
