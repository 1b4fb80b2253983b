"""Discrete-event network substrate: scheduler, LAN, ARP, WAN, capture."""
