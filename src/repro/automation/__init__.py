"""Trigger-condition-action automation: rules, engine, and DSL."""
