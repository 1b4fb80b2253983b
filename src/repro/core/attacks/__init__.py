"""The Section V attacks: the paper's cases declared as scenarios, and the
planner and campaign that arm e-Delay / c-Delay holds in a live home."""
