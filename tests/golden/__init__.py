"""Golden counter snapshots of the simulator (see :mod:`.matrix`)."""
