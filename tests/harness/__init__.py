"""Test drills that have no product-verb equivalent.

Run one with ``python -m tests.harness <drill> <workdir>``; the drill
table is in :mod:`tests.harness.__main__`.
"""
