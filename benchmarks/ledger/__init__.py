"""The two-clock performance ledger (see ``README.md`` in this directory).

``python3 benchmarks/ledger/run.py`` (or ``python -m benchmarks.ledger``)
measures what the simulator costs to run (host clock) next to what it
reports (simulated clock), end to end and layer by layer.
"""
