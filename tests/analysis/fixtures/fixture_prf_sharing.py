# solcheck: path=repro/sat/portfolio.py
"""PRF02 in a clause-sharing module (the path pragma places this file
in ``[tool.solcheck] sharing_modules``): peer clauses may only enter a
solver through ``add_shared_clause``."""


def drain_bus_raw(solver, bus):
    for lits in bus:
        solver.add_clause(lits)  # expect: PRF02


def drain_bus_raw_batch(solver, bus):
    solver.add_clauses(bus)  # expect: PRF02


def drain_bus_shared_ok(solver, bus):
    for lits in bus:
        solver.add_shared_clause(lits)
