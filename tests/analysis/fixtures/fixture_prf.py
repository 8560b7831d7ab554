# solcheck: path=repro/sat/fixture_prf.py
"""PRF fixture corpus: clause lifecycle sites with and without proof
bookkeeping in reach, and the private-install-path fence."""

LEARNED = 1


class ReductionPass:
    def __init__(self, arena, cdg):
        self.arena = arena
        self._cdg = cdg

    def prf01_blind_tombstone(self, cid):
        self.arena.tombstone(cid)  # expect: PRF01

    def prf01_blind_learned_install(self, lits):
        return self.arena.add(lits, LEARNED)  # expect: PRF01

    def prf01_direct_cdg_ok(self, cid):
        self.arena.tombstone(cid)
        self._cdg.mark_deleted(cid)

    def prf01_helper_indirection_ok(self, cid):
        self.arena.tombstone(cid)
        self._note_deletion(cid)

    def _note_deletion(self, cid):
        self._cdg.mark_deleted(cid)

    def prf01_original_add_ok(self, lits):
        return self.arena.add(lits)


def prf02_private_install(solver, lits):
    solver._install([lits])  # expect: PRF02


def prf02_private_import(solver, lits):
    solver._import_shared(lits)  # expect: PRF02


def prf02_shared_entry_ok(solver, lits):
    solver.add_shared_clause(lits)


def prf02_add_clause_ok_outside_sharing(formula, lits):
    # add_clause is only fenced inside the clause-sharing modules
    # (see fixture_prf_sharing.py); building an input formula is fine.
    formula.add_clause(lits)
