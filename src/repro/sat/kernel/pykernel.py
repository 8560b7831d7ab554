"""The pure-Python kernel: always available, the semantics reference.

:class:`PythonKernel` runs the two data-plane loops in pure Python:
:meth:`~PythonKernel.propagate` is BCP over the flat data plane —
binary scan, ternary scan, then the two-phase long scan (read-only
until the first watch move, compacting after) with blocker handling,
in-place arena watch-position swaps and early conflict exits — and
:meth:`~PythonKernel.analyze` is the first-UIP resolution walk.  Its
:meth:`~PythonKernel.search_step` composes the two; the solver keeps
everything after the walk (clause-activity bumps — replayed from the
antecedent list — minimization, LBD, the level-0 closure).

This is the reference the native kernel is validated against: the C
code is the same algorithm over the same memory, so any divergence is
a kernel bug, never an ambiguity.  The differential fuzzer and the
Table-1 pins hold the two byte-identical.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sat.kernel.base import KernelBase
from repro.sat.profile import (
    PROF_ARENA,
    PROF_ATRAIL,
    PROF_AWORDS,
    PROF_BIN,
    PROF_DEQ,
    PROF_LONG,
    PROF_OPEN,
    PROF_PROPS,
    PROF_TERN,
)


class PythonKernel(KernelBase):
    """Flat-array BCP and first-UIP analysis, in pure Python.

    Analysis walks clause literals in install order, read from the
    install-order mirror exactly as the C walk reads them, which decides
    seen-marking order and so the learned clause.  Clause-activity
    bumps are left to the solver, which replays them from the returned
    antecedent order.
    """

    name = "python"

    def search_step(
        self, num_assumptions: int, budget: int = 0
    ) -> Tuple[int, Optional[Tuple[List[int], List[int]]]]:
        """:meth:`propagate`, then :meth:`analyze` when the conflict
        lands above the assumption prefix (the seam contract, see
        :mod:`repro.sat.kernel.base`).  Makes no decisions, whatever
        the ``budget``: the solver's own decision branch is the
        reference the native kernel's decisions are checked against."""
        conflict = self.propagate()
        if conflict < 0 or self.solver._decision_level <= num_assumptions:
            return conflict, None
        return conflict, self.analyze(conflict)

    def propagate(self) -> int:  # solcheck: hot
        """Exhaust the implication queue; returns a conflicting clause
        ID or -1.  Hot-path discipline: every name in the inner loops
        is a local, every literal test one subscript, propagation
        counts flushed to stats once on exit.
        """
        solver = self.solver
        truth = solver.lit_truth
        arena = solver._arena
        adata = arena.data
        arefs = arena.refs
        trail = solver._trail
        levels = solver._levels
        reasons = solver._reasons
        level = solver._decision_level
        long_cols = self.long
        l_off = long_cols.offs
        l_size = long_cols.size
        l_data = long_cols.data
        append_long = long_cols.append2
        b_off = self.bin.offs
        b_size = self.bin.size
        b_data = self.bin.data
        t_off = self.tern.offs
        t_size = self.tern.size
        t_data = self.tern.data
        # A table whose pool was never allocated has no entries and
        # cannot gain any mid-call (attach happens outside propagate;
        # long watch moves need an existing long block), so one local
        # truthiness test replaces a per-literal size subscript.
        b_any = self.bin.used
        t_any = self.tern.used
        l_any = long_cols.used
        qhead = solver._qhead
        trail_len = solver._trail_len
        props = 0
        # Access profiling (repro.sat.profile): raw aggregates in
        # locals, flushed at the exit sites — same conventions as the
        # C kernel.
        profile = solver._profile
        qhead0 = qhead
        acc_bin = 0
        acc_tern = 0
        acc_long = 0
        acc_open = 0
        acc_arena = 0
        while qhead < trail_len:
            lit = trail[qhead]
            qhead += 1
            false_lit = lit ^ 1
            n = b_size[false_lit] if b_any else 0
            acc_bin += n
            if n == 1:
                # Most literals watch exactly one binary clause; skip
                # the range construction for that dominant case.
                e = b_off[false_lit]
                implied = b_data[e + 1]
                value = truth[implied]
                if value == 2:
                    props += 1
                    truth[implied] = 1
                    truth[implied ^ 1] = 0
                    var = implied >> 1
                    levels[var] = level
                    reasons[var] = b_data[e]
                    trail[trail_len] = implied
                    trail_len += 1
                elif value == 0:
                    solver._qhead = qhead
                    solver._trail_len = trail_len
                    solver.stats.propagations += props
                    if profile is not None:
                        profile[PROF_BIN] += acc_bin
                        profile[PROF_TERN] += acc_tern
                        profile[PROF_LONG] += acc_long
                        profile[PROF_OPEN] += acc_open
                        profile[PROF_ARENA] += acc_arena
                        profile[PROF_PROPS] += props
                        profile[PROF_DEQ] += qhead - qhead0
                    return b_data[e]
            elif n:
                base = b_off[false_lit]
                for e in range(base, base + 2 * n, 2):
                    implied = b_data[e + 1]
                    value = truth[implied]
                    if value == 2:
                        props += 1
                        truth[implied] = 1
                        truth[implied ^ 1] = 0
                        var = implied >> 1
                        levels[var] = level
                        reasons[var] = b_data[e]
                        trail[trail_len] = implied
                        trail_len += 1
                    elif value == 0:
                        solver._qhead = qhead
                        solver._trail_len = trail_len
                        solver.stats.propagations += props
                        if profile is not None:
                            profile[PROF_BIN] += acc_bin
                            profile[PROF_TERN] += acc_tern
                            profile[PROF_LONG] += acc_long
                            profile[PROF_OPEN] += acc_open
                            profile[PROF_ARENA] += acc_arena
                            profile[PROF_PROPS] += props
                            profile[PROF_DEQ] += qhead - qhead0
                        return b_data[e]
            n = t_size[false_lit] if t_any else 0
            acc_tern += n
            if n:
                base = t_off[false_lit]
                for e in range(base, base + 3 * n, 3):
                    lit_a = t_data[e + 1]
                    lit_b = t_data[e + 2]
                    value_a = truth[lit_a]
                    value_b = truth[lit_b]
                    if value_a and value_b:
                        # Neither companion false: nothing can happen.
                        continue
                    if value_a == 0:  # a is false
                        if value_b == 2:
                            props += 1
                            truth[lit_b] = 1
                            truth[lit_b ^ 1] = 0
                            var = lit_b >> 1
                            levels[var] = level
                            reasons[var] = t_data[e]
                            trail[trail_len] = lit_b
                            trail_len += 1
                        elif value_b == 0:
                            solver._qhead = qhead
                            solver._trail_len = trail_len
                            solver.stats.propagations += props
                            if profile is not None:
                                profile[PROF_BIN] += acc_bin
                                profile[PROF_TERN] += acc_tern
                                profile[PROF_LONG] += acc_long
                                profile[PROF_OPEN] += acc_open
                                profile[PROF_ARENA] += acc_arena
                                profile[PROF_PROPS] += props
                                profile[PROF_DEQ] += qhead - qhead0
                            return t_data[e]
                        # else: b is true — clause satisfied
                    elif value_a == 2:  # b is false, a unassigned
                        props += 1
                        truth[lit_a] = 1
                        truth[lit_a ^ 1] = 0
                        var = lit_a >> 1
                        levels[var] = level
                        reasons[var] = t_data[e]
                        trail[trail_len] = lit_a
                        trail_len += 1
                    # else: a is true — clause satisfied
            if not l_any:
                continue
            n = l_size[false_lit]
            if not n:
                continue
            acc_long += n
            wbase = l_off[false_lit]
            # Phase 1 — read-only: until a watch actually *moves* the
            # list needs no compaction, so kept entries cost no stores
            # and a conflict returns with the list untouched.  Only the
            # first removal switches to the copying loop below, where j
            # trails i from the removed slot on.  Entries are 2-word
            # groups at wbase + 2*i.
            i = 0
            while i < n:
                eoff = wbase + 2 * i
                if truth[l_data[eoff + 1]] == 1:
                    i += 1
                    continue
                cid = l_data[eoff]
                acc_open += 1
                cbase = arefs[cid]
                first = adata[cbase]
                if first == false_lit:
                    first = adata[cbase + 1]
                    adata[cbase] = first
                    adata[cbase + 1] = false_lit
                first_truth = truth[first]
                if first_truth == 1:
                    l_data[eoff + 1] = first
                    i += 1
                    continue
                end = cbase + adata[cbase - 1]
                acc_arena += end - cbase - 2
                for k in range(cbase + 2, end):
                    other = adata[k]
                    if truth[other] != 0:
                        adata[k] = adata[cbase + 1]
                        adata[cbase + 1] = other
                        append_long(other, cid, first)
                        break
                else:
                    if first_truth == 2:
                        props += 1
                        truth[first] = 1
                        truth[first ^ 1] = 0
                        var = first >> 1
                        levels[var] = level
                        reasons[var] = cid
                        trail[trail_len] = first
                        trail_len += 1
                        i += 1
                        continue
                    solver._qhead = qhead
                    solver._trail_len = trail_len
                    solver.stats.propagations += props
                    if profile is not None:
                        profile[PROF_BIN] += acc_bin
                        profile[PROF_TERN] += acc_tern
                        profile[PROF_LONG] += acc_long
                        profile[PROF_OPEN] += acc_open
                        profile[PROF_ARENA] += acc_arena
                        profile[PROF_PROPS] += props
                        profile[PROF_DEQ] += qhead - qhead0
                    return cid
                # Watch moved: slot i is dropped — compact from here on.
                j = i
                i += 1
                while i < n:
                    eoff = wbase + 2 * i
                    i += 1
                    cid = l_data[eoff]
                    blocker = l_data[eoff + 1]
                    if truth[blocker] == 1:
                        joff = wbase + 2 * j
                        l_data[joff] = cid
                        l_data[joff + 1] = blocker
                        j += 1
                        continue
                    acc_open += 1
                    cbase = arefs[cid]
                    first = adata[cbase]
                    if first == false_lit:
                        first = adata[cbase + 1]
                        adata[cbase] = first
                        adata[cbase + 1] = false_lit
                    first_truth = truth[first]
                    if first_truth == 1:
                        joff = wbase + 2 * j
                        l_data[joff] = cid
                        l_data[joff + 1] = first
                        j += 1
                        continue
                    end = cbase + adata[cbase - 1]
                    acc_arena += end - cbase - 2
                    for k in range(cbase + 2, end):
                        other = adata[k]
                        if truth[other] != 0:
                            adata[k] = adata[cbase + 1]
                            adata[cbase + 1] = other
                            append_long(other, cid, first)
                            break
                    else:
                        joff = wbase + 2 * j
                        l_data[joff] = cid
                        l_data[joff + 1] = blocker
                        j += 1
                        if first_truth == 2:
                            props += 1
                            truth[first] = 1
                            truth[first ^ 1] = 0
                            var = first >> 1
                            levels[var] = level
                            reasons[var] = cid
                            trail[trail_len] = first
                            trail_len += 1
                        else:
                            # Conflict: keep the untouched tail.
                            while i < n:
                                soff = wbase + 2 * i
                                joff = wbase + 2 * j
                                l_data[joff] = l_data[soff]
                                l_data[joff + 1] = l_data[soff + 1]
                                j += 1
                                i += 1
                            l_size[false_lit] = j
                            solver._qhead = qhead
                            solver._trail_len = trail_len
                            solver.stats.propagations += props
                            if profile is not None:
                                profile[PROF_BIN] += acc_bin
                                profile[PROF_TERN] += acc_tern
                                profile[PROF_LONG] += acc_long
                                profile[PROF_OPEN] += acc_open
                                profile[PROF_ARENA] += acc_arena
                                profile[PROF_PROPS] += props
                                profile[PROF_DEQ] += qhead - qhead0
                            return cid
                l_size[false_lit] = j
                break
        solver._qhead = qhead
        solver._trail_len = trail_len
        solver.stats.propagations += props
        if profile is not None:
            profile[PROF_BIN] += acc_bin
            profile[PROF_TERN] += acc_tern
            profile[PROF_LONG] += acc_long
            profile[PROF_OPEN] += acc_open
            profile[PROF_ARENA] += acc_arena
            profile[PROF_PROPS] += props
            profile[PROF_DEQ] += qhead - qhead0
        return -1

    def analyze(  # solcheck: hot
        self, conflict_cid: int
    ) -> Tuple[List[int], List[int]]:
        """The first-UIP resolution walk; returns ``(learned,
        antecedents)`` with the asserting literal at ``learned[0]``,
        seen marks left set and the touched/zero scratch lists filled —
        the seam contract (see :mod:`repro.sat.kernel.base`).  Hot-path
        discipline: every name in the inner loop is a local, the only
        marker structure is the persistent ``_seen`` bytearray, so a
        conflict allocates no sets.
        """
        solver = self.solver
        seen = solver._seen
        levels = solver._levels
        reasons = solver._reasons
        mdata = self.mirror.data
        mrefs = self.mirror.refs
        trail = solver._trail
        current = solver._decision_level
        learned: List[int] = [0]
        antecedents: List[int] = [conflict_cid]
        zero = solver._zero_scratch
        touched = solver._touched_scratch
        touched_append = touched.append
        learned_append = learned.append
        counter = 0
        p = -1
        cid = conflict_cid
        idx = solver._trail_len - 1
        profile = solver._profile
        idx0 = idx
        acc_words = 0

        while True:
            ref = mrefs[cid]
            n = mdata[ref - 1]
            acc_words += n
            for q in mdata[ref:ref + n]:
                if q == p:
                    continue
                var = q >> 1
                if seen[var]:
                    continue
                level = levels[var]
                if level == 0:
                    seen[var] = 1
                    touched_append(var)
                    zero.append(var)
                    continue
                seen[var] = 1
                touched_append(var)
                if level >= current:
                    counter += 1
                else:
                    learned_append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            cid = reasons[p >> 1]
            antecedents.append(cid)

        learned[0] = p ^ 1
        if profile is not None:
            profile[PROF_AWORDS] += acc_words
            profile[PROF_ATRAIL] += idx0 - idx
        return learned, antecedents
