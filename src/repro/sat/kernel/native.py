"""The native kernel: the same loops, compiled, over the same memory.

The C code below transliterates
:meth:`~repro.sat.kernel.pykernel.PythonKernel.propagate` (binary,
ternary, then the two-phase long scan) and
:meth:`~repro.sat.kernel.pykernel.PythonKernel.analyze` (the first-UIP
resolution walk, reading every clause's literals from the install-order
mirror) into two static loops, and exports them fused as one
``search_step``: propagate, then — within the decision budget Python
passes — pop the next decision from the bound decision heap, assign it
and propagate again, and analyze the conflict that ends the run,
without returning to Python in between: one FFI crossing per conflict
(see :mod:`repro.sat.kernel.base` for the budget rule).  ``backtrack``
is ``CdclSolver._backtrack``'s loop — truth reset, saved phases, the
heap re-insert — in one call.  The ``vheap_*`` exports are the
decision heap (:class:`NativeActivityHeap`, an indexed binary max-heap
over variables whose keys are read in place): a bulk O(n) build from
``lit_truth``, a pop that discards assigned variables until an
unassigned one, a reinsert of a trail slice, the increase/update
re-key, and the refresh after a key swap or rescale.  The other
exports install clauses:

* ``fill_columns`` is the bulk watch install: it lays a constructor's
  or fork's empty columns out in exactly sized blocks, and appends a
  live solver's ``add_clauses`` batch to warm columns at a cost that
  follows the batch, not the literal space.
* ``install_batch`` is ``CdclSolver._install_tuples`` — the per-clause
  install loop — over a :class:`~repro.cnf.formula.ClauseRun`'s flat
  ``[n, lit_0 … lit_{n-1}]`` words, one call per batch: dedupe,
  tautology flags, literal counts, arena words/refs/flags, the
  install-order mirror blocks, per-table watch IDs, and the root-fact classification (root-satisfied clauses
  pruned into an out-buffer, effectively-unit ones enqueued on the
  trail, long ones reordered to watch two free literals).  It hands a
  clause back to Python, then resumes at the next one, in two cases:
  a unit (the solver records its defining unit in a dict) and a
  clause falsified at the root (the reason closure and the CDG).  A
  batch installed while the solver is UNSAT is only stored, exactly as
  the reference loop stores it.

All run zero-copy over the solver's typed arrays via
``ffi.from_buffer``: ``lit_truth``/``_seen``/arena flags
(``unsigned char`` bytearrays), saved phases (``signed char``),
levels/reasons/trail/level starts/watch columns/arena and mirror words
(``int32_t``), arena and mirror refs (``int64_t``), literal counts
(``double``).  The install exports acquire their views per call
(``install_batch`` keeps them across its hand-backs, which resize
nothing) and release them before returning.  ``search_step`` and
``backtrack`` instead share 28 views cached across calls (re-exporting
every buffer per step would dominate the crossing): the
solver releases them before anything that can resize a viewed array
(:meth:`~repro.sat.kernel.base.KernelBase.invalidate_views`), the
watch columns release them through their ``on_resize`` hook, and cffi
keeps an exported buffer pinned, so a missed release raises
``BufferError`` at the resize instead of corrupting memory.

What C cannot do is grow a Python ``array``.  ``fill_columns`` changes
nothing when the watch pool is too small for a batch and returns the
words it needs instead (Python reserves them and calls again).
``install_batch`` never runs short: before the call Python grows every
array it writes by the batch's undeduplicated size (the run's words
plus one header word per clause for the arena, the run's words for the
mirror, one slot per clause for refs and flags, four ID sections of
one slot per clause), and afterwards cuts the arena and mirror words
back to what C used.  ``search_step`` has cooperative return codes:

* Watch moves discovered during the long scan are not appended
  directly; they are recorded in a *pending* scratch buffer
  (``[dest_lit, cid, blocker]`` triples) and flushed after the
  literal's scan completes, through the same capacity-doubling
  relocation policy the Python side uses.  If the flush runs out of
  pool words it returns ``NEED_GROW`` with a resume flag: Python grows
  the pool and re-enters, and the flush continues where it stopped.
* If a long watch list could overflow the pending buffer, the kernel
  returns ``NEED_PEND`` *before* scanning it (queue head not
  advanced).  Binary/ternary scans are idempotent — already-assigned
  implications are skipped on the re-scan — so re-entering is safe.
* The analysis walk returns ``NEED_ABUF`` when one of its four scratch
  buffers (learned / antecedents / touched / zero) would overflow,
  after unmarking every ``seen`` bit it set (clause-activity bumps are
  replayed Python-side from the antecedent list, so nothing else was
  mutated): Python doubles the buffer named by ``ST_ABUF`` and the walk
  restarts idempotently.  The conflict ID is parked in
  ``ST_ACONFLICT`` so the re-entry skips straight to the walk.

Build: cffi out-of-line API mode, compiled on demand into a cache
directory (``REPRO_KERNEL_CACHE``, default ``~/.cache/repro-bcp-
kernel``) keyed by a hash of the C source, so each source revision
compiles once per machine.  Hosts without cffi or a C compiler — or
with an unloadable cached build — get a :class:`RuntimeError` from the
constructor and a ``False`` from :func:`native_available`; the solver's
default ``kernel=None`` then runs the python kernel.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import sysconfig
import weakref
from array import array
from typing import TYPE_CHECKING, Optional

from repro.sat.arena import HEADER_WORDS
from repro.sat.kernel.base import KernelBase
from repro.sat.profile import PROF_DEQ, PROF_PROPS, new_profile_buffer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from typing import List, Tuple

    from repro.cnf.formula import ClauseRun
    from repro.sat.solver import CdclSolver

#: Shared state-array slots (Python writes, C reads, and back).
ST_QHEAD = 0
ST_TRAIL_LEN = 1
ST_LEVEL = 2
ST_PROPS = 3
ST_LONG_USED = 4
ST_LONG_CAP = 5
ST_RESUME = 6
ST_FLUSH_POS = 7
ST_PEND_N = 8
ST_PEND_CAP = 9
ST_CONFLICT = 10
ST_GROW = 11
# Conflict-analysis slots (the scan never reads them).
ST_ASSUME_LVL = 12
ST_ACONFLICT = 13
ST_LEARNED_N = 14
ST_ANTS_N = 15
ST_TOUCHED_N = 16
ST_ZERO_N = 17
ST_LEARNED_CAP = 18
ST_ANTS_CAP = 19
ST_TOUCHED_CAP = 20
ST_ZERO_CAP = 21
ST_ABUF = 22
ST_ANALYZED = 23
# In-kernel decision slots (see search_step).
ST_BUDGET = 24
ST_DECIDED = 25
ST_MAX_LEVEL = 26
ST_NUM_VARS = 27
ST_PHASE = 28
_STATE_SLOTS = 29

#: ``ST_PHASE`` value per ``SolverConfig.phase_mode``.
_PHASES = {"default": 0, "save": 1, "inverted": 2}

#: install_batch state slots (an ``int64`` array Python fills, C
#: advances and Python reads back at every return).
IB_POS = 0          # next clause's word offset in the run
IB_HI = 1           # the run's end word
IB_CID = 2          # next clause ID
IB_AUSED = 3        # arena words written
IB_MUSED = 4        # mirror words written
IB_COUNT = 5        # clauses in the batch (the out-buffer section size)
IB_NBIN = 6         # out-buffer section fill counts, in section order:
IB_NTERN = 7        # binary, ternary and long watch IDs, root-pruned
IB_NLONG = 8        # IDs
IB_NPRUNED = 9
IB_TRAIL = 10       # the trail length
IB_ENQ = 11         # effectively-unit clauses enqueued
IB_LITS = 12        # literals counted
IB_FLAGS = 13       # IBF_* bits
IB_HAND = 14        # the clause handed back
_IB_SLOTS = 15

IBF_OK = 1          # the solver is not UNSAT: classify and attach
IBF_COUNT = 2       # count literals (off for peer imports)
IBF_PRUNE = 4       # prune root-satisfied clauses at birth

#: Cooperative return codes (>= 0 is a conflicting clause ID).
RET_NO_CONFLICT = -1
RET_NEED_GROW = -2
RET_NEED_PEND = -3
RET_NEED_ABUF = -4

_CDEF = """
typedef struct {
    int32_t *heap;
    int32_t *pos;
    const double *score;
    const double *rank;
    int32_t size;
    int32_t nvars;
} vheap;
int64_t fill_columns(const int32_t *adata, const int64_t *arefs,
                     const int32_t *cids, int32_t ncids, int32_t k,
                     int32_t *off, int32_t *size, int32_t *cap,
                     int32_t *data, int32_t nlits, int64_t used,
                     int64_t pool, int32_t *cnt);
int search_step(unsigned char *truth,
                int32_t *levels, int32_t *reasons, int32_t *trail,
                int32_t *adata, int64_t *arefs,
                const int32_t *b_off, const int32_t *b_size,
                const int32_t *b_data,
                const int32_t *t_off, const int32_t *t_size,
                const int32_t *t_data,
                int32_t *l_off, int32_t *l_size, int32_t *l_cap,
                int32_t *l_data, int32_t *pend,
                const int32_t *mdata, const int64_t *mrefs,
                unsigned char *seen,
                int32_t *learned, int32_t *ants,
                int32_t *touched, int32_t *zero,
                const signed char *saved, int32_t *trail_lim, vheap *h,
                int32_t *st, int64_t *prof);
void backtrack(unsigned char *truth, signed char *saved,
               const int32_t *trail, int32_t lo, int32_t hi, vheap *h);
int install_batch(const int32_t *words,
                  int32_t *adata, int64_t *arefs, unsigned char *aflags,
                  int32_t *mdata, int64_t *mrefs, double *lit_counts,
                  unsigned char *truth, int32_t *levels, int32_t *reasons,
                  int32_t *trail, unsigned char *seen, int32_t *out,
                  int64_t *st);
void vheap_build(vheap *h, const unsigned char *truth);
void vheap_refresh(vheap *h);
int32_t vheap_pop(vheap *h, const unsigned char *truth);
int32_t vheap_reinsert(vheap *h, const int32_t *lits, int32_t n);
int32_t vheap_rekey(vheap *h, int32_t lit, int32_t both_ways);
"""

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* State slots; keep in sync with repro/sat/kernel/native.py. */
#define ST_QHEAD 0
#define ST_TRAIL_LEN 1
#define ST_LEVEL 2
#define ST_PROPS 3
#define ST_LONG_USED 4
#define ST_LONG_CAP 5
#define ST_RESUME 6
#define ST_FLUSH_POS 7
#define ST_PEND_N 8
#define ST_PEND_CAP 9
#define ST_CONFLICT 10
#define ST_GROW 11
#define ST_ASSUME_LVL 12
#define ST_ACONFLICT 13
#define ST_LEARNED_N 14
#define ST_ANTS_N 15
#define ST_TOUCHED_N 16
#define ST_ZERO_N 17
#define ST_LEARNED_CAP 18
#define ST_ANTS_CAP 19
#define ST_TOUCHED_CAP 20
#define ST_ZERO_CAP 21
#define ST_ABUF 22
#define ST_ANALYZED 23
#define ST_BUDGET 24
#define ST_DECIDED 25
#define ST_MAX_LEVEL 26
#define ST_NUM_VARS 27
#define ST_PHASE 28

/* st[ST_PHASE] values: SolverConfig.phase_mode "default", "save",
   "inverted". */
#define PHASE_SAVE 1
#define PHASE_INVERTED 2

/* Raw access-profile slots (repro/sat/profile.py); the scan counters
   accumulate in locals and flush at the exit labels, so the loops pay
   one add per counted event whether or not anyone is watching (the
   wrapper hands a dummy buffer when profiling is off).  Enqueue and
   dequeue counts (slots 5/6) are derived Python-side from the ST_
   slots; heap ops (slot 9) are solver-side. */
#define PROF_BIN 0
#define PROF_TERN 1
#define PROF_LONG 2
#define PROF_OPEN 3
#define PROF_ARENA 4
#define PROF_AWORDS 7
#define PROF_ATRAIL 8

/* The decision heap (defined at the end of this source) and the two
   operations the search step and backtrack call. */
typedef struct {
    int32_t *heap;
    int32_t *pos;
    const double *score;
    const double *rank;
    int32_t size;
    int32_t nvars;
} vheap;
int32_t vheap_pop(vheap *h, const unsigned char *truth);
int32_t vheap_reinsert(vheap *h, const int32_t *lits, int32_t n);

/* A relocated block's capacity: double the old one (4 from empty), or
   what it must hold if that is more. */
static int32_t grown_cap(int32_t cap, int32_t want)
{
    int32_t nc = cap ? 2 * cap : 4;
    return nc > want ? nc : want;
}

/* Bulk install: append the watch entries of clauses `cids` (clause
   order) to the columns, k watched literals per clause read from the
   arena block: k = 2 for the binary and long tables (entry [cid,
   other]), 3 for the ternary table (entry [cid, the other two in
   clause order]).  Each literal's new entries land after its existing
   ones, in clause order: what k WatchColumns appends per clause
   produce.  Returns the pool words in use afterwards, or -(the words
   needed) when `pool` is too small, having changed nothing (Python
   reserves and calls again).

   Empty columns (used == 0, a fork's or constructor's install) get
   exactly sized blocks in literal order, in one pass over the
   literals; the pool needs k * k * ncids words.  Otherwise the cost is
   O(the batch's watched literals): `cnt` is per-literal scratch, zero
   on entry and on return, and a literal whose block cannot take its
   new entries moves to the pool tail (grown_cap), in first-touch
   order. */
int64_t fill_columns(const int32_t *adata, const int64_t *arefs,
                     const int32_t *cids, int32_t ncids, int32_t k,
                     int32_t *off, int32_t *size, int32_t *cap,
                     int32_t *data, int32_t nlits, int64_t used,
                     int64_t pool, int32_t *cnt)
{
    int32_t i, j, m, lit;
    if (used == 0) {
        int64_t pos = 0;
        if ((int64_t)k * k * ncids > pool)
            return -(int64_t)k * k * ncids;
        for (i = 0; i < ncids; i++) {
            const int32_t *c = adata + arefs[cids[i]];
            for (j = 0; j < k; j++)
                size[c[j]]++;
        }
        for (lit = 0; lit < nlits; lit++) {
            off[lit] = (int32_t)pos;
            cap[lit] = size[lit];
            pos += (int64_t)size[lit] * k;
            size[lit] = 0;
        }
        used = pos;
    } else {
        int64_t need = used;
        for (i = 0; i < ncids; i++) {
            const int32_t *c = adata + arefs[cids[i]];
            for (j = 0; j < k; j++)
                cnt[c[j]]++;
        }
        /* Price each touched literal once (its count turns negative). */
        for (i = 0; i < ncids; i++) {
            const int32_t *c = adata + arefs[cids[i]];
            for (j = 0; j < k; j++) {
                int32_t n = cnt[lit = c[j]];
                if (n > 0) {
                    int32_t want = size[lit] + n;
                    cnt[lit] = -n;
                    if (want > cap[lit])
                        need += (int64_t)grown_cap(cap[lit], want) * k;
                }
            }
        }
        if (need > pool) {
            for (i = 0; i < ncids; i++) {
                const int32_t *c = adata + arefs[cids[i]];
                for (j = 0; j < k; j++)
                    cnt[c[j]] = 0;
            }
            return -need;
        }
        for (i = 0; i < ncids; i++) {
            const int32_t *c = adata + arefs[cids[i]];
            for (j = 0; j < k; j++) {
                int32_t n = cnt[lit = c[j]];
                if (n < 0) {
                    int32_t want = size[lit] - n;
                    cnt[lit] = 0;
                    if (want > cap[lit]) {
                        int32_t nc = grown_cap(cap[lit], want);
                        if (size[lit])
                            memcpy(data + used, data + off[lit],
                                   (size_t)size[lit] * k * sizeof(int32_t));
                        off[lit] = (int32_t)used;
                        cap[lit] = nc;
                        used += (int64_t)nc * k;
                    }
                }
            }
        }
    }
    for (i = 0; i < ncids; i++) {
        int32_t cid = cids[i];
        const int32_t *c = adata + arefs[cid];
        for (j = 0; j < k; j++) {
            int32_t *e = data + off[c[j]] + size[c[j]] * k;
            *e++ = cid;
            for (m = 0; m < k; m++)
                if (m != j)
                    *e++ = c[m];
            size[c[j]]++;
        }
    }
    return used;
}

/* Append the recorded watch moves through the same doubling/relocation
   policy WatchColumns.append2 uses; resumable across NEED_GROW. */
static int flush_pending(int32_t *l_off, int32_t *l_size, int32_t *l_cap,
                         int32_t *l_data, int32_t *pend, int32_t *st)
{
    int fp = st[ST_FLUSH_POS];
    int pn = st[ST_PEND_N];
    int used = st[ST_LONG_USED];
    int pool = st[ST_LONG_CAP];
    while (fp < pn) {
        int dest = pend[3 * fp];
        int cid = pend[3 * fp + 1];
        int blk = pend[3 * fp + 2];
        int sz = l_size[dest];
        int bcap = l_cap[dest];
        int32_t *w;
        if (sz == bcap) {
            int new_cap = bcap ? 2 * bcap : 4;
            if (used + 2 * new_cap > pool) {
                st[ST_LONG_USED] = used;
                st[ST_FLUSH_POS] = fp;
                st[ST_GROW] = 2 * new_cap;
                return -2;
            }
            if (sz)
                memcpy(l_data + used, l_data + l_off[dest],
                       (size_t)sz * 2 * sizeof(int32_t));
            l_off[dest] = used;
            l_cap[dest] = new_cap;
            used += 2 * new_cap;
        }
        w = l_data + l_off[dest] + 2 * sz;
        w[0] = cid;
        w[1] = blk;
        l_size[dest] = sz + 1;
        fp++;
    }
    st[ST_LONG_USED] = used;
    st[ST_FLUSH_POS] = 0;
    st[ST_PEND_N] = 0;
    return 0;
}

/* The BCP scan (the first half of search_step). */
static int bcp_scan(unsigned char *truth,
                    int32_t *levels, int32_t *reasons, int32_t *trail,
                    int32_t *adata, int64_t *arefs,
                    const int32_t *b_off, const int32_t *b_size,
                    const int32_t *b_data,
                    const int32_t *t_off, const int32_t *t_size,
                    const int32_t *t_data,
                    int32_t *l_off, int32_t *l_size, int32_t *l_cap,
                    int32_t *l_data,
                    int32_t *pend, int32_t *st, int64_t *prof)
{
    int qhead = st[ST_QHEAD];
    int trail_len = st[ST_TRAIL_LEN];
    int level = st[ST_LEVEL];
    int props = st[ST_PROPS];
    int conflict;
    /* Access-profile scan counters.  Columns count whole at scan
       start; "opened" = blocker test failed; the NEED_PEND exit
       flushes bin/tern from the per-literal snapshots because the
       re-entry re-scans the interrupted literal (NEED_GROW exits are
       exact as-is: the interrupted literal's scan is complete). */
    int64_t p_bin = 0, p_tern = 0, p_long = 0, p_open = 0, p_arena = 0;
    int64_t p_bin_lit = 0, p_tern_lit = 0;

    if (st[ST_RESUME]) {
        int r = flush_pending(l_off, l_size, l_cap, l_data, pend, st);
        if (r)
            goto save_grow;
        st[ST_RESUME] = 0;
        if (st[ST_CONFLICT] >= 0) {
            conflict = st[ST_CONFLICT];
            st[ST_CONFLICT] = -1;
            goto save_conflict;
        }
    }

    while (qhead < trail_len) {
        int lit = trail[qhead];
        int false_lit = lit ^ 1;
        int n, i;
        p_bin_lit = p_bin;
        p_tern_lit = p_tern;

        /* Binary: static entries [cid, implied]. */
        n = b_size[false_lit];
        p_bin += n;
        if (n) {
            const int32_t *e = b_data + b_off[false_lit];
            const int32_t *eend = e + 2 * n;
            for (; e < eend; e += 2) {
                int implied = e[1];
                int v = truth[implied];
                if (v == 2) {
                    props++;
                    truth[implied] = 1;
                    truth[implied ^ 1] = 0;
                    levels[implied >> 1] = level;
                    reasons[implied >> 1] = e[0];
                    trail[trail_len++] = implied;
                } else if (v == 0) {
                    qhead++;
                    conflict = e[0];
                    goto save_conflict;
                }
            }
        }

        /* Ternary: static entries [cid, other_a, other_b]. */
        n = t_size[false_lit];
        p_tern += n;
        if (n) {
            const int32_t *e = t_data + t_off[false_lit];
            const int32_t *eend = e + 3 * n;
            for (; e < eend; e += 3) {
                int la = e[1];
                int lb = e[2];
                int va = truth[la];
                int vb = truth[lb];
                if (va && vb)
                    continue; /* neither companion false */
                if (va == 0) {
                    if (vb == 2) {
                        props++;
                        truth[lb] = 1;
                        truth[lb ^ 1] = 0;
                        levels[lb >> 1] = level;
                        reasons[lb >> 1] = e[0];
                        trail[trail_len++] = lb;
                    } else if (vb == 0) {
                        qhead++;
                        conflict = e[0];
                        goto save_conflict;
                    }
                } else if (va == 2) {
                    props++;
                    truth[la] = 1;
                    truth[la ^ 1] = 0;
                    levels[la >> 1] = level;
                    reasons[la >> 1] = e[0];
                    trail[trail_len++] = la;
                }
            }
        }

        /* Long: two-phase scan, j < 0 = read-only phase. */
        n = l_size[false_lit];
        conflict = -1;
        if (n) {
            int32_t *wl;
            int j = -1;
            if (3 * n > st[ST_PEND_CAP]) {
                /* Worst case overflows the pending buffer.  The queue
                   head is NOT advanced: after Python grows the buffer,
                   the binary/ternary re-scan is idempotent.  Flush the
                   profile counters up to the snapshots — the re-scan
                   recounts this literal's bin/tern columns. */
                st[ST_GROW] = 3 * n;
                st[ST_QHEAD] = qhead;
                st[ST_TRAIL_LEN] = trail_len;
                st[ST_PROPS] = props;
                prof[PROF_BIN] += p_bin_lit;
                prof[PROF_TERN] += p_tern_lit;
                prof[PROF_LONG] += p_long;
                prof[PROF_OPEN] += p_open;
                prof[PROF_ARENA] += p_arena;
                return -3;
            }
            p_long += n;
            wl = l_data + l_off[false_lit];
            i = 0;
            while (i < n) {
                int cid = wl[2 * i];
                int blk = wl[2 * i + 1];
                int first, ft, moved;
                int64_t cbase, cend, k;
                if (truth[blk] == 1) {
                    if (j >= 0) {
                        wl[2 * j] = cid;
                        wl[2 * j + 1] = blk;
                        j++;
                    }
                    i++;
                    continue;
                }
                p_open++;
                cbase = arefs[cid];
                first = adata[cbase];
                if (first == false_lit) {
                    first = adata[cbase + 1];
                    adata[cbase] = first;
                    adata[cbase + 1] = false_lit;
                }
                ft = truth[first];
                if (ft == 1) {
                    if (j >= 0) {
                        wl[2 * j] = cid;
                        wl[2 * j + 1] = first;
                        j++;
                    } else {
                        wl[2 * i + 1] = first;
                    }
                    i++;
                    continue;
                }
                cend = cbase + adata[cbase - 1];
                p_arena += cend - cbase - 2;
                moved = 0;
                for (k = cbase + 2; k < cend; k++) {
                    int other = adata[k];
                    if (truth[other] != 0) {
                        int pn = st[ST_PEND_N];
                        adata[k] = adata[cbase + 1];
                        adata[cbase + 1] = other;
                        pend[3 * pn] = other;
                        pend[3 * pn + 1] = cid;
                        pend[3 * pn + 2] = first;
                        st[ST_PEND_N] = pn + 1;
                        moved = 1;
                        break;
                    }
                }
                if (moved) {
                    if (j < 0)
                        j = i; /* first removal: switch to compaction */
                    i++;
                    continue;
                }
                if (ft == 2) {
                    props++;
                    truth[first] = 1;
                    truth[first ^ 1] = 0;
                    levels[first >> 1] = level;
                    reasons[first >> 1] = cid;
                    trail[trail_len++] = first;
                    if (j >= 0) {
                        wl[2 * j] = cid;
                        wl[2 * j + 1] = blk;
                        j++;
                    }
                    i++;
                    continue;
                }
                /* Conflict.  Phase 1: list untouched.  Phase 2: keep
                   the entry, then the untouched tail. */
                conflict = cid;
                if (j >= 0) {
                    wl[2 * j] = cid;
                    wl[2 * j + 1] = blk;
                    j++;
                    i++;
                    while (i < n) {
                        wl[2 * j] = wl[2 * i];
                        wl[2 * j + 1] = wl[2 * i + 1];
                        j++;
                        i++;
                    }
                }
                break;
            }
            if (j >= 0)
                l_size[false_lit] = j;
        }

        qhead++;
        if (st[ST_PEND_N]) {
            int r;
            st[ST_CONFLICT] = conflict;
            r = flush_pending(l_off, l_size, l_cap, l_data, pend, st);
            if (r) {
                st[ST_RESUME] = 1;
                goto save_grow;
            }
            st[ST_CONFLICT] = -1;
        }
        if (conflict >= 0)
            goto save_conflict;
    }

    st[ST_QHEAD] = qhead;
    st[ST_TRAIL_LEN] = trail_len;
    st[ST_PROPS] = props;
    prof[PROF_BIN] += p_bin;
    prof[PROF_TERN] += p_tern;
    prof[PROF_LONG] += p_long;
    prof[PROF_OPEN] += p_open;
    prof[PROF_ARENA] += p_arena;
    return -1;

save_conflict:
    st[ST_QHEAD] = qhead;
    st[ST_TRAIL_LEN] = trail_len;
    st[ST_PROPS] = props;
    prof[PROF_BIN] += p_bin;
    prof[PROF_TERN] += p_tern;
    prof[PROF_LONG] += p_long;
    prof[PROF_OPEN] += p_open;
    prof[PROF_ARENA] += p_arena;
    return conflict;

save_grow:
    st[ST_QHEAD] = qhead;
    st[ST_TRAIL_LEN] = trail_len;
    st[ST_PROPS] = props;
    prof[PROF_BIN] += p_bin;
    prof[PROF_TERN] += p_tern;
    prof[PROF_LONG] += p_long;
    prof[PROF_OPEN] += p_open;
    prof[PROF_ARENA] += p_arena;
    return -2;
}

/* First-UIP resolution walk — the PythonKernel.analyze loop.
   Clause literals come from the install-order mirror, which holds every
   clause (the arena blocks of long clauses are permuted by watch
   moves).  Reads st[ST_ACONFLICT] (the conflicting clause),
   st[ST_LEVEL] and st[ST_TRAIL_LEN]; fills the four scratch buffers and their ST_*_N
   counts.  Any buffer overflow unmarks every seen bit set so far and
   returns NEED_ABUF with the buffer index in ST_ABUF — nothing else
   was mutated (bumps are replayed later in Python), so the restarted
   walk is idempotent. */
static int analyze_uip(const int32_t *levels, const int32_t *reasons,
                       const int32_t *trail,
                       const int32_t *mdata, const int64_t *mrefs,
                       unsigned char *seen,
                       int32_t *learned, int32_t *ants,
                       int32_t *touched, int32_t *zero, int32_t *st,
                       int64_t *prof)
{
    int current = st[ST_LEVEL];
    int lcap = st[ST_LEARNED_CAP];
    int acap = st[ST_ANTS_CAP];
    int tcap = st[ST_TOUCHED_CAP];
    int zcap = st[ST_ZERO_CAP];
    int ln = 1, an = 1, tn = 0, zn = 0;
    int counter = 0;
    int p = -1;
    int cid = st[ST_ACONFLICT];
    int idx = st[ST_TRAIL_LEN] - 1;
    int idx0 = idx;
    int64_t a_words = 0;
    int which, k;

    ants[0] = cid;
    for (;;) {
        const int32_t *lits = mdata + mrefs[cid];
        int cn = lits[-1];
        a_words += cn;
        for (k = 0; k < cn; k++) {
            int q = lits[k];
            int var, level;
            if (q == p)
                continue;
            var = q >> 1;
            if (seen[var])
                continue;
            level = levels[var];
            if (level == 0) {
                if (tn == tcap) { which = 2; goto rollback; }
                if (zn == zcap) { which = 3; goto rollback; }
                seen[var] = 1;
                touched[tn++] = var;
                zero[zn++] = var;
                continue;
            }
            if (tn == tcap) { which = 2; goto rollback; }
            seen[var] = 1;
            touched[tn++] = var;
            if (level >= current) {
                counter++;
            } else {
                if (ln == lcap) { which = 0; goto rollback; }
                learned[ln++] = q;
            }
        }
        while (!seen[trail[idx] >> 1])
            idx--;
        p = trail[idx];
        idx--;
        counter--;
        if (counter == 0)
            break;
        cid = reasons[p >> 1];
        if (an == acap) { which = 1; goto rollback; }
        ants[an++] = cid;
    }
    learned[0] = p ^ 1;
    st[ST_LEARNED_N] = ln;
    st[ST_ANTS_N] = an;
    st[ST_TOUCHED_N] = tn;
    st[ST_ZERO_N] = zn;
    /* Flushed on success only: a NEED_ABUF restart recounts the whole
       (idempotent) walk, so discarding here keeps the totals at one
       full walk — what the Python backends count. */
    prof[PROF_AWORDS] += a_words;
    prof[PROF_ATRAIL] += idx0 - idx;
    return 0;

rollback:
    for (k = 0; k < tn; k++)
        seen[touched[k]] = 0;
    st[ST_ABUF] = which;
    return -4;
}

/* One in-kernel decision: CdclSolver._search's decision branch for a
   strategy whose decide() is a plain heap pop.  Pops the best
   unassigned variable, applies the phase policy (st[ST_PHASE]: the
   saved polarity when one exists, or the complement of the heap's
   literal), opens a level (trail_lim, ST_LEVEL, ST_MAX_LEVEL) and
   assigns the literal with no reason.  Returns 0, changing nothing
   else, when the heap holds no unassigned variable. */
static int decide(unsigned char *truth, int32_t *levels, int32_t *reasons,
                  int32_t *trail, const signed char *saved,
                  int32_t *trail_lim, vheap *h, int32_t *st)
{
    int32_t lit, var, level, tl;
    if (!h || (lit = vheap_pop(h, truth)) < 0)
        return 0;
    var = lit >> 1;
    if (st[ST_PHASE] == PHASE_SAVE) {
        if (saved[var] >= 0)
            lit = (var << 1) | (saved[var] ^ 1);
    } else if (st[ST_PHASE] == PHASE_INVERTED) {
        lit ^= 1;
    }
    tl = st[ST_TRAIL_LEN];
    level = st[ST_LEVEL];
    trail_lim[level++] = tl;
    st[ST_LEVEL] = level;
    if (level > st[ST_MAX_LEVEL])
        st[ST_MAX_LEVEL] = level;
    truth[lit] = 1;
    truth[lit ^ 1] = 0;
    levels[var] = level;
    reasons[var] = -1;
    trail[tl] = lit;
    st[ST_TRAIL_LEN] = tl + 1;
    st[ST_DECIDED]++;
    st[ST_BUDGET]--;
    return 1;
}

/* The fused step: propagate, then decide and propagate again while
   st[ST_BUDGET] allows, the trail is not full (st[ST_NUM_VARS]) and the
   heap has an unassigned variable; stop at the first conflict.  When
   the conflict lands above the assumption prefix (st[ST_LEVEL] >
   st[ST_ASSUME_LVL] — level 0 and assumption-prefix conflicts take
   terminal Python paths), run the resolution walk before returning —
   one FFI crossing per conflict.  A budget of 0 propagates once.
   Re-entry: scan-side NEED_GROW/NEED_PEND resume through bcp_scan's
   own ST_RESUME machinery (st[ST_ACONFLICT] still < 0), with the
   decisions made so far kept in the state slots; an analysis NEED_ABUF
   leaves the conflict in ST_ACONFLICT so the next call skips straight
   to the (idempotent) walk.  st[ST_ANALYZED] tells Python whether the
   returned conflict comes with analysis results. */
int search_step(unsigned char *truth,
                int32_t *levels, int32_t *reasons, int32_t *trail,
                int32_t *adata, int64_t *arefs,
                const int32_t *b_off, const int32_t *b_size,
                const int32_t *b_data,
                const int32_t *t_off, const int32_t *t_size,
                const int32_t *t_data,
                int32_t *l_off, int32_t *l_size, int32_t *l_cap,
                int32_t *l_data, int32_t *pend,
                const int32_t *mdata, const int64_t *mrefs,
                unsigned char *seen,
                int32_t *learned, int32_t *ants,
                int32_t *touched, int32_t *zero,
                const signed char *saved, int32_t *trail_lim, vheap *h,
                int32_t *st, int64_t *prof)
{
    int conflict, r;
    if (st[ST_ACONFLICT] >= 0) {
        r = analyze_uip(levels, reasons, trail,
                        mdata, mrefs, seen, learned, ants,
                        touched, zero, st, prof);
        if (r)
            return r;
        st[ST_ANALYZED] = 1;
        return st[ST_ACONFLICT];
    }
    for (;;) {
        conflict = bcp_scan(truth, levels, reasons, trail, adata, arefs,
                            b_off, b_size, b_data, t_off, t_size, t_data,
                            l_off, l_size, l_cap, l_data, pend, st, prof);
        if (conflict != -1)
            break;
        if (st[ST_BUDGET] <= 0 || st[ST_TRAIL_LEN] >= st[ST_NUM_VARS]
            || !decide(truth, levels, reasons, trail, saved, trail_lim,
                       h, st))
            return -1;
    }
    if (conflict < 0)
        return conflict;
    if (st[ST_LEVEL] > st[ST_ASSUME_LVL]) {
        st[ST_ACONFLICT] = conflict;
        r = analyze_uip(levels, reasons, trail,
                        mdata, mrefs, seen, learned, ants,
                        touched, zero, st, prof);
        if (r)
            return r;
        st[ST_ANALYZED] = 1;
    }
    return conflict;
}

/* Unassign trail[lo..hi) — CdclSolver._backtrack's loop: save each
   variable's polarity, reset both literals' truth — then, with a heap,
   re-insert the variables that are not members, in trail order (the
   strategy's on_unassigned). */
void backtrack(unsigned char *truth, signed char *saved,
               const int32_t *trail, int32_t lo, int32_t hi, vheap *h)
{
    for (int32_t i = lo; i < hi; i++) {
        int32_t lit = trail[i];
        saved[lit >> 1] = (signed char)(1 ^ (lit & 1));
        truth[lit] = 2;
        truth[lit ^ 1] = 2;
    }
    if (h)
        vheap_reinsert(h, trail + lo, hi - lo);
}

/* install_batch state slots and flags; keep in sync with native.py. */
#define IB_POS 0
#define IB_HI 1
#define IB_CID 2
#define IB_AUSED 3
#define IB_MUSED 4
#define IB_COUNT 5
#define IB_NBIN 6
#define IB_NTERN 7
#define IB_NLONG 8
#define IB_NPRUNED 9
#define IB_TRAIL 10
#define IB_ENQ 11
#define IB_LITS 12
#define IB_FLAGS 13
#define IB_HAND 14
#define IBF_OK 1
#define IBF_COUNT 2
#define IBF_PRUNE 4
/* The arena's INACTIVE flag bit (repro/sat/arena.py). */
#define ARENA_INACTIVE 4

/* Move blk[i] to the front, keeping the others in order. */
static void to_front(int32_t *blk, int32_t i)
{
    int32_t lit = blk[i];
    memmove(blk + 1, blk, (size_t)i * sizeof(int32_t));
    blk[0] = lit;
}

/* Clause install: CdclSolver._install_tuples transliterated over flat
   [n, lit_0 .. lit_{n-1}] word blocks, words[st[IB_POS]:st[IB_HI]].
   Per clause, in order: dedupe (n = 2 and 3 inline, n >= 4 through the
   per-variable `seen` scratch, bit 1 per polarity, cleared again), the
   tautology test (flagged INACTIVE, never counted or attached), the
   arena block, flags byte and ref, the install-order mirror block (the
   deduplicated literals, before any reordering), literal counts
   (IBF_COUNT), then — while the solver is not UNSAT (IBF_OK) — the
   root-fact classification of CdclSolver._classify_assigned: a
   root-satisfied clause goes to the
   pruned section under IBF_PRUNE, an effectively-unit one gets its free
   literal first and is enqueued at level 0, a long one gets two free
   literals moved to the watch positions; every clause still attached
   goes to its table's ID section of `out` (binary, ternary, long).

   Python reserves every array to the batch's undeduplicated size first
   (C cannot grow one).  Returns 0 when the batch is done; returns 1
   having handed back clause st[IB_HAND] — a unit, or a clause every
   literal of which is false at the root — which Python classifies
   before calling again to resume at the next clause (refreshing
   st[IB_TRAIL] and IBF_OK, which its handling may change). */
int install_batch(const int32_t *words,
                  int32_t *adata, int64_t *arefs, unsigned char *aflags,
                  int32_t *mdata, int64_t *mrefs, double *lit_counts,
                  unsigned char *truth, int32_t *levels, int32_t *reasons,
                  int32_t *trail, unsigned char *seen, int32_t *out,
                  int64_t *st)
{
    int64_t pos = st[IB_POS], hi = st[IB_HI], cid = st[IB_CID];
    int64_t aused = st[IB_AUSED], mused = st[IB_MUSED];
    int64_t count = st[IB_COUNT];
    int64_t nbin = st[IB_NBIN], ntern = st[IB_NTERN], nlong = st[IB_NLONG];
    int64_t npruned = st[IB_NPRUNED];
    int64_t trail_len = st[IB_TRAIL], enq = st[IB_ENQ], nlits = st[IB_LITS];
    int64_t flags = st[IB_FLAGS];
    int32_t *bin_out = out, *tern_out = out + count;
    int32_t *long_out = out + 2 * count, *pruned_out = out + 3 * count;
    int ret = 0;
    while (pos < hi) {
        int32_t n = words[pos], m = 0, j, cur = (int32_t)cid;
        const int32_t *src = words + pos + 1;
        int32_t *blk = adata + aused + 2;
        int taut = 0, attach = 1;
        pos += 1 + n;
        cid++;
        if (n == 2) {
            int32_t a = src[0], b = src[1];
            blk[m++] = a;
            if (b != a) {
                blk[m++] = b;
                taut = (a ^ 1) == b;
            }
        } else if (n == 3) {
            int32_t a = src[0], b = src[1], c = src[2];
            blk[m++] = a;
            if (b != a)
                blk[m++] = b;
            if (c != a && c != b)
                blk[m++] = c;
            if (m == 3)
                taut = (a ^ 1) == b || (a ^ 1) == c || (b ^ 1) == c;
            else if (m == 2)
                taut = (blk[0] ^ 1) == blk[1];
        } else if (n > 3) {
            for (j = 0; j < n; j++) {
                int32_t lit = src[j];
                unsigned char bit = (unsigned char)(1 << (lit & 1));
                unsigned char mark = seen[lit >> 1];
                if (mark & bit)
                    continue;
                if (mark)
                    taut = 1;
                seen[lit >> 1] = mark | bit;
                blk[m++] = lit;
            }
            for (j = 0; j < m; j++)
                seen[blk[j] >> 1] = 0;
        } else {
            for (j = 0; j < n; j++)
                blk[m++] = src[j];
        }
        adata[aused] = taut ? ARENA_INACTIVE : 0;
        adata[aused + 1] = m;
        arefs[cur] = aused + 2;
        aflags[cur] = taut ? ARENA_INACTIVE : 0;
        aused += 2 + m;
        mdata[mused] = m;
        mrefs[cur] = mused + 1;
        memcpy(mdata + mused + 1, blk, (size_t)m * sizeof(int32_t));
        mused += 1 + m;
        if (taut)
            continue;
        if (flags & IBF_COUNT) {
            for (j = 0; j < m; j++)
                lit_counts[blk[j]]++;
            nlits += m;
        }
        if (!(flags & IBF_OK))
            continue;
        if (m < 2) {
            st[IB_HAND] = cur;
            ret = 1;
            break;
        }
        for (j = 0; j < m; j++)
            if (truth[blk[j]] != 2)
                break;
        if (j < m) {
            int32_t first = -1, second = -1;
            int sat = 0;
            for (j = 0; j < m; j++) {
                unsigned char v = truth[blk[j]];
                if (v == 2) {
                    if (first < 0)
                        first = j;
                    else if (second < 0)
                        second = j;
                } else if (v == 1) {
                    sat = 1;
                    break;
                }
            }
            if (sat) {
                if (flags & IBF_PRUNE) {
                    pruned_out[npruned++] = cur;
                    attach = 0;
                }
            } else if (first < 0) {
                st[IB_HAND] = cur;
                ret = 1;
                break;
            } else if (second < 0) {
                int32_t lit = blk[first];
                to_front(blk, first);
                truth[lit] = 1;
                truth[lit ^ 1] = 0;
                levels[lit >> 1] = 0;
                reasons[lit >> 1] = cur;
                trail[trail_len++] = lit;
                enq++;
            } else if (m > 3) {
                to_front(blk, second);
                to_front(blk, first + 1);
            }
        }
        if (!attach)
            continue;
        if (m == 2)
            bin_out[nbin++] = cur;
        else if (m == 3)
            tern_out[ntern++] = cur;
        else
            long_out[nlong++] = cur;
    }
    st[IB_POS] = pos;
    st[IB_CID] = cid;
    st[IB_AUSED] = aused;
    st[IB_MUSED] = mused;
    st[IB_NBIN] = nbin;
    st[IB_NTERN] = ntern;
    st[IB_NLONG] = nlong;
    st[IB_NPRUNED] = npruned;
    st[IB_TRAIL] = trail_len;
    st[IB_ENQ] = enq;
    st[IB_LITS] = nlits;
    return ret;
}

/* The decision heap: an indexed binary max-heap over variables, in
   the style of MiniSat's order_heap.  heap[0..size) holds the member
   variables, pos[var] a member's index (-1 for the rest).  Keys are
   read in place: a variable's best literal is its odd literal only
   when that literal's score is strictly greater, and variables order
   by (rank desc, best score desc, variable asc) -- the order of
   VariableActivityHeap's (-rank, -score, lit) tuples, since a lower
   variable has the lower best literal.  rank NULL ranks every
   variable equally.  (The vheap type is declared at the top.) */
typedef struct {
    double rank;
    double score;
    int32_t var;
} vkey;

static vkey vh_key(const vheap *h, int32_t var)
{
    vkey k;
    double sa = h->score[var + var], sb = h->score[var + var + 1];
    k.rank = h->rank ? h->rank[var] : 0.0;
    k.score = sb > sa ? sb : sa;
    k.var = var;
    return k;
}

/* 1 when key a orders before key b. */
static int vh_before(vkey a, vkey b)
{
    if (a.rank != b.rank)
        return a.rank > b.rank;
    if (a.score != b.score)
        return a.score > b.score;
    return a.var < b.var;
}

static void vh_up(vheap *h, int32_t i)
{
    int32_t *heap = h->heap, *pos = h->pos;
    int32_t var = heap[i];
    vkey k = vh_key(h, var);
    while (i > 0) {
        int32_t parent = (i - 1) >> 1;
        int32_t pv = heap[parent];
        if (!vh_before(k, vh_key(h, pv)))
            break;
        heap[i] = pv;
        pos[pv] = i;
        i = parent;
    }
    heap[i] = var;
    pos[var] = i;
}

static void vh_down(vheap *h, int32_t i)
{
    int32_t *heap = h->heap, *pos = h->pos;
    int32_t size = h->size, var = heap[i];
    vkey k = vh_key(h, var);
    for (;;) {
        int32_t child = 2 * i + 1;
        if (child >= size)
            break;
        vkey ck = vh_key(h, heap[child]);
        if (child + 1 < size) {
            vkey rk = vh_key(h, heap[child + 1]);
            if (vh_before(rk, ck)) {
                child++;
                ck = rk;
            }
        }
        if (!vh_before(ck, k))
            break;
        heap[i] = ck.var;
        pos[ck.var] = i;
        i = child;
    }
    heap[i] = var;
    pos[var] = i;
}

static void vh_heapify(vheap *h)
{
    for (int32_t i = h->size / 2 - 1; i >= 0; i--)
        vh_down(h, i);
}

/* Members := the variables whose positive literal's truth is 2 (none
   when truth is NULL), heapified in O(nvars). */
void vheap_build(vheap *h, const unsigned char *truth)
{
    int32_t n = h->nvars, size = 0;
    for (int32_t var = 0; var < n; var++) {
        if (truth && truth[var + var] == 2) {
            h->heap[size] = var;
            h->pos[var] = size++;
        } else {
            h->pos[var] = -1;
        }
    }
    h->size = size;
    vh_heapify(h);
}

/* Re-heapify the members after a key swap or a uniform rescale. */
void vheap_refresh(vheap *h)
{
    vh_heapify(h);
}

/* Remove the maximum member and return its best literal; with truth,
   members whose literal is assigned are removed too and popping goes
   on until an unassigned one.  -1 when the heap runs empty. */
int32_t vheap_pop(vheap *h, const unsigned char *truth)
{
    while (h->size > 0) {
        int32_t var = h->heap[0];
        int32_t last = h->heap[--h->size];
        h->pos[var] = -1;
        if (h->size > 0) {
            h->heap[0] = last;
            vh_down(h, 0);
        }
        int32_t lit = var + var;
        if (h->score[lit + 1] > h->score[lit])
            lit++;
        if (!truth || truth[lit] == 2)
            return lit;
    }
    return -1;
}

/* Insert the variables of lits[0..n) that are not members.  Returns
   the index of the first literal outside the heap's variables (having
   inserted those before it), or -1. */
int32_t vheap_reinsert(vheap *h, const int32_t *lits, int32_t n)
{
    int32_t *heap = h->heap, *pos = h->pos;
    for (int32_t i = 0; i < n; i++) {
        int32_t var = lits[i] >> 1;
        if (lits[i] < 0 || var >= h->nvars)
            return i;
        if (pos[var] < 0) {
            heap[h->size] = var;
            vh_up(h, h->size++);
        }
    }
    return -1;
}

/* Restore the order around lit's variable after its score changed:
   up only when the score grew (increase), both ways otherwise
   (update).  A no-op for non-members; -1 for a literal outside the
   heap's variables, else 0. */
int32_t vheap_rekey(vheap *h, int32_t lit, int32_t both_ways)
{
    int32_t var = lit >> 1;
    if (lit < 0 || var >= h->nvars)
        return -1;
    int32_t i = h->pos[var];
    if (i >= 0) {
        vh_up(h, i);
        if (both_ways)
            vh_down(h, h->pos[var]);
    }
    return 0;
}
"""

#: Memoized build outcome: the loaded extension module, or the reason
#: it cannot be had.  One attempt per process.
_MODULE = None
_BUILD_ERROR: Optional[str] = None


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-bcp-kernel")


def _module_paths() -> "Tuple[str, str]":
    """The extension's module name and cached shared-object path for
    this C source revision."""
    digest = hashlib.sha1((_CDEF + _SOURCE).encode()).hexdigest()[:12]
    modname = f"_repro_bcp_{digest}"
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return modname, os.path.join(_cache_dir(), modname + suffix)


#: Compiles the extension in a child process: reads ``[cdef, module
#: name, source, build dir]`` as JSON on stdin, prints the built path.
_BUILD_SCRIPT = """
import json, sys
from cffi import FFI
cdef, modname, source, tmpdir = json.load(sys.stdin)
ffi = FFI()
ffi.cdef(cdef)
ffi.set_source(modname, source)
print(ffi.compile(tmpdir=tmpdir, verbose=False))
"""


def _build(modname: str, so_path: str) -> None:
    """Compile the extension to ``so_path``.

    The compile runs in a child process so the toolchain's imports
    (setuptools, distutils) never inflate this process's memory.  It
    builds in a per-process directory, then publishes the shared
    object atomically: concurrent builders (portfolio race workers,
    parallel pytest) never trample each other.
    """
    # Imported here: only a cache miss needs them, and every process
    # that imports the solver would otherwise pay for them.
    import json
    import subprocess

    build_dir = os.path.join(
        os.path.dirname(so_path), f"build-{os.getpid()}"
    )
    os.makedirs(build_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _BUILD_SCRIPT],
            input=json.dumps([_CDEF, modname, _SOURCE, build_dir]),
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            raise RuntimeError(lines[-1] if lines else "build failed")
        os.replace(proc.stdout.strip().splitlines()[-1], so_path)
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)


def _load_module():
    """Build (once per source revision per machine) and import the
    extension; raises on hosts without cffi or a C compiler."""
    global _MODULE, _BUILD_ERROR
    if _MODULE is not None:
        return _MODULE
    if _BUILD_ERROR is not None:
        raise RuntimeError(_BUILD_ERROR)
    try:
        import importlib.util

        if importlib.util.find_spec("cffi") is None:
            raise ImportError("No module named 'cffi'")
        modname, so_path = _module_paths()
        if not os.path.exists(so_path):
            os.makedirs(os.path.dirname(so_path), exist_ok=True)
            _build(modname, so_path)
        spec = importlib.util.spec_from_file_location(modname, so_path)
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot load {so_path}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _MODULE = module
        return module
    except Exception as exc:  # cffi missing, no compiler, bad toolchain
        _BUILD_ERROR = (
            f"native kernel unavailable ({type(exc).__name__}: {exc}); "
            f"use kernel='python' (kernel=None falls back to it "
            f"automatically) or install cffi + a C compiler"
        )
        raise RuntimeError(_BUILD_ERROR) from exc


def native_available() -> bool:
    """True when the compiled kernel can be built/loaded on this host.

    The first call may compile; the outcome (either way) is memoized
    for the process, so probing is cheap afterwards.
    """
    try:
        _load_module()
        return True
    except RuntimeError:
        return False


def native_unavailable_reason() -> Optional[str]:
    """Why :func:`native_available` is False (None when available)."""
    return None if native_available() else _BUILD_ERROR


class NativeActivityHeap:
    """The decision heap of :mod:`repro.sat.activity_heap`, in C.

    The same protocol and pop order as
    :class:`~repro.sat.activity_heap.VariableActivityHeap`, over the C
    ``vheap``: an indexed binary max-heap whose ``heap``/``pos`` arrays
    it owns (allocated once, at the variable count of the first
    ``score_by_lit``), with keys read in place from ``score_by_lit``
    and ``rank_by_var`` — ``array('d')`` buffers it views until
    :meth:`set_keys` replaces them, so their owners must not resize
    them meanwhile.  :meth:`rebuild` also views ``lit_truth`` for
    :meth:`pop_unassigned` until :meth:`release`, which the strategies
    call at ``detach`` so that ``ensure_num_vars`` between solves
    never meets a pinned buffer.  Trail slices are viewed per call.
    No Python object is made per variable.
    """

    __slots__ = (
        "_ffi", "_lib", "_h", "_heap", "_pos", "_score", "_rank", "_truth",
        "_pop", "_reinsert", "_rekey", "__weakref__",
    )

    def __init__(
        self,
        score_by_lit: "array[float]",
        rank_by_var: "Optional[array[float]]" = None,
    ) -> None:
        module = _load_module()
        ffi = self._ffi = module.ffi
        lib = self._lib = module.lib
        self._pop = lib.vheap_pop
        self._reinsert = lib.vheap_reinsert
        self._rekey = lib.vheap_rekey
        num_vars = len(score_by_lit) // 2
        h = self._h = ffi.new("vheap *")
        self._heap = ffi.new("int32_t[]", num_vars)
        self._pos = ffi.new("int32_t[]", num_vars)
        h.heap = self._heap
        h.pos = self._pos
        h.nvars = num_vars
        self._truth = None
        self.set_keys(score_by_lit, rank_by_var)
        lib.vheap_build(h, ffi.NULL)

    def set_keys(
        self,
        score_by_lit: "array[float]",
        rank_by_var: "Optional[array[float]]" = None,
    ) -> None:
        """View new key arrays; call :meth:`refresh` or :meth:`rebuild`
        afterwards to re-key the members."""
        num_vars = self._h.nvars
        if len(score_by_lit) != 2 * num_vars:
            raise ValueError("score_by_lit must keep one entry per literal")
        if rank_by_var is not None and len(rank_by_var) != num_vars:
            raise ValueError("rank_by_var must have one entry per variable")
        for keys in (score_by_lit, rank_by_var):
            if keys is not None and memoryview(keys).format != "d":
                raise TypeError("heap keys must be array('d') buffers")
        from_buffer = self._ffi.from_buffer
        h = self._h
        self._score = from_buffer("double[]", score_by_lit)
        h.score = self._score
        if rank_by_var is None:
            self._rank = None
            h.rank = self._ffi.NULL
        else:
            self._rank = from_buffer("double[]", rank_by_var)
            h.rank = self._rank

    def rebuild(self, lit_truth: bytearray) -> None:
        """Reset membership to the unassigned variables (those whose
        positive literal's truth is 2), and view ``lit_truth`` for
        :meth:`pop_unassigned` until :meth:`release`."""
        if len(lit_truth) < 2 * self._h.nvars:
            raise ValueError("lit_truth must cover every heap variable")
        self.release()
        self._truth = self._ffi.from_buffer("unsigned char[]", lit_truth)
        self._lib.vheap_build(self._h, self._truth)

    def refresh(self) -> None:
        """Re-key every member after :meth:`set_keys` or an
        order-preserving rescaling of the score array."""
        self._lib.vheap_refresh(self._h)

    def release(self) -> None:
        """Drop the ``lit_truth`` view :meth:`rebuild` took."""
        truth = self._truth
        if truth is not None:
            self._truth = None
            self._ffi.release(truth)

    # -- core operations ----------------------------------------------------

    def __len__(self) -> int:
        return self._h.size

    def __contains__(self, var: int) -> bool:
        return self._pos[var] >= 0

    def push(self, var: int) -> None:
        """Insert a variable; no-op if it is already present."""
        self.reinsert(array("i", [var + var]))

    def reinsert(self, trail_literals: "array[int]") -> None:  # solcheck: hot
        """Insert the variables of an ``array('i')`` of trail literals
        that are not members: one C call."""
        bad = self._reinsert(
            self._h, self._ffi.from_buffer("int32_t[]", trail_literals),
            len(trail_literals),
        )
        if bad >= 0:
            raise IndexError(f"literal {trail_literals[bad]} out of range")

    def pop(self) -> int:
        """Remove the maximum variable; returns its best *literal*, or -1
        if the heap is empty."""
        return self._pop(self._h, self._ffi.NULL)

    def pop_unassigned(self) -> int:  # solcheck: hot
        """Pop until a member whose literal is unassigned in the
        ``lit_truth`` of the last :meth:`rebuild` (assigned ones leave
        the heap on the way); -1 if none is left.  One C call."""
        truth = self._truth
        if truth is None:
            raise RuntimeError("pop_unassigned needs rebuild(lit_truth) first")
        return self._pop(self._h, truth)

    def increase(self, lit: int) -> None:  # solcheck: hot
        """Restore the order after the literal's score grew."""
        if self._rekey(self._h, lit, 0):
            raise IndexError(f"literal {lit} out of range")

    def update(self, lit: int) -> None:
        """Restore the order after the literal's score moved either way."""
        if self._rekey(self._h, lit, 1):
            raise IndexError(f"literal {lit} out of range")

    # -- introspection (tests) ----------------------------------------------

    def check_invariant(self) -> bool:
        """True iff the member array is heap-ordered under the current
        keys and ``pos`` indexes exactly the members; used by the
        property tests."""
        h = self._h
        size = h.size
        heap = self._heap
        pos = self._pos
        score = self._score
        rank = self._rank

        def key(var: int) -> "Tuple[float, float, int]":
            sa = score[2 * var]
            sb = score[2 * var + 1]
            return (
                0.0 if rank is None else rank[var], max(sa, sb), -var,
            )

        for i in range(1, size):
            if key(heap[i]) > key(heap[(i - 1) >> 1]):
                return False
        members = 0
        for var in range(h.nvars):
            i = pos[var]
            if i < 0:
                continue
            members += 1
            if i >= size or heap[i] != var:
                return False
        return members == size


class NativeKernel(KernelBase):
    """BCP, heap decisions and first-UIP analysis as one compiled
    ``search_step``, and backtracking as one compiled ``backtrack``;
    construction fails cleanly (``RuntimeError``) when the extension
    cannot be built, and callers fall back or skip.

    Owns a 29-slot state array shared with C, the pending watch-move
    buffer and four analysis scratch buffers.  Scratch buffers grow by
    doubling on ``RET_NEED_ABUF`` (``ST_ABUF`` names the one that
    overflowed); the C side unmarks ``seen`` before asking, so the
    restarted walk is idempotent.
    """

    name = "native"
    heap_class = NativeActivityHeap
    decides = True

    def __init__(self, solver: "CdclSolver") -> None:
        module = _load_module()  # raises RuntimeError when unavailable
        super().__init__(solver)
        self._ffi = module.ffi
        self._lib = module.lib
        self._state = array("i", bytes(4 * _STATE_SLOTS))
        self._state[ST_CONFLICT] = -1
        self._state[ST_ACONFLICT] = -1
        # Pending watch moves: [dest, cid, blocker] triples.
        self._pend = array("i", bytes(4 * 3 * 64))
        # Analysis scratch: learned literals, antecedent clause IDs,
        # seen-marked variables, level-0 subset.
        self._learned_buf = array("i", bytes(4 * 256))
        self._ants_buf = array("i", bytes(4 * 256))
        self._touched_buf = array("i", bytes(4 * 1024))
        self._zero_buf = array("i", bytes(4 * 256))
        # install_batch's state slots (IB_*).
        self._install_state = array("q", bytes(8 * _IB_SLOTS))
        # attach_all's per-literal entry counts (zero between calls),
        # sized to the literal space on use.
        self._counts = array("i")
        # The C loops accumulate their access-profile counters
        # unconditionally; when profiling is off they write into this
        # private dummy buffer instead of the solver's.  Never resizes,
        # so its cached view needs no invalidation.
        self._prof_buf = (
            solver._profile
            if solver._profile is not None
            else new_profile_buffer()
        )
        # search_step's from_buffer views, cached across calls (see
        # the module docstring).  The list holds None in soft-released
        # slots until _refresh_views re-exports them.
        self._views: Optional[List[object]] = None
        # The resize paths inside the watch columns (relocation /
        # attach growth) release the cache themselves, which is what
        # lets _add_learned get away with the soft invalidation.  The
        # hook reaches this kernel through a weak reference: a bound
        # method would close a kernel -> columns -> kernel cycle and
        # leave the kernel to the cyclic garbage collector.
        kernel_ref = weakref.ref(self)

        def on_resize() -> None:
            kernel = kernel_ref()
            if kernel is not None:
                kernel.invalidate_views()

        for cols in (self.bin, self.tern, self.long):
            cols.on_resize = on_resize
        # The decision heap bound for one search (bind_decisions), and
        # its C handle: NULL when unbound.
        self._heap: Optional[NativeActivityHeap] = None
        self._heap_ptr = self._ffi.NULL

    def attach_all(
        self, bin_ids: "array[int]", tern_ids: "array[int]",
        long_ids: "array[int]",
    ) -> None:
        arena = self.solver._arena
        ffi = self._ffi
        from_buffer = ffi.from_buffer
        release = ffi.release
        fill = self._lib.fill_columns
        num_lits = len(self.long.offs)
        counts = self._counts
        adata = from_buffer("int32_t[]", arena.data)
        arefs = from_buffer("int64_t[]", arena.refs)
        for cols, ids, k in (
            (self.bin, bin_ids, 2),
            (self.tern, tern_ids, 3),
            (self.long, long_ids, 2),
        ):
            if not ids:
                continue
            if cols.used:
                if len(counts) < num_lits:
                    counts.frombytes(bytes(4 * (num_lits - len(counts))))
                scratch = from_buffer("int32_t[]", counts)
            else:
                cols.reserve(k * k * len(ids))  # one pass: exactly sized
                scratch = ffi.NULL
            # Always an array on this kernel (the C install's output or
            # a template's watch IDs), aliased in place.
            cids = from_buffer("int32_t[]", ids)
            while True:
                columns = [
                    from_buffer("int32_t[]", cols.offs),
                    from_buffer("int32_t[]", cols.size),
                    from_buffer("int32_t[]", cols.caps),
                    from_buffer("int32_t[]", cols.data),
                ]
                used = fill(
                    adata, arefs, cids, len(ids), k, *columns,
                    num_lits, cols.used, len(cols.data), scratch,
                )
                for view in columns:
                    release(view)
                if used >= 0:
                    break
                cols.reserve(-used)  # pool short: nothing changed
            if scratch is not ffi.NULL:
                release(scratch)
            release(cids)
            cols.used = used
        release(adata)
        release(arefs)

    def install_batch(self, run: "ClauseRun", count_literals: bool):
        """Install ``run`` through the C ``install_batch``: a generator
        that yields each clause ID the C loop hands back (a unit, or a
        clause falsified at the root) for the solver to classify — the
        next ``next()`` resumes at the following clause — and returns
        the new watch IDs per table and the literals counted.

        Every array the loop writes is reserved first to the batch's
        undeduplicated size and cut back to what C used afterwards."""
        solver = self.solver
        arena = solver._arena
        mirror = self.mirror
        first = len(arena.refs)
        count = run.count
        if not count:
            return ((), (), ()), 0
        span = run.hi - run.lo
        adata = arena.data
        mdata = mirror.data
        state = self._install_state
        state[IB_POS] = run.lo
        state[IB_HI] = run.hi
        state[IB_CID] = first
        state[IB_AUSED] = len(adata)
        state[IB_MUSED] = len(mdata)
        state[IB_COUNT] = count
        for slot in (IB_NBIN, IB_NTERN, IB_NLONG, IB_NPRUNED, IB_ENQ,
                     IB_LITS):
            state[slot] = 0
        state[IB_TRAIL] = solver._trail_len
        state[IB_FLAGS] = (
            (IBF_OK if solver._ok else 0)
            | (IBF_COUNT if count_literals else 0)
            | (IBF_PRUNE if solver.config.prune_root_satisfied else 0)
        )
        adata.frombytes(bytes(4 * (span + (HEADER_WORDS - 1) * count)))
        arena.refs.frombytes(bytes(8 * count))
        arena.flags.extend(bytes(count))
        mdata.frombytes(bytes(4 * span))
        mirror.refs.frombytes(bytes(8 * count))
        # Four sections of `count` IDs: binary, ternary and long
        # watches, root-pruned.
        out = array("i", bytes(16 * count))
        ffi = self._ffi
        from_buffer = ffi.from_buffer
        views = [
            from_buffer("int32_t[]", run.words),
            from_buffer("int32_t[]", adata),
            from_buffer("int64_t[]", arena.refs),
            from_buffer("unsigned char[]", arena.flags),
            from_buffer("int32_t[]", mdata),
            from_buffer("int64_t[]", mirror.refs),
            from_buffer("double[]", solver._lit_counts),
            from_buffer("unsigned char[]", solver.lit_truth),
            from_buffer("int32_t[]", solver._levels),
            from_buffer("int32_t[]", solver._reasons),
            from_buffer("int32_t[]", solver._trail),
            from_buffer("unsigned char[]", solver._seen),
            from_buffer("int32_t[]", out),
            from_buffer("int64_t[]", state),
        ]
        install = self._lib.install_batch
        try:
            while install(*views):
                solver._trail_len = state[IB_TRAIL]
                # The hand-back may read the mirror blocks C wrote so
                # far (reason closure).
                yield state[IB_HAND]
                state[IB_TRAIL] = solver._trail_len
                if not solver._ok:
                    state[IB_FLAGS] &= ~IBF_OK
        finally:
            for buffer_view in views:
                ffi.release(buffer_view)
        del adata[state[IB_AUSED]:]
        del mdata[state[IB_MUSED]:]
        solver._trail_len = state[IB_TRAIL]
        solver._pending_load_propagations += state[IB_ENQ]
        pruned = state[IB_NPRUNED]
        if pruned:
            solver._root_pruned.update(out[3 * count:3 * count + pruned])
            solver._pending_root_pruned += pruned
        return (
            out[:state[IB_NBIN]],
            out[count:count + state[IB_NTERN]],
            out[2 * count:2 * count + state[IB_NLONG]],
        ), state[IB_LITS]

    #: Call-list slots re-exported per conflict (the only arrays that
    #: resize on every learned clause): arena.data, arena.refs,
    #: mirror.data, mirror.refs.
    _VOLATILE = (4, 5, 17, 18)

    #: Call-list slots ``backtrack`` reuses (truth, trail, saved
    #: phases), and the slot of the bound heap's handle (not a view).
    _TRUTH_SLOT = 0
    _TRAIL_SLOT = 3
    _SAVED_SLOT = 24
    _HEAP_SLOT = 26

    def invalidate_views(self) -> None:
        views = self._views
        if views is not None:
            self._views = None
            release = self._ffi.release
            for i, view in enumerate(views):
                if view is not None and i != self._HEAP_SLOT:
                    release(view)

    def invalidate_arena_views(self) -> None:
        views = self._views
        if views is not None:
            release = self._ffi.release
            for i in self._VOLATILE:
                view = views[i]
                if view is not None:
                    views[i] = None
                    release(view)

    def _refresh_views(self, views: List[object]) -> None:
        """Re-export the soft-released slots (see invalidate_arena_views)."""
        solver = self.solver
        arena = solver._arena
        mirror = self.mirror
        from_buffer = self._ffi.from_buffer
        if views[4] is None:
            views[4] = from_buffer("int32_t[]", arena.data)
            views[5] = from_buffer("int64_t[]", arena.refs)
        if views[17] is None:
            views[17] = from_buffer("int32_t[]", mirror.data)
            views[18] = from_buffer("int64_t[]", mirror.refs)

    def _build_views(self) -> List[object]:
        """(Re)export the 28 buffer views of ``search_step`` and cache
        them, with the bound heap's handle in slot ``_HEAP_SLOT``.
        Order matches the C signature exactly.  The capacity
        state slots are set here, not per call: a viewed array cannot
        resize while its export is live, so the capacities are
        constant for the lifetime of the cache."""
        solver = self.solver
        arena = solver._arena
        mirror = self.mirror
        from_buffer = self._ffi.from_buffer
        views = [
            from_buffer("unsigned char[]", solver.lit_truth),
            from_buffer("int32_t[]", solver._levels),
            from_buffer("int32_t[]", solver._reasons),
            from_buffer("int32_t[]", solver._trail),
            from_buffer("int32_t[]", arena.data),
            from_buffer("int64_t[]", arena.refs),
            from_buffer("int32_t[]", self.bin.offs),
            from_buffer("int32_t[]", self.bin.size),
            from_buffer("int32_t[]", self.bin.data),
            from_buffer("int32_t[]", self.tern.offs),
            from_buffer("int32_t[]", self.tern.size),
            from_buffer("int32_t[]", self.tern.data),
            from_buffer("int32_t[]", self.long.offs),
            from_buffer("int32_t[]", self.long.size),
            from_buffer("int32_t[]", self.long.caps),
            from_buffer("int32_t[]", self.long.data),
            from_buffer("int32_t[]", self._pend),
            from_buffer("int32_t[]", mirror.data),
            from_buffer("int64_t[]", mirror.refs),
            from_buffer("unsigned char[]", solver._seen),
            from_buffer("int32_t[]", self._learned_buf),
            from_buffer("int32_t[]", self._ants_buf),
            from_buffer("int32_t[]", self._touched_buf),
            from_buffer("int32_t[]", self._zero_buf),
            from_buffer("signed char[]", solver._saved_phase),
            from_buffer("int32_t[]", solver._trail_lim),
            self._heap_ptr,
            from_buffer("int32_t[]", self._state),
            from_buffer("int64_t[]", self._prof_buf),
        ]
        state = self._state
        state[ST_LONG_CAP] = len(self.long.data)
        state[ST_PEND_CAP] = len(self._pend) // 3
        state[ST_LEARNED_CAP] = len(self._learned_buf)
        state[ST_ANTS_CAP] = len(self._ants_buf)
        state[ST_TOUCHED_CAP] = len(self._touched_buf)
        state[ST_ZERO_CAP] = len(self._zero_buf)
        self._views = views
        return views

    def _grow_abuf(self) -> None:
        buf = (
            self._learned_buf,
            self._ants_buf,
            self._touched_buf,
            self._zero_buf,
        )[self._state[ST_ABUF]]
        buf.frombytes(bytes(4 * len(buf)))

    def _extract(self) -> "Tuple[List[int], List[int]]":
        """Materialize the seam's return pair and scratch-list side
        effects from the C buffers (see :mod:`repro.sat.kernel.base`)."""
        state = self._state
        solver = self.solver
        learned = list(self._learned_buf[: state[ST_LEARNED_N]])
        antecedents = list(self._ants_buf[: state[ST_ANTS_N]])
        tn = state[ST_TOUCHED_N]
        if tn:
            solver._touched_scratch.extend(self._touched_buf[:tn])
        zn = state[ST_ZERO_N]
        if zn:
            solver._zero_scratch.extend(self._zero_buf[:zn])
        return learned, antecedents

    def bind_decisions(self, heap: "Optional[object]") -> None:
        """Bind the decision heap :meth:`search_step` pops and
        :meth:`backtrack` refills, with the per-search constants the
        in-kernel decisions read (variable count, phase policy); None
        unbinds.  A heap that is not a :class:`NativeActivityHeap`
        binds as None."""
        if not isinstance(heap, NativeActivityHeap):
            heap = None
        self._heap = heap
        self._heap_ptr = self._ffi.NULL if heap is None else heap._h
        if self._views is not None:
            self._views[self._HEAP_SLOT] = self._heap_ptr
        if heap is not None:
            solver = self.solver
            state = self._state
            state[ST_NUM_VARS] = solver.num_vars
            state[ST_PHASE] = _PHASES[solver.config.phase_mode]

    def _current_views(self) -> List[object]:
        """The cached call list, exported or refreshed as needed."""
        views = self._views
        if views is None:
            return self._build_views()
        if views[4] is None or views[17] is None:
            self._refresh_views(views)
        return views

    def _regrow(self, result: int) -> None:
        """Serve a cooperative return code: un-export, then grow the
        long watch pool, the pending buffer or an analysis buffer."""
        self.invalidate_views()
        state = self._state
        if result == RET_NEED_GROW:
            long_cols = self.long
            long_cols.used = state[ST_LONG_USED]
            long_cols.reserve(state[ST_LONG_USED] + state[ST_GROW])
        elif result == RET_NEED_PEND:
            pend = self._pend
            need = 3 * state[ST_GROW]
            have = len(pend)
            pend.frombytes(bytes(4 * (max(need, 2 * have) - have)))
        else:
            self._grow_abuf()

    def search_step(  # solcheck: hot
        self, num_assumptions: int, budget: int = 0
    ) -> "Tuple[int, Optional[Tuple[List[int], List[int]]]]":
        """The seam's step (see :mod:`repro.sat.kernel.base`), with up
        to ``budget`` decisions popped from the bound heap in C."""
        solver = self.solver
        state = self._state
        trail_len = solver._trail_len
        if solver._qhead >= trail_len and (
            not budget or trail_len >= solver.num_vars
        ):
            # Nothing queued and nothing to decide (keeps empty buffers
            # off FFI).
            return -1, None
        stats = solver.stats
        long_cols = self.long
        qhead0 = solver._qhead
        state[ST_QHEAD] = qhead0
        state[ST_TRAIL_LEN] = trail_len
        state[ST_LEVEL] = solver._decision_level
        state[ST_ASSUME_LVL] = num_assumptions
        state[ST_PROPS] = 0
        state[ST_ANALYZED] = 0
        state[ST_LONG_USED] = long_cols.used
        state[ST_BUDGET] = budget
        state[ST_DECIDED] = 0
        state[ST_MAX_LEVEL] = stats.max_decision_level
        step = self._lib.search_step
        current_views = self._current_views
        regrow = self._regrow
        while True:
            result = step(*current_views())
            if result >= -1:  # a conflict, or RET_NO_CONFLICT
                break
            regrow(result)
        long_cols.used = state[ST_LONG_USED]
        solver._qhead = state[ST_QHEAD]
        solver._trail_len = state[ST_TRAIL_LEN]
        stats.propagations += state[ST_PROPS]
        decided = state[ST_DECIDED]
        if decided:
            solver._decision_level = state[ST_LEVEL]
            stats.decisions += decided
            stats.max_decision_level = state[ST_MAX_LEVEL]
            solver.strategy.on_popped(decided)
        profile = solver._profile
        if profile is not None:
            # Enqueue/dequeue counts derive from the state slots (the C
            # side only tracks the scan counters); ST_PROPS accumulates
            # across growth re-entries within this call, matching the
            # stats credit above.
            profile[PROF_PROPS] += state[ST_PROPS]
            profile[PROF_DEQ] += state[ST_QHEAD] - qhead0
        if result >= 0 and state[ST_ANALYZED]:
            state[ST_ACONFLICT] = -1
            state[ST_ANALYZED] = 0
            return result, self._extract()
        return result, None

    def backtrack(self, limit: int) -> None:  # solcheck: hot
        """Unassign ``trail[limit:_trail_len]`` in one C call over the
        cached views: saved phases, truth, and the bound heap's
        re-insert.  With no heap bound the strategy's ``on_unassigned``
        gets the undone literals.  Outside a search the only callers
        are ``solve()``, whose teardown releases the views, and clause
        install, which releases them before it resizes anything."""
        solver = self.solver
        hi = solver._trail_len
        views = self._current_views()
        self._lib.backtrack(
            views[self._TRUTH_SLOT], views[self._SAVED_SLOT],
            views[self._TRAIL_SLOT], limit, hi, self._heap_ptr,
        )
        if self._heap is None:
            solver.strategy.on_unassigned(solver._trail[limit:hi])
