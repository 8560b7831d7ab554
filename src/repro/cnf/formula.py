"""Immutable clause values and a growable CNF formula container.

``CnfFormula`` is the hand-off format between the encoder (``repro.encode``)
and the SAT solver (``repro.sat``).  It deliberately stores clauses as plain
tuples of packed literals: the solver copies them into its own mutable
arena, so the formula object stays a faithful, reusable description of the
problem (the "original clauses" of the paper, whose indices double as
unsat-core clause IDs).

Those tuples are the *only* stored form.  Exact tuples of ints are the
one container CPython's cyclic garbage collector untracks, so a formula
of any size costs a full collection nothing; :class:`Clause` values are
built on demand by the public accessors.  A formula may also be a
read-only prefix of an append-only clause log it shares with the
encoder that wrote it (:meth:`CnfFormula.over_log`) — the BMC unroller
hands out every depth-k instance that way, in O(1) instead of copying
the prefix the instances share.

The solver installs clauses from a second, flat layout: one
``array('i')`` of ``[n, lit_0 … lit_{n-1}]`` blocks, the form a C loop
can walk (MiniSat's flat clause store, Eén and Sörensson, SAT 2003).  A
:class:`ClauseLog` keeps both layouts side by side, so a formula over it
hands the solver a word range without flattening anything
(:meth:`CnfFormula.clause_run`); a formula built clause by clause is
flattened once per install instead (:func:`flatten_clauses`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cnf.literals import lit_str, lit_var


@dataclass(frozen=True)
class Clause:
    """An immutable disjunction of packed literals."""

    literals: Tuple[int, ...]

    def __post_init__(self) -> None:
        for lit in self.literals:
            if lit < 0:
                raise ValueError(f"bad packed literal {lit}")

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[int]:
        return iter(self.literals)

    def __contains__(self, lit: int) -> bool:
        return lit in self.literals

    def variables(self) -> Tuple[int, ...]:
        """Variables mentioned by the clause, in literal order."""
        return tuple(lit >> 1 for lit in self.literals)

    def is_tautology(self) -> bool:
        """True if the clause contains a literal and its complement."""
        lits = set(self.literals)
        return any(lit ^ 1 in lits for lit in lits)

    def __str__(self) -> str:
        return "(" + " | ".join(lit_str(lit) for lit in self.literals) + ")"


def flatten_clauses(clauses: Iterable[Sequence[int]]) -> "array[int]":
    """The ``[n, lit_0 … lit_{n-1}]`` word blocks of ``clauses``, in
    order.  Raises ``OverflowError`` for a literal outside the signed
    32-bit range."""
    buffer: List[int] = []
    append = buffer.append
    extend = buffer.extend
    for lits in clauses:
        append(len(lits))
        extend(lits)
    words = array("i")
    words.fromlist(buffer)
    return words


class ClauseLog:
    """An append-only clause log kept in two layouts.

    ``tuples`` holds one exact tuple per clause (the formula API's stored
    form); :attr:`words` holds the same clauses as flat ``[n, lit_0 …
    lit_{n-1}]`` blocks (the solver's install input).  Neither is ever
    rewritten, so views over a prefix stay valid as the log grows.
    Writers append to ``tuples`` only; the words of new clauses are
    flattened in bulk on the next read of :attr:`words` (one pass per
    encoded frame costs less than two array appends per clause).
    :meth:`mark` records the word offset at the current clause count;
    :meth:`word_offset` answers from those marks in O(1) and walks the
    tuples only for an unmarked index.
    """

    __slots__ = ("tuples", "_words", "_flat", "_marks")

    def __init__(self) -> None:
        self.tuples: List[Tuple[int, ...]] = []
        self._words = array("i")
        #: Clauses already flattened into ``_words``.
        self._flat = 0
        self._marks: Dict[int, int] = {0: 0}

    def __len__(self) -> int:
        return len(self.tuples)

    @property
    def words(self) -> "array[int]":
        """The word blocks of every clause in the log."""
        tuples = self.tuples
        if self._flat < len(tuples):
            self._words.extend(flatten_clauses(tuples[self._flat:]))
            self._flat = len(tuples)
        return self._words

    def mark(self) -> None:
        """Remember the word offset of the current end of the log."""
        self._marks[len(self.tuples)] = len(self.words)

    def word_offset(self, index: int) -> int:
        """Offset in :attr:`words` of clause ``index``'s block (the log's
        word length when ``index`` is its clause count)."""
        offset = self._marks.get(index)
        if offset is not None:
            return offset
        if not 0 <= index <= len(self.tuples):
            raise IndexError(f"clause index {index} outside 0..{len(self.tuples)}")
        base = max(mark for mark in self._marks if mark <= index)
        return (
            self._marks[base] + index - base
            + sum(map(len, self.tuples[base:index]))
        )


class ClauseRun:
    """Consecutive clauses handed to the solver in both layouts.

    ``tuples`` is a sequence of ``count`` exact literal tuples and
    ``words[lo:hi]`` holds the same clauses as ``[n, lit …]`` blocks.
    Iterating a run yields the tuples, so it can stand wherever an
    iterable of clauses is expected.
    """

    __slots__ = ("tuples", "count", "words", "lo", "hi")

    def __init__(
        self, tuples: Sequence[Tuple[int, ...]], words: "array[int]",
        lo: int = 0, hi: Optional[int] = None,
    ) -> None:
        self.tuples = tuples
        self.count = len(tuples)
        self.words = words
        self.lo = lo
        self.hi = len(words) if hi is None else hi

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self.tuples)


class CnfFormula:
    """A CNF formula: a clause list plus a variable-count watermark.

    Clause indices are stable: the ``i``-th added clause keeps index ``i``
    forever.  The unsat-core machinery reports cores as sets of these
    indices.

    Storage: clauses ``0 .. log_len - 1`` are the first entries of a
    clause log (empty for a formula built clause by clause; shared with
    the encoder for one made by :meth:`over_log`), later clauses live in
    a private tail.  The formula only ever appends to its tail, so a
    shared log is never written through it.  When the log is a
    :class:`ClauseLog`, its flat words serve :meth:`clause_run` without
    a copy.
    """

    def __init__(self, num_vars: int = 0) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self._num_vars = num_vars
        self._log: Sequence[Tuple[int, ...]] = ()
        self._log_len = 0
        self._tail: List[Tuple[int, ...]] = []
        #: The two-layout log ``_log`` is the tuple side of, if any.
        self._words: Optional[ClauseLog] = None

    @classmethod
    def over_log(
        cls,
        log: Union[ClauseLog, Sequence[Tuple[int, ...]]],
        length: int,
        num_vars: int,
    ) -> "CnfFormula":
        """A formula whose clauses are ``log[:length]``, without copying.

        ``log`` must be append-only — entries below ``length`` never
        change — and hold exact tuples of valid packed literals over
        variables below ``num_vars`` (they are not re-validated).  The
        view stays fixed when the log grows past ``length``; clauses
        added to it go to its own tail.  Over a :class:`ClauseLog`,
        :meth:`clause_run` addresses the prefix by word range.
        """
        if not 0 <= length <= len(log):
            raise ValueError(f"length {length} outside 0..{len(log)}")
        formula = cls(num_vars)
        if isinstance(log, ClauseLog):
            formula._words = log
            log = log.tuples
        formula._log = log
        formula._log_len = length
        return formula

    def clause_run(self, start: int = 0) -> ClauseRun:
        """Clauses ``start ..`` as a :class:`ClauseRun` — the solver's
        install input.  The log part is a word range of the shared log
        (no copy) when nothing follows it; otherwise the clauses are
        flattened once."""
        log = self._log
        log_len = self._log_len
        words_log = self._words
        tail = self._tail
        if words_log is None or start > log_len:
            tuples = list(islice(self.iter_literals(), start, None))
            return ClauseRun(tuples, flatten_clauses(tuples))
        tuples = log[start:log_len]
        lo = words_log.word_offset(start)
        hi = words_log.word_offset(log_len)
        if not tail:
            return ClauseRun(tuples, words_log.words, lo, hi)
        words = words_log.words[lo:hi]
        words.extend(flatten_clauses(tail))
        return ClauseRun(tuples + tail, words)

    @property
    def num_vars(self) -> int:
        """Number of variables (variables are ``0 .. num_vars - 1``)."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return self._log_len + len(self._tail)

    @property
    def clauses(self) -> Sequence[Clause]:
        return tuple(Clause(lits) for lits in self.iter_literals())

    def iter_literals(self) -> Iterator[Tuple[int, ...]]:
        """Every clause's literal tuple, in index order — the stored
        form, without building :class:`Clause` values (the solver's
        install and model check read this)."""
        log = self._log
        if self._log_len == len(log):
            return chain(log, self._tail)
        return chain(islice(log, self._log_len), self._tail)

    def literals(self, index: int) -> Tuple[int, ...]:
        """The literal tuple of the clause at a stable index."""
        if index < 0:
            index += self.num_clauses
        if 0 <= index < self._log_len:
            return self._log[index]
        if index < 0:
            raise IndexError("clause index out of range")
        return self._tail[index - self._log_len]

    def starts_with(self, prefix: "CnfFormula") -> bool:
        """True if ``prefix``'s clauses are this formula's first ones.

        O(1) when both are views over one clause log (the unroller's
        instances and frame prefixes); otherwise the literals are
        compared."""
        count = prefix.num_clauses
        if count > self.num_clauses:
            return False
        if prefix is self or (
            prefix._log is self._log and count == prefix._log_len <= self._log_len
        ):
            return True
        return list(islice(self.iter_literals(), count)) == list(
            prefix.iter_literals()
        )

    def new_var(self) -> int:
        """Allocate and return a fresh variable index."""
        var = self._num_vars
        self._num_vars += 1
        return var

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh consecutive variables."""
        if count < 0:
            raise ValueError("count must be non-negative")
        first = self._num_vars
        self._num_vars += count
        return list(range(first, first + count))

    def add_clause(self, literals: Iterable[int]) -> int:
        """Append a clause; returns its stable index.

        Raises ``ValueError`` for a negative literal, or if a literal
        references a variable beyond the current watermark — grow the
        formula with ``new_var`` first.
        """
        lits = literals.literals if isinstance(literals, Clause) else tuple(literals)
        num_vars = self._num_vars
        for lit in lits:
            if lit < 0:
                raise ValueError(f"bad packed literal {lit}")
            if lit_var(lit) >= num_vars:
                raise ValueError(
                    f"literal {lit_str(lit)} references variable {lit_var(lit)} "
                    f">= num_vars {num_vars}"
                )
        self._tail.append(lits)
        return self._log_len + len(self._tail) - 1

    def extend(self, clauses: Iterable[Iterable[int]]) -> List[int]:
        """Add many clauses; returns their indices."""
        return [self.add_clause(c) for c in clauses]

    def clause(self, index: int) -> Clause:
        """The clause at a stable index."""
        return Clause(self.literals(index))

    def num_literals(self) -> int:
        """Total literal count over all clauses (the paper's "original
        literals", used by the dynamic strategy's 1/64 switch threshold)."""
        return sum(map(len, self.iter_literals()))

    def subformula(self, clause_indices: Iterable[int]) -> "CnfFormula":
        """A new formula over the same variables with only the given clauses.

        Used to check that an extracted unsat core is itself unsatisfiable.
        """
        sub = CnfFormula(self._num_vars)
        sub._tail = [self.literals(idx) for idx in clause_indices]
        return sub

    def evaluate(self, assignment: Sequence[int]) -> bool:
        """Evaluate under a full assignment (``assignment[var]`` in {0, 1})."""
        if len(assignment) < self._num_vars:
            raise ValueError("assignment shorter than num_vars")
        for lits in self.iter_literals():
            satisfied = False
            for lit in lits:
                value = assignment[lit >> 1]
                if value not in (0, 1):
                    raise ValueError(f"assignment[{lit >> 1}] = {value} not in {{0,1}}")
                if value != (lit & 1):
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    def variables_of(self, clause_indices: Iterable[int]) -> set:
        """Union of variables over the given clause indices.

        This is the paper's core operation: the variables appearing in an
        unsatisfiable core (§3.2) feed ``update_ranking``.
        """
        var_set: set = set()
        for idx in clause_indices:
            var_set.update(lit >> 1 for lit in self.literals(idx))
        return var_set

    def copy(self) -> "CnfFormula":
        """An independent copy: shares the (read-only) log prefix and the
        immutable clause tuples, copies the tail."""
        dup = CnfFormula(self._num_vars)
        dup._log = self._log
        dup._log_len = self._log_len
        dup._words = self._words
        dup._tail = list(self._tail)
        return dup

    def __str__(self) -> str:
        return (
            f"CnfFormula(vars={self._num_vars}, clauses={self.num_clauses})"
        )

    __repr__ = __str__
