"""Per-process cache of circuit builds and CNF transition encodings.

A Table-1 row runs the *same* suite instance under up to five decision
strategies, and each run used to rebuild the circuit and re-encode the
depth-k CNF from scratch — five identical builds for one row of
numbers.  ROADMAP.md estimated the redundant encoding at ~3x of Table-1
wall time, independent of solver speed.

:class:`EncodingCache` removes the redundancy: it memoizes, per
``(suite-instance name, use_coi)`` key, the built ``(circuit,
property_net)`` pair *and* the :class:`~repro.encode.unroll.Unroller`
holding the frame encodings.  All strategies of a row then share one
build: the first engine to reach depth ``k`` pays for encoding frames
``0..k``, and every later engine gets the same depth-``k`` instance.
The unroller is created with ``memoize_instances=True``, but what it
memoizes is small: an instance is an O(1) view over the unroller's
append-only clause log (a shared log, a length bound and a one-clause
private tail for the property), not a copy of its clause prefix.  So a
cached row costs one log of literal tuples, however many depths and
strategies read it.

Sharing is sound because every consumer is read-only or monotone:

* ``Unroller.instance(k)`` is deterministic and independent of which
  frames were built before (it bounds its view by per-frame
  watermarks), so a warm unroller yields byte-identical formulas to a
  cold one, even after another engine has encoded frames beyond ``k``;
* clause literals are immutable tuples — the CDCL solver copies them
  into its own arena, and clauses added to an instance's formula go to
  that formula's private tail, never into the shared log (see
  ``repro.cnf.formula``);
* engines never mutate the circuit (trace verification simulates on a
  private value array).

Each *process* holds its own cache (see
``repro.experiments.runner.default_encoding_cache``), so ``--jobs``
workers memoize independently — no cross-process coordination, no
shared mutable state, and therefore no change to the determinism
contract of ``repro.experiments.parallel``.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Tuple

from repro.circuit.netlist import Circuit
from repro.encode.unroll import Unroller


def _builder_fingerprint(builder) -> object:
    """A value-equal fingerprint of a suite row's builder callable.

    Suite rows are rebuilt per ``table1_suite()`` call, so the cache
    cannot key on object identity; but keying on the *name* alone would
    let two differently parameterized instances that happen to share a
    name silently reuse the wrong circuit.  ``functools.partial``
    builders (the whole suite) fingerprint as (function, args, kwargs);
    anything else falls back to the callable itself.
    """
    if isinstance(builder, partial):
        return (
            getattr(builder.func, "__module__", None),
            getattr(builder.func, "__qualname__", repr(builder.func)),
            builder.args,
            tuple(sorted(builder.keywords.items())),
        )
    return builder


class EncodingCache:
    """LRU memo of suite-instance builds and their unrollers.

    Keys are ``(instance.name, use_coi)``; a stored entry additionally
    remembers its builder fingerprint, and a hit whose fingerprint
    differs (same name, different parameterization) is treated as a
    miss and rebuilt rather than silently served the wrong circuit.
    ``capacity`` bounds live unrollers (frame encodings can be large);
    eviction is least-recently-used.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple[str, bool], Tuple[object, Circuit, int, Unroller]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def unroller_for(
        self, instance, use_coi: bool = False
    ) -> Tuple[Circuit, int, Unroller]:
        """The cached ``(circuit, property_net, unroller)`` triple for a
        suite row, building (and memoizing) it on first use."""
        key = (instance.name, bool(use_coi))
        fingerprint = _builder_fingerprint(getattr(instance, "builder", None))
        entry = self._entries.get(key)
        if entry is not None and entry[0] == fingerprint:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[1], entry[2], entry[3]
        self.misses += 1
        circuit, property_net = instance.build()
        unroller = Unroller(
            circuit, property_net, use_coi=use_coi, memoize_instances=True
        )
        self._entries[key] = (fingerprint, circuit, property_net, unroller)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return circuit, property_net, unroller

    def clear(self) -> None:
        """Drop every cached build (hit/miss counters are kept)."""
        self._entries.clear()
