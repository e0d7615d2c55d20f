"""Finite binary relations and strict partial orders.

Everything in the composite-transaction model — weak/strong input and
output orders (Def. 1, Def. 3), the observed order (Def. 10), the
invocation graph (Def. 8) and the constraint graphs of the reduction
(Def. 16) — is a finite binary relation over hashable node names.
:class:`Relation` is the single graph engine the rest of the library is
built on: it supports closure, acyclicity tests with witness cycles,
topological sorting, restriction, union, and quotienting by a grouping
function (the operation behind front reduction).

**Representation.**  Packed bitset rows are the *native* storage: the
carrier set is interned into an index (element → bit position, in
insertion order) and the successor set of each element is a single
arbitrary-precision Python ``int`` used as a bitmap.  Everything hot is
word-parallel on those rows — ``copy`` is a list copy, ``union`` is a
row-wise OR, ``inverse`` is a transpose swap, ``restricted_to`` is a
row mask, ``transitive_closure``/``delta_closure``/``add_closed``
propagate reachability as row ORs and build their results directly
from the closed rows (no per-pair materialization).  The historical
dict-of-sets views ``_succ``/``_pred`` are synthesized lazily for
compatibility and are **read-only snapshots** — mutating them does not
write through.

The class is deliberately mutable-but-convertible: model-construction
code builds relations incrementally, then the checker works on frozen
copies.  Determinism matters for reproducible benchmarks, so iteration
orders are insertion orders (interning order of the carrier) and
topological sorts break ties by insertion order.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import CycleError

Element = Hashable
Pair = Tuple[Element, Element]

#: Closure instrumentation: mutated by :meth:`Relation.transitive_closure`,
#: :meth:`Relation.delta_closure` and :meth:`Relation.add_closed`,
#: snapshotted by the reduction engine's profiler.  ``calls`` counts
#: closure invocations; ``rows`` counts packed bitset rows (one
#: word-packed bitmap each) actually (re)computed — the from-scratch
#: closure recomputes every row, the incremental path touches only the
#: rows whose reachability changed.  Per-process (each fleet worker has
#: its own).
CLOSURE_COUNTERS = {"calls": 0, "rows": 0}


def closure_counters() -> Dict[str, int]:
    """A snapshot of the module-level closure counters."""
    return dict(CLOSURE_COUNTERS)


def reset_closure_counters() -> None:
    """Zero the closure counters (benchmark/test hygiene)."""
    CLOSURE_COUNTERS["calls"] = 0
    CLOSURE_COUNTERS["rows"] = 0


if hasattr(int, "bit_count"):  # Python >= 3.10: native popcount

    def _popcount(mask: int) -> int:
        return mask.bit_count()

else:  # pragma: no cover - Python 3.9 fallback

    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _source_columns(rows: List[int], src_mask: int) -> Dict[int, int]:
    """Predecessor bitmaps for the columns selected by ``src_mask`` only.

    The delta kernels need the predecessors of each inserted edge's
    *source* — never the whole transpose.  One word-AND per row finds
    the rows intersecting the sources, so the scan costs O(V) big-int
    ANDs plus one bit-iteration per (row, source) hit, instead of the
    O(E) per-bit scatter of a full transpose over a dense closed order.
    """
    cols: Dict[int, int] = {}
    get = cols.get
    for r, rowmask in enumerate(rows):
        m = rowmask & src_mask
        if m:
            bit_r = 1 << r
            while m:
                low = m & -m
                j = low.bit_length() - 1
                cols[j] = get(j, 0) | bit_r
                m &= m - 1
    return cols


class Relation:
    """A finite binary relation ``R ⊆ E × E`` over a carrier set ``E``.

    The carrier set always contains every element mentioned by a pair,
    and may contain isolated elements (needed so that topological sorts
    enumerate unordered nodes too).

    >>> r = Relation([("a", "b"), ("b", "c")])
    >>> ("a", "c") in r
    False
    >>> ("a", "c") in r.transitive_closure()
    True
    >>> r.topological_sort()
    ['a', 'b', 'c']
    >>> r.add("c", "a")
    >>> r.find_cycle()
    ['a', 'b', 'c', 'a']
    """

    __slots__ = ("_index", "_nodes", "_rows", "_cols", "_size")

    def __init__(
        self,
        pairs: Iterable[Pair] = (),
        elements: Iterable[Element] = (),
    ) -> None:
        #: element -> bit position (insertion order)
        self._index: Dict[Element, int] = {}
        #: bit position -> element
        self._nodes: List[Element] = []
        #: successor bitmaps, one int per element
        self._rows: List[int] = []
        #: predecessor bitmaps (the transpose); ``None`` when stale —
        #: bulk row operations invalidate it and :meth:`_transpose`
        #: rebuilds it on demand
        self._cols: Optional[List[int]] = []
        self._size = 0
        for element in elements:
            self.add_element(element)
        self.add_all(pairs)

    # ------------------------------------------------------------------
    # internal plumbing
    # ------------------------------------------------------------------
    @classmethod
    def _from_state(
        cls,
        nodes: List[Element],
        rows: List[int],
        cols: Optional[List[int]],
        size: Optional[int] = None,
    ) -> "Relation":
        """Assemble a relation directly from row state (no per-pair
        work).  ``nodes`` must be duplicate-free; ``size`` is recomputed
        from the rows when not supplied."""
        self = cls.__new__(cls)
        self._nodes = nodes
        self._index = {e: i for i, e in enumerate(nodes)}
        self._rows = rows
        self._cols = cols
        self._size = sum(map(_popcount, rows)) if size is None else size
        return self

    def _transpose(self) -> List[int]:
        """The predecessor bitmaps, rebuilt from the rows when stale."""
        cols = self._cols
        if cols is None:
            cols = [0] * len(self._nodes)
            for i, mask in enumerate(self._rows):
                bit = 1 << i
                while mask:
                    low = mask & -mask
                    cols[low.bit_length() - 1] |= bit
                    mask &= mask - 1
            self._cols = cols
        return cols

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_element(self, element: Element) -> None:
        """Add ``element`` to the carrier set (idempotent)."""
        if element not in self._index:
            self._index[element] = len(self._nodes)
            self._nodes.append(element)
            self._rows.append(0)
            if self._cols is not None:
                self._cols.append(0)

    def add(self, a: Element, b: Element) -> None:
        """Add the pair ``(a, b)`` — i.e. assert ``a R b`` (idempotent)."""
        self.add_element(a)
        self.add_element(b)
        ia = self._index[a]
        ib = self._index[b]
        bit = 1 << ib
        if not self._rows[ia] & bit:
            self._rows[ia] |= bit
            if self._cols is not None:
                self._cols[ib] |= 1 << ia
            self._size += 1

    def add_all(self, pairs: Iterable[Pair]) -> None:
        """Add every pair in ``pairs``.

        The loop body is :meth:`add` inlined over local bindings: model
        loading sends hundreds of thousands of pairs through here."""
        index = self._index
        nodes = self._nodes
        rows = self._rows
        cols = self._cols
        added = 0
        try:
            for a, b in pairs:
                ia = index.get(a)
                if ia is None:
                    ia = index[a] = len(nodes)
                    nodes.append(a)
                    rows.append(0)
                    if cols is not None:
                        cols.append(0)
                ib = index.get(b)
                if ib is None:
                    ib = index[b] = len(nodes)
                    nodes.append(b)
                    rows.append(0)
                    if cols is not None:
                        cols.append(0)
                bit = 1 << ib
                row = rows[ia]
                if not row & bit:
                    rows[ia] = row | bit
                    if cols is not None:
                        cols[ib] |= 1 << ia
                    added += 1
        finally:
            self._size += added

    def discard(self, a: Element, b: Element) -> None:
        """Remove the pair ``(a, b)`` if present (carrier set unchanged)."""
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None:
            return
        bit = 1 << ib
        if self._rows[ia] & bit:
            self._rows[ia] ^= bit
            if self._cols is not None:
                self._cols[ib] ^= 1 << ia
            self._size -= 1

    def discard_row_bits(self, a: Element, mask: int) -> int:
        """Clear the successor bits of ``a``'s row selected by ``mask``;
        returns how many pairs were removed.  The word-parallel
        counterpart of repeated :meth:`discard` calls against one row."""
        ia = self._index.get(a)
        if ia is None:
            return 0
        hit = self._rows[ia] & mask
        if not hit:
            return 0
        self._rows[ia] ^= hit
        removed = _popcount(hit)
        self._size -= removed
        cols = self._cols
        if cols is not None:
            keep = ~(1 << ia)
            while hit:
                low = hit & -hit
                cols[low.bit_length() - 1] &= keep
                hit &= hit - 1
        return removed

    def remove_self_loops(self) -> int:
        """Drop every reflexive pair; returns how many were removed."""
        removed = 0
        rows = self._rows
        cols = self._cols
        for i in range(len(rows)):
            bit = 1 << i
            if rows[i] & bit:
                rows[i] ^= bit
                removed += 1
                if cols is not None:
                    cols[i] &= ~bit
        self._size -= removed
        return removed

    def copy(self) -> "Relation":
        """Return an independent copy (row-list copy — O(carrier))."""
        clone = Relation.__new__(Relation)
        clone._index = dict(self._index)
        clone._nodes = list(self._nodes)
        clone._rows = list(self._rows)
        clone._cols = None if self._cols is None else list(self._cols)
        clone._size = self._size
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, pair: Pair) -> bool:
        a, b = pair
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None:
            return False
        return bool((self._rows[ia] >> ib) & 1)

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self._nodes == other._nodes:
            return self._rows == other._rows
        if self._size != other._size:
            return False
        if set(self._index) != set(other._index):
            return False
        shift = [self._index[e] for e in other._nodes]
        for oi, mask in enumerate(other._rows):
            remapped = 0
            while mask:
                low = mask & -mask
                remapped |= 1 << shift[low.bit_length() - 1]
                mask &= mask - 1
            if remapped != self._rows[shift[oi]]:
                return False
        return True

    # A mutable container: equality without identity-based hashing, so
    # the class is explicitly unhashable (``isinstance(r, Hashable)``
    # is False and ``hash(r)`` raises TypeError).
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join(f"{a}<{b}" for a, b in list(self.pairs())[:8])
        more = "" if self._size <= 8 else f", ... ({self._size} pairs)"
        return f"Relation({shown}{more})"

    @property
    def elements(self) -> Tuple[Element, ...]:
        """The carrier set, in insertion order."""
        return tuple(self._nodes)

    @property
    def _succ(self) -> Dict[Element, Set[Element]]:
        """Legacy dict-of-sets successor view (a read-only *snapshot*
        synthesized from the bitset rows; mutations do not write back)."""
        nodes = self._nodes
        return {
            nodes[i]: {nodes[j] for j in _iter_bits(mask)}
            for i, mask in enumerate(self._rows)
            if mask
        }

    @property
    def _pred(self) -> Dict[Element, Set[Element]]:
        """Legacy dict-of-sets predecessor view (read-only snapshot)."""
        nodes = self._nodes
        return {
            nodes[i]: {nodes[j] for j in _iter_bits(mask)}
            for i, mask in enumerate(self._transpose())
            if mask
        }

    def pairs(self) -> Iterator[Pair]:
        """Iterate over all pairs in deterministic order."""
        nodes = self._nodes
        for i, a in enumerate(nodes):
            mask = self._rows[i]
            if mask:
                succ = [nodes[j] for j in _iter_bits(mask)]
                succ.sort(key=_sort_key)
                for b in succ:
                    yield (a, b)

    def successors(self, a: Element) -> Set[Element]:
        """All ``b`` with ``a R b``."""
        ia = self._index.get(a)
        if ia is None:
            return set()
        nodes = self._nodes
        return {nodes[j] for j in _iter_bits(self._rows[ia])}

    def predecessors(self, b: Element) -> Set[Element]:
        """All ``a`` with ``a R b``."""
        ib = self._index.get(b)
        if ib is None:
            return set()
        nodes = self._nodes
        return {nodes[j] for j in _iter_bits(self._transpose()[ib])}

    def orders(self, a: Element, b: Element) -> bool:
        """True if ``a`` and ``b`` are related in either direction."""
        return (a, b) in self or (b, a) in self

    # ------------------------------------------------------------------
    # bitset-row accessors (the native face of the engine)
    # ------------------------------------------------------------------
    def row_bits(self, a: Element) -> int:
        """The successor bitmap of ``a`` (0 when absent).  Bit ``j`` is
        set iff ``a R elements[j]`` — word-parallel AND/OR/NOT against
        :meth:`mask_of` masks replaces per-pair membership loops."""
        ia = self._index.get(a)
        return 0 if ia is None else self._rows[ia]

    def mask_of(self, elements: Iterable[Element]) -> int:
        """The bitmap of the given elements (absent ones are ignored)."""
        index = self._index
        mask = 0
        for e in elements:
            i = index.get(e)
            if i is not None:
                mask |= 1 << i
        return mask

    def unpack(self, mask: int) -> List[Element]:
        """The elements whose bits are set in ``mask``, in index order."""
        nodes = self._nodes
        return [nodes[j] for j in _iter_bits(mask)]

    def missing_pairs(self, other: "Relation") -> Iterator[Pair]:
        """Pairs of ``self`` absent from ``other``, in :meth:`pairs`
        order — the row-wise containment check behind the Def.-19
        verifications (``self ⊆ other`` iff this yields nothing)."""
        nodes = self._nodes
        aligned = nodes == other._nodes
        oindex = other._index
        for i, a in enumerate(nodes):
            mask = self._rows[i]
            if not mask:
                continue
            if aligned:
                missing = mask & ~other._rows[i]
            else:
                oi = oindex.get(a)
                if oi is None:
                    missing = mask
                else:
                    orow = other._rows[oi]
                    missing = 0
                    for j in _iter_bits(mask):
                        oj = oindex.get(nodes[j])
                        if oj is None or not (orow >> oj) & 1:
                            missing |= 1 << j
            if missing:
                succ = [nodes[j] for j in _iter_bits(missing)]
                succ.sort(key=_sort_key)
                for b in succ:
                    yield (a, b)

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def union(self, *others: "Relation") -> "Relation":
        """Union of this relation with ``others`` (carriers merged).

        Row-wise OR when a carrier matches; otherwise the other rows are
        scattered through an index permutation."""
        result = self.copy()
        result._cols = None
        rows = result._rows
        for other in others:
            for e in other._nodes:
                result.add_element(e)
            if other._nodes == result._nodes:
                for i, mask in enumerate(other._rows):
                    rows[i] |= mask
            else:
                index = result._index
                shift = [index[e] for e in other._nodes]
                for oi, mask in enumerate(other._rows):
                    if not mask:
                        continue
                    acc = rows[shift[oi]]
                    while mask:
                        low = mask & -mask
                        acc |= 1 << shift[low.bit_length() - 1]
                        mask &= mask - 1
                    rows[shift[oi]] = acc
        result._size = sum(map(_popcount, rows))
        return result

    def restricted_to(
        self,
        keep: Iterable[Element],
        *,
        carrier: "Optional[Iterable[Element]]" = None,
    ) -> "Relation":
        """The sub-relation induced on the elements of ``keep``.

        Rows are masked whole (successor row AND keep-mask), never pair
        by pair — the restriction is the carried base of every
        incremental reduction step, and per-pair ``add`` calls dominated
        its cost.  ``carrier`` optionally fixes the result's carrier —
        it must contain every kept element of ``self`` (extra elements
        get empty rows); a carrier that *misses* a kept element raises
        :class:`ValueError`, since the result would mention elements
        outside its own carrier.  The reduction uses the explicit
        carrier to place the parent transactions at their Def.-16
        positions.  A restriction of a transitively closed relation is
        itself closed.
        """
        keep_set = set(keep)
        result = Relation()
        if carrier is None:
            # Result carrier = kept elements in self's index order; sort
            # the (few) kept indices rather than scanning the whole
            # carrier — group restrictions keep a handful of elements of
            # a front-sized relation.
            own = self._index
            kept_indices = sorted(
                i
                for i in map(own.get, keep_set)
                if i is not None
            )
            nodes = self._nodes
            for i in kept_indices:
                result.add_element(nodes[i])
        else:
            for e in carrier:
                result.add_element(e)
            missing = [
                e
                for e in self._nodes
                if e in keep_set and e not in result._index
            ]
            if missing:
                raise ValueError(
                    "restricted_to: carrier is missing kept element(s) "
                    f"{missing!r} — the carrier must contain every kept "
                    "element of the relation"
                )
        # Work proportional to |keep|, not to the carrier: build the
        # keep bitmap and the self-index -> result-index permutation
        # from the kept elements alone.
        index = self._index
        ridx = result._index
        keep_mask = 0
        shift: Dict[int, int] = {}
        for e in keep_set:
            i = index.get(e)
            if i is not None:
                keep_mask |= 1 << i
                shift[i] = ridx[e]
        rows = result._rows
        size = 0
        for i, ti in shift.items():
            masked = self._rows[i] & keep_mask
            if not masked:
                continue
            acc = 0
            while masked:
                low = masked & -masked
                acc |= 1 << shift[low.bit_length() - 1]
                masked &= masked - 1
            rows[ti] = acc
            size += _popcount(acc)
        result._size = size
        result._cols = None
        return result

    def mapped(
        self,
        representative: Callable[[Element], Element],
        *,
        drop_loops: bool = True,
    ) -> "Relation":
        """Quotient: replace every element by ``representative(element)``.

        This is the engine of the reduction step (Def. 16): grouping the
        operations of a level-*i* transaction collapses them to the
        transaction node.  Rows are scattered into the quotient rows
        through the representative index.  Self-loops created by the
        collapse are dropped by default (pairs internal to a group carry
        no inter-node constraint).
        """
        result = Relation()
        targets: List[int] = []
        for e in self._nodes:
            rep = representative(e)
            result.add_element(rep)
            targets.append(result._index[rep])
        rows = result._rows
        for i, mask in enumerate(self._rows):
            if not mask:
                continue
            ti = targets[i]
            acc = rows[ti]
            while mask:
                low = mask & -mask
                tj = targets[low.bit_length() - 1]
                mask &= mask - 1
                if drop_loops and tj == ti:
                    continue
                acc |= 1 << tj
            rows[ti] = acc
        result._size = sum(map(_popcount, rows))
        result._cols = None
        return result

    def inverse(self) -> "Relation":
        """The converse relation ``{(b, a) : (a, b) ∈ R}`` — a transpose
        swap: the predecessor bitmaps become the rows and vice versa."""
        return Relation._from_state(
            list(self._nodes),
            list(self._transpose()),
            list(self._rows),
            self._size,
        )

    def transitive_closure(self) -> "Relation":
        """The smallest transitive relation containing this one.

        Reachability propagates through the strongly-connected-component
        condensation in reverse topological order, one row OR per
        external successor — ``O(V·E/w)`` word-packed — and the result
        relation is assembled directly from the closed rows, never pair
        by pair.  (``source R source`` appears exactly when the source
        lies on a cycle, matching the DFS semantics the test suite pins
        down.)
        """
        n = len(self._nodes)
        CLOSURE_COUNTERS["calls"] += 1
        CLOSURE_COUNTERS["rows"] += n
        rows = self._rows

        # Tarjan SCC (iterative) to handle cycles; components are
        # emitted in reverse topological order (a component is completed
        # only after everything it reaches), so each row is final when
        # consumed.
        closure = [0] * n
        for comp in self._tarjan_components():
            comp_mask = 0
            direct = 0
            for node in comp:
                comp_mask |= 1 << node
                direct |= rows[node]
            # Successors outside the component are already closed, so one
            # union per external successor finishes the reachability set.
            external = direct & ~comp_mask
            reach = external
            remaining = external
            while remaining:
                low = remaining & -remaining
                reach |= closure[low.bit_length() - 1]
                remaining &= remaining - 1
            # Inside a (non-trivial) cycle every member reaches every
            # member, including itself when the component has an internal
            # edge (size > 1, or an explicit self-loop).
            if len(comp) > 1 or rows[comp[0]] & (1 << comp[0]):
                reach |= comp_mask
            for node in comp:
                closure[node] = reach
        return Relation._from_state(list(self._nodes), closure, None)

    def delta_closure(
        self,
        pairs: Iterable[Pair],
        elements: Iterable[Element] = (),
    ) -> "Relation":
        """Closure of ``self ∪ pairs`` for an **already closed** ``self``.

        The incremental counterpart of :meth:`transitive_closure`:
        instead of re-saturating every row, each inserted edge ``(a,
        b)`` unions ``b``'s (final) reachability row into the rows of
        ``a`` and of everything that reaches ``a`` — touching only rows
        whose reachability actually changes, found through the
        transposed (predecessor) bitmaps without a scan.

        Precondition: ``self`` is transitively closed (the result of
        :meth:`transitive_closure` or a previous :meth:`delta_closure`,
        or a restriction of one — restriction preserves closedness).
        The reflexivity convention matches :meth:`transitive_closure`:
        ``x R x`` appears exactly when ``x`` lies on a cycle.

        ``elements`` extends the carrier set (isolated nodes the caller
        wants present); endpoints of ``pairs`` are added automatically.

        >>> base = Relation([("a", "b"), ("b", "c")]).transitive_closure()
        >>> inc = base.delta_closure([("c", "d")])
        >>> ("a", "d") in inc
        True
        >>> inc == Relation(
        ...     [("a", "b"), ("b", "c"), ("c", "d")]
        ... ).transitive_closure()
        True
        """
        staged = list(pairs)
        nodes = list(self._nodes)
        index = dict(self._index)
        for element in elements:
            if element not in index:
                index[element] = len(nodes)
                nodes.append(element)
        for a, b in staged:
            for e in (a, b):
                if e not in index:
                    index[e] = len(nodes)
                    nodes.append(e)
        grown = len(nodes) - len(self._nodes)
        rows = self._rows + [0] * grown  # list __add__ always copies
        # Only the delta sources' predecessor columns are ever read —
        # build exactly those, never the full transpose.
        src_mask = 0
        for a, _b in staged:
            src_mask |= 1 << index[a]
        cols = _source_columns(rows, src_mask)

        touched = 0
        for a, b in staged:
            ia, ib = index[a], index[b]
            if (rows[ia] >> ib) & 1:
                continue  # already implied — closure is unchanged
            succ_mask = rows[ib] | (1 << ib)
            affected = cols.get(ia, 0) | (1 << ia)
            while affected:
                low = affected & -affected
                ix = low.bit_length() - 1
                affected &= affected - 1
                new = succ_mask & ~rows[ix]
                if not new:
                    continue
                touched += 1
                rows[ix] |= new
                hit = new & src_mask
                if hit:
                    bit_x = 1 << ix
                    while hit:
                        nl = hit & -hit
                        j = nl.bit_length() - 1
                        cols[j] = cols.get(j, 0) | bit_x
                        hit &= hit - 1
        CLOSURE_COUNTERS["calls"] += 1
        CLOSURE_COUNTERS["rows"] += touched
        return Relation._from_state(nodes, rows, None)

    def add_closed(
        self,
        pairs: Iterable[Pair],
        elements: Iterable[Element] = (),
        *,
        grown: Optional[Dict[Element, int]] = None,
    ) -> int:
        """In-place :meth:`delta_closure`: insert ``pairs`` into an
        **already closed** relation and restore closedness, touching only
        rows whose reachability changes.

        This is the engine-facing variant — it never re-emits the
        unchanged part of the relation (the dominant cost of re-closing a
        dense observed order from scratch): in a closed relation the
        predecessor bitmap of ``a`` is exactly the set of rows an edge
        into ``a`` can affect.  Returns the number of rows touched (also
        added to the module closure counters).

        ``grown``, when given, receives the delta itself: for every
        element whose row gained successors, the bitmap of the gained
        ones is OR-ed into ``grown[element]`` — the closed pairs this
        call added, for callers that propagate them further.
        """
        staged = list(pairs)
        for element in elements:
            self.add_element(element)
        index = self._index
        for a, b in staged:
            if a not in index:
                self.add_element(a)
            if b not in index:
                self.add_element(b)
        rows = self._rows
        src_mask = 0
        for a, _b in staged:
            src_mask |= 1 << index[a]
        # When a transpose is already cached keep maintaining it (the
        # cache stays valid for later predecessor queries); otherwise
        # build only the delta sources' columns — the rest of the
        # transpose is never read by the propagation below.
        full_cols = self._cols
        cols = (
            _source_columns(rows, src_mask) if full_cols is None else None
        )
        touched = 0
        for a, b in staged:
            ia, ib = index[a], index[b]
            if (rows[ia] >> ib) & 1:
                continue  # already implied — closure is unchanged
            succ_mask = rows[ib] | (1 << ib)
            if full_cols is not None:
                affected = full_cols[ia] | (1 << ia)
            else:
                affected = cols.get(ia, 0) | (1 << ia)
            while affected:
                low = affected & -affected
                ix = low.bit_length() - 1
                affected &= affected - 1
                new = succ_mask & ~rows[ix]
                if not new:
                    continue
                touched += 1
                rows[ix] |= new
                self._size += _popcount(new)
                if grown is not None:
                    node = self._nodes[ix]
                    grown[node] = grown.get(node, 0) | new
                bit_x = 1 << ix
                if full_cols is not None:
                    while new:
                        nl = new & -new
                        full_cols[nl.bit_length() - 1] |= bit_x
                        new &= new - 1
                else:
                    hit = new & src_mask
                    while hit:
                        nl = hit & -hit
                        j = nl.bit_length() - 1
                        cols[j] = cols.get(j, 0) | bit_x
                        hit &= hit - 1
        CLOSURE_COUNTERS["calls"] += 1
        CLOSURE_COUNTERS["rows"] += touched
        return touched

    def _widest_first(self, pairs: Iterable[Pair]) -> List[Pair]:
        """The ``pairs`` this closed relation does not already imply,
        by ascending ``|row(a)| - |row(b)|``: the order in which
        :meth:`add_closed` walks the fewest rows on a (nearly) closed
        batch.

        A pair ``(a, b)`` implies every ``(p, s)`` with ``p`` reaching
        ``a`` and ``b`` reaching ``s``, and in a closed acyclic order a
        later element reaches fewer elements: a new node's edges from
        its latest predecessor and to its earliest successor go first
        and imply the rest of the batch, which then costs one bit test
        each instead of a walk over the source's predecessors.  For the
        streaming assembler, whose commits declare closed batches."""
        index = self._index
        rows = self._rows
        fresh: List[Pair] = []
        reach: Dict[Element, int] = {}
        for a, b in pairs:
            ia, ib = index.get(a), index.get(b)
            if ia is not None and ib is not None and (rows[ia] >> ib) & 1:
                continue
            fresh.append((a, b))
            if a not in reach:
                reach[a] = 0 if ia is None else _popcount(rows[ia])
            if b not in reach:
                reach[b] = 0 if ib is None else _popcount(rows[ib])
        fresh.sort(key=lambda pair: reach[pair[0]] - reach[pair[1]])
        return fresh

    def _tarjan_components(self) -> List[List[int]]:
        """Iterative Tarjan SCC over the row bitmaps; components are
        emitted in reverse topological order."""
        n = len(self._nodes)
        adjacency: List[List[int]] = [
            list(_iter_bits(mask)) for mask in self._rows
        ]
        index_counter = [0]
        lowlink = [0] * n
        number = [-1] * n
        on_stack = [False] * n
        stack: List[int] = []
        components: List[List[int]] = []

        for root in range(n):
            if number[root] != -1:
                continue
            work: List[Tuple[int, int]] = [(root, 0)]
            while work:
                node, child_pos = work[-1]
                if child_pos == 0:
                    number[node] = lowlink[node] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(node)
                    on_stack[node] = True
                advanced = False
                for pos in range(child_pos, len(adjacency[node])):
                    succ = adjacency[node][pos]
                    if number[succ] == -1:
                        work[-1] = (node, pos + 1)
                        work.append((succ, 0))
                        advanced = True
                        break
                    if on_stack[succ]:
                        lowlink[node] = min(lowlink[node], number[succ])
                if advanced:
                    continue
                work.pop()
                if lowlink[node] == number[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return components

    def reaches(self, a: Element, b: Element) -> bool:
        """True if ``b`` is reachable from ``a`` through one or more
        pairs (bitset BFS: one row OR per newly reached node)."""
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None:
            return False
        rows = self._rows
        seen = 0
        frontier = rows[ia]
        while frontier & ~seen:
            new = frontier & ~seen
            if (new >> ib) & 1:
                return True
            seen |= new
            frontier = 0
            while new:
                low = new & -new
                frontier |= rows[low.bit_length() - 1]
                new &= new - 1
        return False

    def first_self_loop(self) -> Optional[Element]:
        """The first element (carrier order) with ``x R x``, or ``None``.

        In a **transitively closed** relation (the invariant
        :meth:`transitive_closure` / :meth:`add_closed` maintain:
        ``x R x`` exactly when ``x`` lies on a cycle) this is an O(V)
        acyclicity probe — one bit test per row instead of a full
        traversal.  The streaming checker uses it as its per-commit
        rejection gate on the maintained level-0 observed order: once a
        delta closes a cycle, some row gains its own bit and every later
        extension keeps it (closed relations only grow), so a ``None``
        here certifies the front's observed order acyclic without a
        :meth:`find_cycle` pass.  On a relation that is *not* closed the
        result only reports literal self-loops.
        """
        for i, row in enumerate(self._rows):
            if (row >> i) & 1:
                return self._nodes[i]
        return None

    # ------------------------------------------------------------------
    # order-theoretic properties
    # ------------------------------------------------------------------
    def find_cycle(self) -> Optional[List[Element]]:
        """Return one directed cycle ``[a, ..., a]`` or ``None`` if acyclic.

        Iterative three-colour DFS (no recursion: histories can be deep).
        Traversal order — roots in carrier insertion order, children in
        :func:`_sort_key` order — is pinned so witness cycles are
        deterministic and identical to the historical dict engine.
        """
        n = len(self._nodes)
        nodes = self._nodes
        rows = self._rows
        WHITE, GREY, BLACK = 0, 1, 2
        colour = [WHITE] * n
        parent: Dict[int, int] = {}

        def children(i: int) -> Iterator[int]:
            succ = list(_iter_bits(rows[i]))
            succ.sort(key=lambda j: _sort_key(nodes[j]))
            return iter(succ)

        for root in range(n):
            if colour[root] != WHITE:
                continue
            stack: List[Tuple[int, Iterator[int]]] = [(root, children(root))]
            colour[root] = GREY
            while stack:
                node, kids = stack[-1]
                advanced = False
                for child in kids:
                    if colour[child] == WHITE:
                        colour[child] = GREY
                        parent[child] = node
                        stack.append((child, children(child)))
                        advanced = True
                        break
                    if colour[child] == GREY:
                        # Found a back edge node -> child; unwind the path.
                        cycle = [child]
                        cursor = node
                        while cursor != child:
                            cycle.append(cursor)
                            cursor = parent[cursor]
                        cycle.append(child)
                        cycle.reverse()
                        return [nodes[i] for i in cycle]
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None

    def is_acyclic(self) -> bool:
        """True if the relation, viewed as a digraph, has no cycle."""
        return self.find_cycle() is None

    def is_irreflexive(self) -> bool:
        """True if no element is related to itself (empty diagonal)."""
        return all(
            not (mask >> i) & 1 for i, mask in enumerate(self._rows)
        )

    def is_transitive(self) -> bool:
        """True if ``a R b`` and ``b R c`` imply ``a R c`` — row-wise:
        every successor's row must be covered by the element's row."""
        rows = self._rows
        for mask in rows:
            remaining = mask
            while remaining:
                low = remaining & -remaining
                if rows[low.bit_length() - 1] & ~mask:
                    return False
                remaining &= remaining - 1
        return True

    def is_strict_partial_order(self) -> bool:
        """True if the relation is irreflexive and acyclic.

        (An acyclic relation always has an irreflexive, transitive
        extension — its transitive closure — so this is the useful test
        for "can serve as a strict partial order".)
        """
        return self.is_irreflexive() and self.is_acyclic()

    def is_total_over(self, elements: Iterable[Element]) -> bool:
        """True if every distinct pair from ``elements`` is ordered."""
        pool = list(elements)
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                if a != b and not self.orders(a, b):
                    return False
        return True

    # ------------------------------------------------------------------
    # linearization
    # ------------------------------------------------------------------
    def topological_sort(self) -> List[Element]:
        """A linear extension of the relation over its carrier set.

        Raises :class:`CycleError` (with a witness) when cyclic.  Ties
        are broken by carrier insertion order, which makes results
        deterministic across runs.
        """
        n = len(self._nodes)
        nodes = self._nodes
        in_degree = [_popcount(c) for c in self._transpose()]
        queue: List[int] = [i for i in range(n) if in_degree[i] == 0]
        order: List[int] = []
        head = 0
        while head < len(queue):
            # Pick the smallest-position ready element for determinism
            # (bit position == carrier insertion position).
            best = min(range(head, len(queue)), key=lambda k: queue[k])
            queue[head], queue[best] = queue[best], queue[head]
            node = queue[head]
            head += 1
            order.append(node)
            succ = list(_iter_bits(self._rows[node]))
            succ.sort(key=lambda j: _sort_key(nodes[j]))
            for child in succ:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    queue.append(child)
        if len(order) != n:
            cycle = self.find_cycle()
            assert cycle is not None
            raise CycleError("relation is not linearizable", cycle)
        return [nodes[i] for i in order]

    def all_topological_sorts(
        self, limit: Optional[int] = None
    ) -> Iterator[List[Element]]:
        """Enumerate every linear extension (optionally at most ``limit``).

        Exponential in general — used only by the brute-force oracle that
        cross-validates Theorem 1 on tiny instances.
        """
        elements = list(self._nodes)
        successors: Dict[Element, List[Element]] = {
            elements[i]: [elements[j] for j in _iter_bits(mask)]
            for i, mask in enumerate(self._rows)
            if mask
        }
        in_degree: Dict[Element, int] = {e: 0 for e in elements}
        for bs in successors.values():
            for b in bs:
                in_degree[b] += 1
        emitted = 0
        prefix: List[Element] = []

        def backtrack() -> Iterator[List[Element]]:
            nonlocal emitted
            if limit is not None and emitted >= limit:
                return
            if len(prefix) == len(elements):
                emitted += 1
                yield list(prefix)
                return
            for node in elements:
                if in_degree[node] == 0 and node not in taken:
                    taken.add(node)
                    prefix.append(node)
                    for child in successors.get(node, ()):
                        in_degree[child] -= 1
                    yield from backtrack()
                    for child in successors.get(node, ()):
                        in_degree[child] += 1
                    prefix.pop()
                    taken.remove(node)
                    if limit is not None and emitted >= limit:
                        return

        taken: Set[Element] = set()
        yield from backtrack()


def _sort_key(element: Element) -> Tuple[str, str]:
    """Deterministic sort key for heterogeneous hashables."""
    return (type(element).__name__, str(element))


def find_cycle_in_union(
    relations: Iterable["Relation"],
    *,
    skip_self_loops: bool = False,
) -> Optional[List[Element]]:
    """One directed cycle of ``⋃ relations``, without materializing it.

    Behaviourally identical to ``relations[0].union(*relations[1:])``
    followed by :meth:`Relation.find_cycle` (same carrier order, same
    successor sort, hence the same witness cycle) — but it never copies
    the relations: successor sets are merged per visited node straight
    from the bitset rows, which for the checker's dense closed observed
    orders is the dominant cost of the Def.-13 consistency test.  With
    ``skip_self_loops`` reflexive pairs are ignored, matching the
    self-loop discard of :meth:`repro.core.front.Front.consistency_violation`.
    """
    pool = list(relations)
    order: Dict[Element, None] = {}
    for relation in pool:
        for element in relation._nodes:
            order.setdefault(element, None)

    # Children must be visited in ``_sort_key`` order (the witness-cycle
    # contract).  Rank the union carrier once, so merging successor rows
    # into a rank-indexed bitmap yields them already sorted — one global
    # O(n log n) sort instead of a sort (plus key tuples) per visited
    # node, which dominated the Def.-13 test on dense closed orders.
    ranked = sorted(order, key=_sort_key)
    rank_bit = {e: 1 << r for r, e in enumerate(ranked)}
    perms = [
        [rank_bit[e] for e in relation._nodes] for relation in pool
    ]

    def successors(node: Element) -> List[Element]:
        merged = 0
        for relation, perm in zip(pool, perms):
            i = relation._index.get(node)
            if i is None:
                continue
            mask = relation._rows[i]
            while mask:
                low = mask & -mask
                merged |= perm[low.bit_length() - 1]
                mask &= mask - 1
        if skip_self_loops:
            merged &= ~rank_bit[node]
        out: List[Element] = []
        while merged:
            low = merged & -merged
            out.append(ranked[low.bit_length() - 1])
            merged &= merged - 1
        return out

    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Element, int] = {e: WHITE for e in order}
    parent: Dict[Element, Element] = {}
    for root in order:
        if colour[root] != WHITE:
            continue
        stack: List[Tuple[Element, Iterator[Element]]] = [
            (root, iter(successors(root)))
        ]
        colour[root] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if colour[child] == WHITE:
                    colour[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(successors(child))))
                    advanced = True
                    break
                if colour[child] == GREY:
                    cycle = [child]
                    cursor = node
                    while cursor != child:
                        cycle.append(cursor)
                        cursor = parent[cursor]
                    cycle.append(child)
                    cycle.reverse()
                    return cycle
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def total_order_from_sequence(sequence: Iterable[Element]) -> Relation:
    """Build the total order induced by a sequence (adjacent pairs only;
    take the transitive closure when the full order matters)."""
    relation = Relation()
    previous: Optional[Element] = None
    first = True
    for element in sequence:
        relation.add_element(element)
        if not first:
            relation.add(previous, element)
        previous = element
        first = False
    return relation


def total_order_relation(sequence: Iterable[Element]) -> Relation:
    """The *full* (transitively closed) total order of a duplicate-free
    sequence, assembled directly as bitset rows: element ``i``'s row is
    every later bit — O(n) row constructions instead of O(n²) ``add``
    calls.  This is the serial-front constructor of Theorem 1's proof."""
    nodes = list(sequence)
    n = len(nodes)
    if len(set(nodes)) != n:
        raise ValueError("total_order_relation: sequence has duplicates")
    full = (1 << n) - 1
    rows = [(full >> (i + 1)) << (i + 1) for i in range(n)]
    return Relation._from_state(nodes, rows, None, n * (n - 1) // 2)
