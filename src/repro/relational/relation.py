"""Relation instances: ordered collections of :class:`CTuple` rows.

A :class:`Relation` owns its tuples and assigns tuple identifiers (tids).
Cleaning algorithms operate on a *clone* of the dirty relation, mutate
tuples in place and record the edits in a fix log; the original relation is
never modified.

Cell mutations that go through :meth:`Relation.set_value` are broadcast to
registered observers, which is how incremental indexes (the violation
index, the entropy index) stay coherent with in-place :class:`CTuple`
mutation.  Tuple inserts (:meth:`Relation.add`) and deletes
(:meth:`Relation.remove`) are broadcast the same way, so a
:class:`~repro.pipeline.changeset.Changeset` applied to an observed
relation keeps every derived structure coherent without rebuilds.
Observers are *not* carried over by :meth:`clone` — each clone starts
with a clean observer list.

Relations are **columnar-backed by default** (see
:mod:`repro.relational.columns`): cells live in per-attribute interned
ref columns and resident tuples are :class:`~repro.relational.columns.ColumnTuple`
row-views, which keeps the whole tuple API intact while exposing the
ref column of an attribute (:meth:`Relation.column`) to the similarity
join's index build.  Pass ``columnar=False`` (or flip the
``REPRO_COLUMNAR`` env default) to get the original dict-of-CTuple
backing.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import DataError, SchemaError
from repro.relational import columns as _columns
from repro.relational.attribute import NULL, cell_changed, require_atom
from repro.relational.columns import ColumnStore, ColumnTuple, ValueTable
from repro.relational.schema import Schema
from repro.relational.tuples import CTuple


class Relation:
    """An instance of a :class:`~repro.relational.schema.Schema`.

    Parameters
    ----------
    schema:
        Relation schema.
    tuples:
        Optional initial tuples; tids are (re-)assigned on insertion when
        absent or conflicting.
    columnar:
        Backing store: ``True`` for interned ref columns (resident tuples
        are row-views), ``False`` for the original dict-of-CTuple layout,
        ``None`` (default) for the process-wide default
        (:func:`repro.relational.columns.default_columnar`).

    Notes
    -----
    Tuples are stored in insertion order, addressable by tid in O(1).
    """

    __slots__ = (
        "schema",
        "_tuples",
        "_next_tid",
        "_retired",
        "_observers",
        "_insert_observers",
        "_delete_observers",
        "_columns",
    )

    def __init__(
        self,
        schema: Schema,
        tuples: Iterable[CTuple] = (),
        columnar: Optional[bool] = None,
    ):
        self.schema = schema
        self._tuples: Dict[int, CTuple] = {}
        self._next_tid = 0
        self._retired: Set[int] = set()
        self._observers: List[Callable[[CTuple, str, Any, Any], None]] = []
        self._insert_observers: List[Callable[[CTuple], None]] = []
        self._delete_observers: List[Callable[[CTuple], None]] = []
        if columnar is None:
            columnar = _columns.default_columnar()
        self._columns: Optional[ColumnStore] = (
            ColumnStore(schema) if columnar else None
        )
        for t in tuples:
            self.add(t)

    @property
    def column_store(self) -> Optional[ColumnStore]:
        """The columnar backing store, or ``None`` for dict-backed relations."""
        return self._columns

    @property
    def value_table(self) -> Optional[ValueTable]:
        """The interning table cells reference (columnar relations only)."""
        return self._columns.table if self._columns is not None else None

    # ------------------------------------------------------------------
    # Pickling (process-pool sharding ships relations across workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Pickle tuples and tid bookkeeping; observers are process-local
        callables (often closures over index state) and are dropped, the
        same way :meth:`clone` starts with a clean observer list.

        Column-backed relations pickle their rows as detached plain
        tuples (refs are process-local), keeping the state shape — and
        therefore the wire/snapshot formats built on it — identical for
        both backends.
        """
        tuples = list(self._tuples.values())
        if self._columns is not None:
            tuples = [t.clone() for t in tuples]  # detach row-views
        return {
            "schema": self.schema,
            "tuples": tuples,
            "next_tid": self._next_tid,
            "retired": sorted(self._retired),
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.schema = state["schema"]
        self._observers = []
        self._insert_observers = []
        self._delete_observers = []
        self._tuples = {}
        self._columns = (
            ColumnStore(self.schema) if _columns.default_columnar() else None
        )
        store = self._columns
        if store is None:
            self._tuples = {t.tid: t for t in state["tuples"]}
        else:
            names = self.schema.names
            for t in state["tuples"]:
                values = t._values
                conf = t._conf
                row = store.append_values(
                    t.tid,
                    [values[n] for n in names],
                    [conf[n] for n in names],
                )
                self._tuples[t.tid] = ColumnTuple.make(store, row, t.tid)
        self._next_tid = state["next_tid"]
        self._retired = set(state["retired"])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(
        cls,
        schema: Schema,
        rows: Iterable[Mapping[str, Any]],
        confidences: Optional[Iterable[Mapping[str, Optional[float]]]] = None,
    ) -> "Relation":
        """Build a relation from dict rows (and optional confidence dicts)."""
        relation = cls(schema)
        if confidences is None:
            for row in rows:
                relation.add_row(row)
        else:
            conf_list = list(confidences)
            row_list = list(rows)
            if len(conf_list) != len(row_list):
                raise DataError("rows and confidences must have equal length")
            for row, conf in zip(row_list, conf_list):
                relation.add_row(row, conf)
        return relation

    def _absorb(self, t: CTuple) -> CTuple:
        """Make *t* resident: dict backends keep the object itself;
        columnar backends copy its cells into the column store (by ref
        when *t* is already a row-view over the same value table) and
        return a fresh row-view carrying ``t.tid``."""
        store = self._columns
        if store is None:
            return t
        if isinstance(t, ColumnTuple):
            row = store.adopt_row(t.tid, t._store, t._row)
        else:
            names = self.schema.names
            values = t._values
            conf = t._conf
            row = store.append_values(
                t.tid, [values[n] for n in names], [conf[n] for n in names]
            )
        return ColumnTuple.make(store, row, t.tid)

    def _install(self, t: CTuple) -> CTuple:
        """Install *t* as the resident tuple for its (already-assigned)
        tid without firing observers or touching tid bookkeeping — the
        shard-merge primitive (:mod:`repro.pipeline.sharding` swaps
        repaired tuples into ``working`` wholesale).  Any current
        resident for the tid is replaced; for columnar relations the
        replacement gets a fresh row, so shared-store views of the old
        row are unaffected (same semantics as rebinding the dict slot).
        """
        resident = self._absorb(t)
        self._tuples[resident.tid] = resident
        return resident

    def add(self, t: CTuple) -> CTuple:
        """Insert tuple *t*, assigning a fresh tid when needed.

        A fresh tid is assigned when ``t.tid`` is ``None``, collides with
        a live tuple, or names a tid that was previously :meth:`remove`\\ d
        — removed tids are *never* reused, so session state keyed by a
        dead tid (per-cell cost maps, fix-log entries) can never alias a
        later insert.  Explicit tids that were never assigned (gaps below
        ``_next_tid``) are honoured.

        Returns the resident tuple: the same object for dict-backed
        relations, a row-view over the column store otherwise (the input
        handle's ``tid`` is updated either way, but only the returned
        tuple addresses the resident row).  An unhashable cell value
        raises :class:`~repro.exceptions.DataError` before anything
        changes (:func:`~repro.relational.attribute.require_atom`).
        """
        if t.schema != self.schema:
            raise DataError(
                f"tuple of schema {t.schema.name!r} cannot join relation "
                f"of schema {self.schema.name!r}"
            )
        tid = t.tid
        if tid is None or tid in self._tuples or tid in self._retired:
            tid = self._next_tid
        if not isinstance(t, ColumnTuple):  # a row-view's cells are interned
            for name in self.schema.names:
                require_atom(t[name], tid, name)
        t.tid = tid
        resident = self._absorb(t)
        self._tuples[resident.tid] = resident
        self._next_tid = max(self._next_tid, resident.tid) + 1
        for observer in self._insert_observers:
            observer(resident)
        return resident

    def add_row(
        self,
        values: Mapping[str, Any],
        confidences: Optional[Mapping[str, Optional[float]]] = None,
    ) -> CTuple:
        """Convenience: build and insert a tuple from dicts.

        Columnar relations skip the intermediate :class:`CTuple` and
        write straight into the columns (same validation, same errors).
        """
        store = self._columns
        if store is None:
            return self.add(CTuple(self.schema, values, confidences))
        schema = self.schema
        for extra in values:
            if extra not in schema:
                raise SchemaError(
                    f"value for unknown attribute {extra!r} of schema {schema.name!r}"
                )
        row_values = [values.get(name, NULL) for name in schema.names]
        if confidences:
            for name, conf in confidences.items():
                if name not in schema:
                    raise SchemaError(
                        f"confidence for unknown attribute {name!r} "
                        f"of schema {schema.name!r}"
                    )
                CTuple._check_conf(conf)
            row_confs = [confidences.get(name) for name in schema.names]
        else:
            row_confs = [None] * len(schema.names)
        return self.append_row_values(row_values, row_confs)

    def append_row_values(
        self,
        values: Sequence[Any],
        confs: Optional[Sequence[Optional[float]]] = None,
    ) -> CTuple:
        """Fast-path insert of one row given schema-order value (and
        confidence) sequences — the bulk-load primitive behind CSV reads
        and the benchmarks.  Values are trusted (no per-attribute
        validation beyond the length check); the fresh tid is assigned
        as usual and insert observers fire.
        """
        names = self.schema.names
        if len(values) != len(names):
            raise DataError(
                f"expected {len(names)} values for schema "
                f"{self.schema.name!r}, got {len(values)}"
            )
        if confs is None:
            confs = [None] * len(names)
        elif len(confs) != len(names):
            raise DataError(
                f"expected {len(names)} confidences for schema "
                f"{self.schema.name!r}, got {len(confs)}"
            )
        tid = self._next_tid
        store = self._columns
        if store is None:
            resident = CTuple.__new__(CTuple)
            resident.schema = self.schema
            resident.tid = tid
            resident._values = dict(zip(names, values))
            resident._conf = dict(zip(names, confs))
        else:
            try:
                row = store.append_values(tid, values, confs)
            except TypeError:  # interning met an unhashable value
                for name, value in zip(names, values):
                    require_atom(value, tid, name)
                raise
            resident = ColumnTuple.make(store, row, tid)
        self._tuples[tid] = resident
        self._next_tid = tid + 1
        for observer in self._insert_observers:
            observer(resident)
        return resident

    def remove(self, tid: int) -> CTuple:
        """Delete the tuple with identifier *tid*, notifying observers.

        Tids are never reused: ``_next_tid`` stays monotonic *and* the
        removed tid is retired, so a later :meth:`add` — even one passing
        the same tid explicitly — cannot alias the dead tuple (it gets a
        fresh tid instead).  Returns the removed tuple (its values stay
        intact, which delete observers rely on to locate the tuple in
        their structures).
        """
        try:
            t = self._tuples.pop(tid)
        except KeyError:
            raise DataError(f"relation {self.schema.name!r} has no tuple #{tid}") from None
        self._retired.add(tid)
        store = self._columns
        if store is not None and not store.shared:
            # Tombstone the row, then re-home the popped view onto a
            # private single-row store: a later compaction rewrites this
            # relation's columns in place, so a handle still reading the
            # parent store would silently pick up another tuple's cells.
            # Shared stores (zero-copy restrict views) are left alone:
            # killing the row would tombstone it for the other owner too,
            # which only *reads* the restriction — removing from a view
            # must never mutate the parent's columns.
            store.kill(tid)
            t = self._detach_view(t)
            if store.should_compact():
                self._compact_columns()
        for observer in self._delete_observers:
            observer(t)
        return t

    def _detach_view(self, t: CTuple) -> CTuple:
        """Re-home a popped row-view onto a private single-row store so
        its cells survive compaction of this relation's columns."""
        if not isinstance(t, ColumnTuple):
            return t
        solo = ColumnStore(self.schema, t._store.table)
        t._row = solo.adopt_row(t.tid, t._store, t._row)
        t._store = solo
        return t

    def _compact_columns(self) -> None:
        """Compact the backing store and re-point resident row-views:
        rows follow iteration order afterwards, which is what the
        contiguous case of :meth:`_live_rows` relies on."""
        self._columns.compact(*self._live_rows())
        for row, t in enumerate(self._tuples.values()):
            t._row = row

    def compact(self, force: bool = False) -> bool:
        """Reclaim tombstoned rows in the backing columns.

        Returns whether a compaction ran.  No-op for dict-backed
        relations, for shared stores (zero-copy views — neither owner
        may move the other's rows), and — unless *force* — below the
        auto-trigger thresholds (:data:`repro.relational.columns.COMPACT_MIN_ROWS`
        rows, live ratio under
        :data:`repro.relational.columns.COMPACT_LIVE_RATIO`).  Tids,
        values, confidences and iteration order are all unchanged; only
        physical row indexes move, invisibly behind the tuple API.
        """
        store = self._columns
        if store is None or store.shared:
            return False
        if not force and not store.should_compact():
            return False
        self._compact_columns()
        return True

    def tid_retired(self, tid: int) -> bool:
        """Whether *tid* belonged to a tuple that was removed (such tids
        are never assigned again)."""
        return tid in self._retired

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def by_tid(self, tid: int) -> CTuple:
        """Return the tuple with identifier *tid*."""
        try:
            return self._tuples[tid]
        except KeyError:
            raise DataError(f"relation {self.schema.name!r} has no tuple #{tid}") from None

    def has_tid(self, tid: int) -> bool:
        """Whether a tuple with identifier *tid* is currently present."""
        return tid in self._tuples

    def tids(self) -> Tuple[int, ...]:
        """All tuple identifiers, in insertion order."""
        return tuple(self._tuples.keys())

    def tuples(self) -> List[CTuple]:
        """All tuples, in insertion order (a fresh list)."""
        return list(self._tuples.values())

    def __iter__(self) -> Iterator[CTuple]:
        return iter(self._tuples.values())

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, t: object) -> bool:
        if isinstance(t, CTuple):
            return t.tid in self._tuples and self._tuples[t.tid] is t
        return False

    # ------------------------------------------------------------------
    # Mutation with change notification
    # ------------------------------------------------------------------
    def add_observer(self, observer: Callable[[CTuple, str, Any, Any], None]) -> None:
        """Register *observer* for cell-change notifications.

        Observers are callables ``(t, attr, old_value, new_value)`` invoked
        *after* the tuple has been mutated by :meth:`set_value`.  They must
        not mutate the relation re-entrantly.
        """
        if observer not in self._observers:
            self._observers.append(observer)

    def remove_observer(self, observer: Callable[[CTuple, str, Any, Any], None]) -> None:
        """Unregister *observer* (a no-op when it was never registered)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def add_insert_observer(self, observer: Callable[[CTuple], None]) -> None:
        """Register *observer* for tuple inserts (called after :meth:`add`)."""
        if observer not in self._insert_observers:
            self._insert_observers.append(observer)

    def remove_insert_observer(self, observer: Callable[[CTuple], None]) -> None:
        """Unregister an insert observer (no-op when never registered)."""
        try:
            self._insert_observers.remove(observer)
        except ValueError:
            pass

    def add_delete_observer(self, observer: Callable[[CTuple], None]) -> None:
        """Register *observer* for tuple deletes (called after :meth:`remove`
        with the removed tuple, whose cell values are still intact)."""
        if observer not in self._delete_observers:
            self._delete_observers.append(observer)

    def remove_delete_observer(self, observer: Callable[[CTuple], None]) -> None:
        """Unregister a delete observer (no-op when never registered)."""
        try:
            self._delete_observers.remove(observer)
        except ValueError:
            pass

    def set_value(self, t: CTuple, attr: str, value: Any) -> bool:
        """Assign ``t[attr] := value`` in place, notifying observers.

        All cell updates made by the cleaning algorithms go through this
        method so that incrementally maintained indexes see every change.
        Returns whether the value actually changed; observers only fire
        on a real change.  Confidence is metadata — set it separately via
        ``t.set_conf`` (indexes never depend on it).  An unhashable value
        raises :class:`~repro.exceptions.DataError` and changes nothing
        (:func:`~repro.relational.attribute.require_atom`).
        """
        old = t[attr]
        if not cell_changed(old, value):
            return False
        if self._columns is None:
            require_atom(value, t.tid, attr)
            t[attr] = value
        else:
            try:
                t[attr] = value
            except TypeError:  # interning met an unhashable value
                require_atom(value, t.tid, attr)
                raise
        for observer in self._observers:
            observer(t, attr, old, value)
        return True

    # ------------------------------------------------------------------
    # Algebra-flavoured helpers (Fig. 3 of the paper)
    # ------------------------------------------------------------------
    def select(self, predicate: Callable[[CTuple], bool]) -> List[CTuple]:
        """ρ: the tuples satisfying *predicate* (no copy)."""
        return [t for t in self if predicate(t)]

    def _live_rows(self) -> Tuple[List[int], Optional[List[int]]]:
        """``(tids, rows)`` for columnar scans.

        ``rows is None`` signals the contiguous fast path: the store is
        fully live (no tombstones) and this relation owns every row, so
        column ``.data`` arrays align 1:1 with ``tids`` and can be zipped
        at C speed.  Otherwise ``rows[i]`` is the store row of
        ``tids[i]`` (shared stores, tombstoned rows).  Correctness never
        depends on the dead bitmap — scans are always driven by this
        relation's resident tuples.
        """
        store = self._columns
        tids = list(self._tuples.keys())
        if store.n_dead == 0 and len(store.row_tids) == len(tids):
            return tids, None
        return tids, [t._row for t in self._tuples.values()]

    def _value_columns(self, attrs: Sequence[str]) -> List[Sequence[int]]:
        """The raw ref arrays of *attrs* (columnar relations only)."""
        store = self._columns
        index_of = store.index_of
        return [store.values[index_of[a]].data for a in attrs]

    def project(self, attrs: Sequence[str]) -> Set[Tuple[Any, ...]]:
        """π: the set of distinct value tuples over *attrs*."""
        self.schema.check_attrs(attrs)
        store = self._columns
        if store is None:
            return {t.project(attrs) for t in self}
        # Dedup on ref tuples (int compares), materialize values once per
        # distinct ref combination.
        values = store.table.values
        cols = self._value_columns(attrs)
        tids, rows = self._live_rows()
        out: Set[Tuple[Any, ...]] = set()
        seen: Set[Tuple[int, ...]] = set()
        if rows is None:
            for refs in zip(*cols):
                if refs not in seen:
                    seen.add(refs)
                    out.add(tuple(values[r] for r in refs))
        else:
            for row in rows:
                refs = tuple(col[row] for col in cols)
                if refs not in seen:
                    seen.add(refs)
                    out.add(tuple(values[r] for r in refs))
        return out

    def group_by(self, attrs: Sequence[str]) -> Dict[Tuple[Any, ...], List[CTuple]]:
        """Partition tuples by their values on *attrs*.

        This materializes the paper's ``Δ(ȳ) = {t | t ∈ D, t[Y] = ȳ}``
        for every ``ȳ`` at once.
        """
        self.schema.check_attrs(attrs)
        store = self._columns
        groups: Dict[Tuple[Any, ...], List[CTuple]] = {}
        if store is None:
            for t in self:
                groups.setdefault(t.project(attrs), []).append(t)
            return groups
        values = store.table.values
        cols = self._value_columns(attrs)
        residents = list(self._tuples.values())
        tids, rows = self._live_rows()
        # Ref-tuple -> member list of its (==)-keyed group, so the value
        # tuple is materialized once per distinct ref combination while
        # group identity keeps dict (==) semantics.
        by_refs: Dict[Tuple[int, ...], List[CTuple]] = {}
        if rows is None:
            packed = zip(residents, *cols)
        else:
            packed = (
                (t, *(col[row] for col in cols))
                for t, row in zip(residents, rows)
            )
        for item in packed:
            t = item[0]
            refs = item[1:]
            members = by_refs.get(refs)
            if members is None:
                key = tuple(values[r] for r in refs)
                members = by_refs[refs] = groups.setdefault(key, [])
            members.append(t)
        return groups

    def active_domain(self, attr: str) -> Set[Any]:
        """``adom(attr)``: the set of values of *attr* occurring in the data."""
        self.schema.check_attrs([attr])
        store = self._columns
        if store is None:
            return {t[attr] for t in self}
        values = store.table.values
        data = store.values[store.index_of[attr]].data
        tids, rows = self._live_rows()
        out: Set[Any] = set()
        seen: Set[int] = set()
        if rows is None:
            for ref in data:
                if ref not in seen:
                    seen.add(ref)
                    out.add(values[ref])
        else:
            for row in rows:
                ref = data[row]
                if ref not in seen:
                    seen.add(ref)
                    out.add(values[ref])
        return out

    # ------------------------------------------------------------------
    # Bulk ref-level accessors (columnar backing store)
    # ------------------------------------------------------------------
    def _require_columns(self) -> ColumnStore:
        if self._columns is None:
            raise DataError(
                f"relation {self.schema.name!r} is dict-backed; "
                "ref-level accessors need a columnar relation"
            )
        return self._columns

    def column(self, attr: str) -> List[int]:
        """The interned value refs of *attr*, aligned with :meth:`tids`."""
        self.schema.check_attrs([attr])
        store = self._require_columns()
        data = store.values[store.index_of[attr]].data
        tids, rows = self._live_rows()
        if rows is None:
            return list(data)
        return [data[row] for row in rows]

    # ------------------------------------------------------------------
    # Copying / comparison
    # ------------------------------------------------------------------
    def clone(self) -> "Relation":
        """A deep copy sharing the schema but owning fresh tuples.

        Tids are preserved so fixes can be traced back to original tuples.
        A columnar clone is dense: tombstones and stale duplicate rows are
        left behind (:meth:`~repro.relational.columns.ColumnStore.gather`).
        """
        twin = Relation(self.schema, columnar=False)
        if self._columns is not None:
            # Dense rebuild: one column gather (refs are copied, never
            # re-interned) and a fresh row-view per tid.
            twin._adopt_columns(self._columns.gather(*self._live_rows()))
        else:
            for t in self:
                twin._tuples[t.tid] = t.clone()  # keep identical tids
        twin._next_tid = self._next_tid
        twin._retired = set(self._retired)
        return twin

    def _adopt_columns(self, store: ColumnStore) -> None:
        """Back this (empty) relation by the dense private *store*, one
        row-view per store row, in row order."""
        self._columns = store
        make = ColumnTuple.make
        self._tuples = {
            tid: make(store, row, tid) for row, tid in enumerate(store.row_tids)
        }

    def restrict(self, tids: Iterable[int], copy: bool = True) -> "Relation":
        """A clone containing only the tuples named by *tids*.

        Tids, tid bookkeeping (``_next_tid``, retired tids) and relative
        insertion order are preserved, so cleaning a restriction produces
        fixes addressed exactly like a clean of the full relation — the
        shard construction primitive of
        :mod:`repro.pipeline.sharding`.  Unknown tids raise
        :class:`~repro.exceptions.DataError`.

        ``copy=False`` shares the tuple objects instead of cloning them —
        a zero-copy *view* for consumers that only read the restriction
        (or clone it themselves, as ``CleaningSession.clean`` does):
        mutating a shared tuple mutates both relations.  For columnar
        relations this shares the backing columns too — the twin holds
        the same store and the same row-views, no refs are copied.
        """
        wanted = set(tids)
        missing = wanted - self._tuples.keys()
        if missing:
            raise DataError(
                f"relation {self.schema.name!r} has no tuple "
                f"#{min(missing)} to restrict to"
            )
        columnar = self._columns is not None
        twin = Relation(self.schema, columnar=False)
        if not columnar:
            for tid, t in self._tuples.items():
                if tid in wanted:
                    twin._tuples[tid] = t.clone() if copy else t
        elif copy:
            kept = [tid for tid in self._tuples if tid in wanted]
            rows = [self._tuples[tid]._row for tid in kept]
            twin._adopt_columns(self._columns.gather(kept, rows))
        else:
            twin._columns = self._columns  # shared columns, shared views
            # Mark the store shared: from now on neither owner may
            # tombstone or compact rows the other might still hold.
            self._columns.shared = True
            for tid, t in self._tuples.items():
                if tid in wanted:
                    twin._tuples[tid] = t
        twin._next_tid = self._next_tid
        twin._retired = set(self._retired)
        return twin

    def diff(self, other: "Relation") -> List[Tuple[int, str, Any, Any]]:
        """Cell-level difference against *other* (matched by tid).

        Returns a list of ``(tid, attr, self_value, other_value)`` entries
        for cells where the two relations disagree.  Tuples present in only
        one relation are ignored (cleaning never inserts or deletes rows).
        """
        if self.schema != other.schema:
            raise DataError("cannot diff relations with different schemas")
        out: List[Tuple[int, str, Any, Any]] = []
        for tid, mine in self._tuples.items():
            if tid not in other._tuples:
                continue
            theirs = other._tuples[tid]
            for attr in self.schema.names:
                if mine[attr] != theirs[attr]:
                    out.append((tid, attr, mine[attr], theirs[attr]))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.schema.name!r}, {len(self)} tuples)"

    # ------------------------------------------------------------------
    # Pretty-printing (used by examples)
    # ------------------------------------------------------------------
    def to_text(self, attrs: Optional[Sequence[str]] = None, limit: int = 20) -> str:
        """Render the relation as an aligned text table (first *limit* rows)."""
        names = list(attrs) if attrs is not None else list(self.schema.names)
        rows = [[str(t[a]) for a in names] for t in list(self)[:limit]]
        header = list(names)
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(names))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        if len(self) > limit:
            lines.append(f"... ({len(self) - limit} more rows)")
        return "\n".join(lines)
