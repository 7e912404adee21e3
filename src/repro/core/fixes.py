"""Fix bookkeeping: the three accuracy classes and the fix log.

UniClean marks every cell it changes with one of three signs
(Section 3.2): **deterministic** (confidence-based, Section 5),
**reliable** (entropy-based, Section 6) or **possible** (heuristic,
Section 7).  :class:`FixLog` records every change, preserves the latest
mark per cell, and exposes the protected-cell set hRepair must keep
unchanged (Corollary 7.1).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.constraints.rules import RuleApplication


class FixKind(enum.Enum):
    """Accuracy class of a fix, in decreasing order of accuracy."""

    DETERMINISTIC = "deterministic"
    RELIABLE = "reliable"
    POSSIBLE = "possible"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Fix:
    """One marked cell update.

    Wraps a :class:`~repro.constraints.rules.RuleApplication` (or a
    synthetic update from hRepair's equivalence-class resolution) with its
    accuracy class.
    """

    kind: FixKind
    rule_name: str
    tid: int
    attr: str
    old_value: Any
    new_value: Any
    old_conf: Optional[float]
    new_conf: Optional[float]
    source: Union[str, int]

    @staticmethod
    def from_application(kind: FixKind, application: RuleApplication) -> "Fix":
        """Promote a rule application record into a marked fix."""
        return Fix(
            kind=kind,
            rule_name=application.rule_name,
            tid=application.tid,
            attr=application.attr,
            old_value=application.old_value,
            new_value=application.new_value,
            old_conf=application.old_conf,
            new_conf=application.new_conf,
            source=application.source,
        )

    @property
    def cell(self) -> Tuple[int, str]:
        """The ``(tid, attr)`` cell this fix updates."""
        return (self.tid, self.attr)


class FixLog:
    """Ordered record of all fixes made during a cleaning run.

    The log keeps every fix (a cell may be updated several times across
    phases) and tracks the *latest* mark per cell — the sign the user sees
    in the final repair.

    Besides the ordered fixes it maintains, as it records, the views a
    :class:`~repro.pipeline.session.CleaningSession` reads on every
    apply — the deterministic cells, the ``(attr, new value)`` pairs the
    log wrote, and each cell's fixes — so those reads are lookups and a
    splice (:meth:`without_cells`, :meth:`without_tids`) visits only the
    removed fixes.
    """

    def __init__(self) -> None:
        self._fixes: List[Fix] = []
        #: Record number of each entry of ``_fixes``.  Strictly increasing,
        #: so an entry's position is one bisection away, and it survives
        #: splices (a pruned log keeps its survivors' numbers).
        self._seqs: List[int] = []
        self._next_seq = 0
        self._latest: Dict[Tuple[int, str], Fix] = {}
        #: cell -> record numbers of its fixes, in log order.  Values are
        #: immutable, so a splice can share them with its parent log.
        self._cell_seqs: Dict[Tuple[int, str], Tuple[int, ...]] = {}
        #: tid -> attributes of its fixed cells (immutable values).
        self._tid_attrs: Dict[int, Tuple[str, ...]] = {}
        #: Cells whose latest mark is deterministic (a dict for its live
        #: key view).
        self._deterministic: Dict[Tuple[int, str], None] = {}
        #: (attr, new value) -> number of fixes writing it.
        self._written: Dict[Tuple[str, Any], int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, fix: Fix) -> Fix:
        """Append *fix* and update the per-cell mark."""
        cell = fix.cell
        seq = self._next_seq
        self._next_seq = seq + 1
        self._fixes.append(fix)
        self._seqs.append(seq)
        self._latest[cell] = fix
        seqs = self._cell_seqs.get(cell)
        if seqs is None:
            self._cell_seqs[cell] = (seq,)
            self._tid_attrs[fix.tid] = self._tid_attrs.get(fix.tid, ()) + (fix.attr,)
        else:
            self._cell_seqs[cell] = seqs + (seq,)
        if fix.kind is FixKind.DETERMINISTIC:
            self._deterministic[cell] = None
        else:
            self._deterministic.pop(cell, None)
        pair = (fix.attr, fix.new_value)
        self._written[pair] = self._written.get(pair, 0) + 1
        return fix

    def record_applications(
        self, kind: FixKind, applications: Iterable[RuleApplication]
    ) -> List[Fix]:
        """Record many rule applications under one accuracy class."""
        return [self.record(Fix.from_application(kind, app)) for app in applications]

    def copy(self) -> "FixLog":
        """An independent log with the same fixes and views (container
        copies only; the fixes themselves are immutable)."""
        twin = FixLog.__new__(FixLog)
        twin._fixes = self._fixes.copy()
        twin._seqs = self._seqs.copy()
        twin._next_seq = self._next_seq
        twin._latest = self._latest.copy()
        twin._cell_seqs = self._cell_seqs.copy()
        twin._tid_attrs = self._tid_attrs.copy()
        twin._deterministic = self._deterministic.copy()
        twin._written = self._written.copy()
        return twin

    def without_tids(self, tids: Iterable[int]) -> "FixLog":
        """The log with every fix touching one of *tids* removed.

        Used by :class:`~repro.pipeline.session.CleaningSession` when a
        changeset invalidates the history of the affected tuples: their
        fixes are replayed from scratch, everyone else's survive.  Order
        of the surviving fixes is preserved.  Returns this log itself
        when none of *tids* has a fix; otherwise a new log that shares no
        mutable state with this one, which stays unchanged.
        """
        tid_attrs = self._tid_attrs
        return self._without(
            [(tid, attr) for tid in tids for attr in tid_attrs.get(tid, ())]
        )

    def without_cells(self, cells: Iterable[Tuple[int, str]]) -> "FixLog":
        """The log with every fix to one of *cells* removed (the
        cell-granular counterpart of :meth:`without_tids`, used when a
        delta replay re-derives individual perturbed cells).  Returns
        this log itself when none of *cells* has a fix."""
        cell_seqs = self._cell_seqs
        return self._without([cell for cell in cells if cell in cell_seqs])

    def _without(self, cells: List[Tuple[int, str]]) -> "FixLog":
        """Splice out every fix of *cells* (distinct, each with a fix).

        Costs one container copy plus work proportional to the removed
        fixes.  Every fix of a removed cell goes, so each surviving
        cell's latest mark — and with it the deterministic view — is
        the parent's.
        """
        if not cells:
            return self
        seqs = self._seqs
        drop = sorted(
            bisect_left(seqs, seq) for cell in cells for seq in self._cell_seqs[cell]
        )
        pruned = self.copy()
        fixes = self._fixes
        kept: List[Fix] = []
        kept_seqs: List[int] = []
        start = 0
        for pos in drop:
            kept += fixes[start:pos]
            kept_seqs += seqs[start:pos]
            start = pos + 1
        kept += fixes[start:]
        kept_seqs += seqs[start:]
        pruned._fixes = kept
        pruned._seqs = kept_seqs
        written = pruned._written
        for pos in drop:
            fix = fixes[pos]
            pair = (fix.attr, fix.new_value)
            left = written[pair] - 1
            if left:
                written[pair] = left
            else:
                del written[pair]
        tid_attrs = pruned._tid_attrs
        for cell in cells:
            del pruned._latest[cell]
            del pruned._cell_seqs[cell]
            pruned._deterministic.pop(cell, None)
            tid, attr = cell
            rest = tuple(a for a in tid_attrs[tid] if a != attr)
            if rest:
                tid_attrs[tid] = rest
            else:
                del tid_attrs[tid]
        return pruned

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._fixes)

    def __iter__(self) -> Iterator[Fix]:
        return iter(self._fixes)

    def fixes(self, kind: Optional[FixKind] = None) -> List[Fix]:
        """All fixes, optionally filtered by accuracy class."""
        if kind is None:
            return list(self._fixes)
        return [f for f in self._fixes if f.kind is kind]

    def marked_cells(self, kind: Optional[FixKind] = None) -> Set[Tuple[int, str]]:
        """Cells whose *latest* mark has the given class (or any class)."""
        if kind is None:
            return set(self._latest)
        return {cell for cell, fix in self._latest.items() if fix.kind is kind}

    def mark_of(self, tid: int, attr: str) -> Optional[FixKind]:
        """The latest mark of cell ``(tid, attr)``, or ``None``."""
        fix = self._latest.get((tid, attr))
        return fix.kind if fix else None

    def latest_fix(self, tid: int, attr: str) -> Optional[Fix]:
        """The latest fix of cell ``(tid, attr)``, or ``None``."""
        return self._latest.get((tid, attr))

    def deterministic_cells(self) -> AbstractSet[Tuple[int, str]]:
        """Cells hRepair must preserve (Corollary 7.1): those whose
        latest mark is deterministic, as a live read-only set view."""
        return self._deterministic.keys()

    def fixed_cells(self) -> AbstractSet[Tuple[int, str]]:
        """Every cell with at least one fix, as a live read-only set view
        (the key set of :meth:`marked_cells` without the copy)."""
        return self._latest.keys()

    def written_pairs(self) -> AbstractSet[Tuple[str, Any]]:
        """Every ``(attr, new value)`` pair some fix wrote, as a live
        read-only set view.  Membership is dict-key equality: identity
        first, so one NaN object matches itself."""
        return self._written.keys()

    def counts(self) -> Dict[FixKind, int]:
        """Number of fixes per class (by event, not by cell)."""
        out = {kind: 0 for kind in FixKind}
        for fix in self._fixes:
            out[fix.kind] += 1
        return out

    def cell_counts(self) -> Dict[FixKind, int]:
        """Number of *cells* per latest mark."""
        out = {kind: 0 for kind in FixKind}
        for fix in self._latest.values():
            out[fix.kind] += 1
        return out

    def summary(self) -> str:
        """One-line human-readable summary."""
        cells = self.cell_counts()
        return (
            f"{len(self._fixes)} fixes over {len(self._latest)} cells "
            f"(deterministic={cells[FixKind.DETERMINISTIC]}, "
            f"reliable={cells[FixKind.RELIABLE]}, "
            f"possible={cells[FixKind.POSSIBLE]})"
        )


def rule_statistics(log: FixLog) -> Dict[str, Dict[str, int]]:
    """Per-rule fix statistics: how many fixes each rule contributed.

    Returns ``rule name → {"deterministic": n, "reliable": n,
    "possible": n, "total": n}``, useful for auditing which rules carry a
    cleaning workload (and which are dead weight worth pruning via the
    implication analysis).
    """
    out: Dict[str, Dict[str, int]] = {}
    for fix in log:
        stats = out.setdefault(
            fix.rule_name,
            {kind.value: 0 for kind in FixKind} | {"total": 0},
        )
        stats[fix.kind.value] += 1
        stats["total"] += 1
    return out


def format_fix_report(log: FixLog, limit: int = 0) -> str:
    """A human-readable audit report of a cleaning run.

    Lists per-rule statistics (sorted by contribution) and, when *limit*
    is positive, the first *limit* individual fixes with their provenance.
    """
    lines = [log.summary(), ""]
    stats = rule_statistics(log)
    if stats:
        lines.append("per-rule contribution:")
        for name, row in sorted(stats.items(), key=lambda kv: -kv[1]["total"]):
            lines.append(
                f"  {name}: {row['total']} fixes "
                f"(det={row['deterministic']}, rel={row['reliable']}, "
                f"pos={row['possible']})"
            )
    if limit > 0:
        lines.append("")
        lines.append("fixes:")
        for fix in list(log)[:limit]:
            lines.append(
                f"  [{fix.kind.value:>13}] t{fix.tid}.{fix.attr}: "
                f"{fix.old_value!r} -> {fix.new_value!r}  via {fix.rule_name}"
            )
        if len(log) > limit:
            lines.append(f"  ... ({len(log) - limit} more)")
    return "\n".join(lines)
