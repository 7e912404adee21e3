"""The scoped apply is delta-proportional: its Python work does not grow
with the relation.

PART blocks are generated independently, so block 0 — its tuples, their
rule neighbourhoods and the fixes they carry — is the same whether the
testbed has 2 blocks or 8.  A single-cell edit in block 0 must then run
exactly the same Python lines at both sizes: any pass over the relation,
the group stores or the fix log (an entropy tree rebuilt per apply, a
per-tuple table, a log re-recorded or rescanned) shows up as extra line
events at 8 blocks.  Counting ``sys.settrace`` line events makes the gate
deterministic: no wall clock is read.  C-level container copies (the
pruned log, the cost sum) are not line events; docs/architecture.md
names them.
"""

import gc
import sys

from repro.core import UniCleanConfig
from repro.datasets import generate_partitioned
from repro.pipeline import Changeset, CleaningSession

BLOCK_ROWS = 250

#: Single-cell edits in block 0: ``cat`` takes another block-0 tuple's
#: category, ``score`` a fresh score.
EDITS = [
    (3, "cat", 4), (5, "cat", 6), (11, "cat", 12), (33, "cat", 34),
    (7, "score", "17"), (20, "score", "58"),
]


def _line_events(fn):
    """``fn()`` and the number of Python line events it executed.

    The garbage collector is drained first and paused while tracing: a
    collection could otherwise run some earlier test's Python-level
    finalizers inside ``fn`` and count their lines.
    """
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    gc.collect()
    gc.disable()
    sys.settrace(lambda frame, event, arg: local)
    try:
        out = fn()
    finally:
        sys.settrace(None)
        gc.enable()
    return out, count


def _apply_events(blocks):
    """Per edit: (scoped?, line events) on a PART session of *blocks*."""
    ds = generate_partitioned(size=BLOCK_ROWS * blocks, n_blocks=blocks, seed=1)
    rows = {t.tid: t.as_dict() for t in ds.dirty}
    session = CleaningSession(
        cfds=ds.cfds, mds=ds.mds, master=ds.master, config=UniCleanConfig()
    )
    session.clean(ds.dirty)
    # The first apply after a clean builds the base-side group stores,
    # which is O(|D|) by design.
    session.apply(Changeset().edit(1, "score", "42"))
    out = []
    for tid, attr, value in EDITS:
        if attr == "cat":
            value = rows[value]["cat"]
        cs = Changeset().edit(tid, attr, value)
        result, events = _line_events(lambda: session.apply(cs))
        out.append((not result.full_reclean, events))
    session.close()
    return out


def test_scoped_apply_work_is_independent_of_relation_size():
    small = _apply_events(2)
    large = _apply_events(8)
    for (tid, attr, _v), (scoped_s, events_s), (scoped_l, events_l) in zip(
        EDITS, small, large
    ):
        assert scoped_s and scoped_l, f"edit of ({tid}, {attr}) was not scoped"
        assert events_l == events_s, (
            f"edit of ({tid}, {attr}): {events_s} line events at 2 blocks, "
            f"{events_l} at 8"
        )
