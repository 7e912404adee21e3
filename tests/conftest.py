"""Shared fixtures: the paper's running example (Fig. 1) and helpers."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import NULL, Relation, Schema, parse_rules
from repro.constraints import ParsedRules

# CI runs ``pytest --hypothesis-profile=ci``: every property test draws
# the same examples on every run, so a counterexample cannot pass one
# run and fail the next.
settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture(scope="session")
def tran_schema() -> Schema:
    """The transaction schema of Fig. 1(b)."""
    return Schema("tran", ["FN", "LN", "St", "city", "AC", "post", "phn", "gd"])


@pytest.fixture(scope="session")
def card_schema() -> Schema:
    """The master card schema of Fig. 1(a)."""
    return Schema("card", ["FN", "LN", "St", "city", "AC", "zip", "tel", "dob", "gd"])


@pytest.fixture()
def master_card(card_schema: Schema) -> Relation:
    """Master data Dm = {s1, s2} of Fig. 1(a)."""
    return Relation.from_dicts(
        card_schema,
        [
            dict(
                FN="Mark", LN="Smith", St="10 Oak St", city="Edi", AC="131",
                zip="EH8 9LE", tel="3256778", dob="10/10/1987", gd="Male",
            ),
            dict(
                FN="Robert", LN="Brady", St="5 Wren St", city="Ldn", AC="020",
                zip="WC1H 9SE", tel="3887644", dob="12/08/1975", gd="Male",
            ),
        ],
    )


@pytest.fixture()
def dirty_tran(tran_schema: Schema) -> Relation:
    """Dirty data D = {t1..t4} of Fig. 1(b), with the cf annotations."""
    rows = [
        dict(FN="M.", LN="Smith", St="10 Oak St", city="Ldn", AC="131",
             post="EH8 9LE", phn="9999999", gd="Male"),
        dict(FN="Max", LN="Smith", St="Po Box 25", city="Edi", AC="131",
             post="EH8 9AB", phn="3256778", gd="Male"),
        dict(FN="Bob", LN="Brady", St="5 Wren St", city="Edi", AC="020",
             post="WC1H 9SE", phn="3887834", gd="Male"),
        dict(FN="Robert", LN="Brady", St=NULL, city="Ldn", AC="020",
             post="WC1E 7HX", phn="3887644", gd="Male"),
    ]
    confs = [
        dict(FN=0.9, LN=1.0, St=0.9, city=0.5, AC=0.9, post=0.9, phn=0.0, gd=0.8),
        dict(FN=0.7, LN=1.0, St=0.5, city=0.9, AC=0.7, post=0.6, phn=0.8, gd=0.8),
        dict(FN=0.6, LN=1.0, St=0.9, city=0.2, AC=0.9, post=0.8, phn=0.9, gd=0.8),
        dict(FN=0.7, LN=1.0, St=0.0, city=0.5, AC=0.7, post=0.3, phn=0.7, gd=0.8),
    ]
    return Relation.from_dicts(tran_schema, rows, confs)


RULES_TEXT = """
cfd tran: AC='131' -> city='Edi' @phi1
cfd tran: AC='020' -> city='Ldn' @phi2
cfd tran: city, phn -> St, AC, post @phi3
cfd tran: FN='Bob' -> FN='Robert' @phi4
md tran~card: LN=LN, city=city, St=St, post=zip, FN ~edit<=3 FN -> FN=FN, phn=tel @psi
nmd tran~card: gd!=gd -> FN=FN, phn=tel @psi_neg
"""


@pytest.fixture()
def paper_rules(tran_schema: Schema, card_schema: Schema) -> ParsedRules:
    """The rules φ1–φ4, ψ and the negative gender MD of Example 1.1/2.4."""
    return parse_rules(RULES_TEXT, {"tran": tran_schema, "card": card_schema})
