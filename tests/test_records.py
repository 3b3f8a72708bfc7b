"""Value semantics of every record: equality and hash over the fields, only
within one class; immutability; the repr the error texts embed."""

from fractions import Fraction

import pytest

from perdom import checks  # noqa: F401  (loads every module that defines a record)
from perdom.cohomology import CohEntry, CohTable, RepLabel, VanishingReport
from perdom.complexes import KComplexReport, StalkReport
from perdom.exactalg.gf import make_field
from perdom.exactalg.rational import ChainComplexQ, MatrixQ
from perdom.exactalg.subspaces import SubspaceGF
from perdom.flagenum import CountReport, enumerate_flags
from perdom.records import Record
from perdom.slopes import (
    ClosedFamily, FilteredSpace, SlopeFunction, Subfunction, drinfeld, scaled_degrees,
)
from perdom.weyl import ParabolicType

GF2 = make_field(2, 1)
P = ParabolicType(3, (1,))
G = drinfeld(3)
FLAG = next(enumerate_flags(G, 2, 1))
SS = ClosedFamily.semistable()

# each record class with the field values of one instance, in field order
RECORDS = {
    ParabolicType: (3, (1,)),
    SubspaceGF: (GF2, 3, FLAG.members[0].basis),
    MatrixQ: (0, 2, ()),
    ChainComplexQ: ((1,), ()),
    SlopeFunction: (G.pairs,),
    Subfunction: ((Fraction(2), Fraction(-1)),),
    ClosedFamily: (Fraction(1, 3), False),
    FilteredSpace: (GF2, G, FLAG.members),
    CountReport: (7, 3, 4),
    RepLabel: ("induced", P),
    CohEntry: ((2, 1, 3), 1, P, (2,), 3, -1, RepLabel("steinberg_quotient", P)),
    CohTable: ("open", G, SS, ()),
    VanishingReport: (True, 2, ()),
    KComplexReport: (P, 2, (1, 2), (0, 1), 1, True),
    StalkReport: (True, (0, 0), True),
}


def test_every_record_class_is_covered():
    defined = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("perdom.")}
    assert defined == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_values_of_their_fields(cls):
    values = RECORDS[cls]
    a, b = cls(*values), cls(**dict(zip(cls._fields, values)))
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert a != values and values != a
    twin = type("Twin", (Record,), {
        "_fields": cls._fields,
        "__init__": lambda self, *vs: self.__dict__.update(zip(cls._fields, vs)),
    })(*values)
    assert a != twin and twin != a
    assert repr(a) == repr(b) and repr(a).startswith(f"{cls.__name__}({cls._fields[0]}=")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    rec = cls(*RECORDS[cls])
    for name in (*cls._fields, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert tuple(getattr(rec, name) for name in cls._fields) == RECORDS[cls]


@pytest.mark.parametrize("rec,text", [
    (P, "ParabolicType(d=3, gens=(1,))"),
    (SS, "ClosedFamily(threshold=Fraction(0, 1), strict=True)"),
    (RepLabel("induced", P), "RepLabel(kind='induced', parabolic=ParabolicType(d=3, gens=(1,)))"),
    (SubspaceGF.full(GF2, 2), "SubspaceGF(field=GF(2), ambient_dim=2, basis=((1, 0), (0, 1)))"),
])
def test_repr_reads_as_before(rec, text):
    assert repr(rec) == text


def test_stores_and_caches_take_no_part():
    # a filled meet store or type cache leaves eq, hash and repr as they were
    filled, fresh = FilteredSpace(GF2, G, FLAG.members), FilteredSpace(GF2, G, FLAG.members)
    scaled_degrees(filled)  # fills its store's rows
    assert filled.store.entries != fresh.store.entries
    assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)
    assert "store" not in repr(filled)
    used, unused = drinfeld(3), drinfeld(3)
    used.type_of((1, 0))
    assert used._types and not unused._types
    assert used == unused and hash(used) == hash(unused) and repr(used) == repr(unused)
    assert "_types" not in repr(used)
