"""The value semantics of the package's records: equality, hashing, immutability."""

import copy
import inspect
import pickle

import pytest

from p1dyn.bounds import aggregate_bounds
from p1dyn.magnitude import Magnitude, exact, exp_of, max_of, power, prod_of, sum_of
from p1dyn.mapparse import parse_map
from p1dyn.orbits import (DynamicalInventory, OrbitClassification, classify_point,
                          enumerate_preperiodic)
from p1dyn.projline import ProjPoint
from p1dyn.ratmap import PlaceSet, ReductionProfile, escape_threshold, reduction_profile
from p1dyn.verify import VerificationReport


def test_equality_is_type_sensitive():
    # records of two classes with equal fields, or a record and its field, never compare equal
    places = frozenset({2})
    assert Magnitude(places) != PlaceSet(places) and PlaceSet(places) == PlaceSet(places)
    assert Magnitude(((1, (), 2),)) == exp_of(2)
    assert exact(2) != 2 and exact(2) != exact(2).terms and ProjPoint(1, 2) != (1, 2)


def test_equal_magnitudes_hash_equal_in_any_argument_order():
    a, b, c = exp_of(3), power(exact(10), 2 * 10**6), exact(7)
    for build in (sum_of, prod_of, max_of):
        m, n = build(a, b, c), build(c, b, a)
        assert m == n and hash(m) == hash(n)
    assert len({sum_of(a, b), sum_of(b, a), prod_of(a, b), prod_of(b, a)}) == 2
    cached, fresh = aggregate_bounds(2, 1), aggregate_bounds.__wrapped__(2, 1)
    assert fresh is not cached and list(fresh) == list(cached)
    for label, m in cached.items():
        assert fresh[label] == m and hash(fresh[label]) == hash(m), label


def test_pair_equality_and_hash_ignore_the_source_text():
    short, bracket = parse_map("z^2-29/16"), parse_map("[16*X^2-29*Y^2:16*Y^2]")
    assert (short.source, bracket.source) == ("z^2-29/16", "[16*X^2-29*Y^2:16*Y^2]")
    assert short == bracket and hash(short) == hash(bracket)
    assert (short.resultant, short.threshold) == (bracket.resultant, bracket.threshold)
    assert escape_threshold(short) == escape_threshold(bracket)


def test_pair_copies_keep_the_derived_fields():
    for text in ("[X^3+2*Y^3:X*Y^2]", "z^2-29/16", "z+1"):
        pair = parse_map(text)
        for twin in (copy.copy(pair), copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
            assert twin == pair and twin.source == pair.source == text
            assert (twin.resultant, twin.threshold) == (pair.resultant, pair.threshold), text


def test_assignment_is_refused():
    records = [(ProjPoint(1, 2), "y"), (parse_map("z^2-1"), "source"), (exact(5), "terms"),
               (exp_of(3), "ln"), (PlaceSet(frozenset({2})), "finite"),
               (VerificationReport("demo", "PASS"), "status")]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_inventories_compare_by_value():
    pair = parse_map("z^2-29/16")
    one = enumerate_preperiodic(pair, 16)
    two = enumerate_preperiodic(parse_map("[16*X^2-29*Y^2:16*Y^2]"), 16)
    assert one is not two and one == two
    assert one != enumerate_preperiodic(pair, 8)
    assert one != enumerate_preperiodic(parse_map("z^2-1"), 16)


def test_defaults_repr_and_copies():
    report = VerificationReport("demo", "PASS")
    assert (report.reason, report.witnesses, report.parameters) == ("", (), ())
    bare = OrbitClassification("undecided", (ProjPoint(0, 1),))
    assert (bare.period, bare.tail_length, bare.cycle, bare.steps) == (None, None, None, None)
    orbit = classify_point(parse_map("z^2-1"), ProjPoint(0, 1))
    assert (orbit.kind, orbit.period, orbit.tail_length) == ("periodic", 2, 0)
    assert repr(exact(5)) == "Magnitude(terms=((5, (), 0),))"
    assert repr(report) == ("VerificationReport(check_name='demo', status='PASS', "
                            "reason='', witnesses=(), parameters=())")
    profile = reduction_profile(parse_map("z^2-29/16"))
    for record in (profile, report, orbit, sum_of(exp_of(3), exact(2))):
        assert copy.copy(record) == record and copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


# the constructors Record generates from __slots__ and _defaults: the parameter names,
# order and defaults each class's handwritten __init__ had
_GENERATED = {
    OrbitClassification:
        "(kind, trajectory, period=None, tail_length=None, cycle=None, steps=None)",
    DynamicalInventory: "(pair, search_height, max_iters, preper, per, tail, per0, cycles, "
                        "tails_by_target, tail_lengths, image, incomplete, undecided, starts)",
    VerificationReport: "(check_name, status, reason='', witnesses=(), parameters=())",
    PlaceSet: "(finite)",
    ReductionProfile: "(resultant, bad_primes, places)",
    Magnitude: "(terms)",
}


def test_generated_constructors_keep_their_signatures():
    assert {cls: str(inspect.signature(cls)) for cls in _GENERATED} == _GENERATED
    with pytest.raises(TypeError, match=r"^Magnitude\.__init__\(\) missing 1 required"):
        Magnitude()


def test_generated_records_copy_pickle_and_print_every_field():
    pair = parse_map("z^2-1")
    records = [classify_point(pair, ProjPoint(0, 1)), enumerate_preperiodic(pair, 1),
               VerificationReport("demo", "FAIL", "why", (1,), (("d", "2"),)),
               PlaceSet(frozenset({2})), reduction_profile(parse_map("z^2-29/16")), exact(5)]
    assert [type(r) for r in records] == list(_GENERATED)
    for record in records:
        fields = [getattr(record, name) for name in record.__slots__]
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record
            assert [getattr(twin, name) for name in twin.__slots__] == fields
    orbit, inventory, report, places, profile, magnitude = map(repr, records)
    assert orbit == ("OrbitClassification(kind='periodic', trajectory=(ProjPoint(0, 1), "
                     "ProjPoint(-1, 1)), period=2, tail_length=0, cycle=(ProjPoint(0, 1), "
                     "ProjPoint(-1, 1)), steps=2)")
    assert inventory.startswith("DynamicalInventory(pair=HomogPair(degree=2, a=(1, 0, -1), ")
    assert inventory.endswith(", incomplete=False, undecided=(), starts=4)")
    assert report == ("VerificationReport(check_name='demo', status='FAIL', reason='why', "
                      "witnesses=(1,), parameters=(('d', '2'),))")
    assert places == "PlaceSet(finite=frozenset({2}))"
    assert profile == ("ReductionProfile(resultant=65536, bad_primes=(2,), "
                       "places=PlaceSet(finite=frozenset({2})))")
    assert magnitude == "Magnitude(terms=((5, (), 0),))"
