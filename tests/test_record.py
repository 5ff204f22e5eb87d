"""The value semantics of the package's records: equality, hashing, immutability."""

import copy
import pickle

import pytest

from p1dyn import ratmap
from p1dyn.bounds import tail_bounds
from p1dyn.magnitude import (MaxOf, Prod, Sum, exact, exp_of, max_of, power, prod_of,
                             sum_of)
from p1dyn.mapparse import parse_map
from p1dyn.orbits import OrbitClassification, classify_point, enumerate_preperiodic
from p1dyn.projline import ProjPoint
from p1dyn.ratmap import PlaceSet, escape_threshold, reduction_profile
from p1dyn.verify import VerificationReport


def test_equality_is_type_sensitive():
    parts = (exp_of(3), power(exact(10), 2 * 10**6))
    nodes = [Sum(parts), Prod(parts), MaxOf(parts)]
    for i, m in enumerate(nodes):
        for j, n in enumerate(nodes):
            assert (m == n) == (i == j)
    assert Sum(parts) == Sum(tuple(parts))
    assert exact(2) != 2 and ProjPoint(1, 2) != (1, 2)


def test_equal_magnitudes_hash_equal_in_any_argument_order():
    a, b, c = exp_of(3), power(exact(10), 2 * 10**6), exact(7)
    for build in (sum_of, prod_of, max_of):
        m, n = build(a, b, c), build(c, b, a)
        assert m == n and hash(m) == hash(n)
    assert len({sum_of(a, b), sum_of(b, a), prod_of(a, b), prod_of(b, a)}) == 2
    cached, fresh = tail_bounds(2, 1), tail_bounds.__wrapped__(2, 1)
    assert fresh is not cached and fresh == cached and hash(fresh) == hash(cached)


def test_pair_equality_and_hash_ignore_the_source_text():
    short, bracket = parse_map("z^2-29/16"), parse_map("[16*X^2-29*Y^2:16*Y^2]")
    assert (short.source, bracket.source) == ("z^2-29/16", "[16*X^2-29*Y^2:16*Y^2]")
    assert short == bracket and hash(short) == hash(bracket)
    ratmap._certificate.cache_clear()
    assert escape_threshold(short) == escape_threshold(bracket)
    info = ratmap._certificate.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


def test_assignment_is_refused():
    records = [(ProjPoint(1, 2), "y"), (parse_map("z^2-1"), "source"), (exact(5), "value"),
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
    assert repr(exact(5)) == "Exact(value=5)"
    assert repr(report) == ("VerificationReport(check_name='demo', status='PASS', "
                            "reason='', witnesses=(), parameters=())")
    profile = reduction_profile(parse_map("z^2-29/16"))
    for record in (profile, report, orbit, sum_of(exp_of(3), exact(2))):
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
