"""``records.Record`` gives a class what ``@dataclass`` gave it, from the
class's annotations, without generating code."""

import dataclasses

import pytest

from mejump.records import Factory, Record


class Point(Record, frozen=True):
    x: float
    y: float = 0.0
    tags: tuple = ()


class Bag(Record):
    name: str
    items: list = Factory(list)

    def __post_init__(self):
        self.name = self.name.upper()


class TestConstructor:
    def test_positional_keyword_and_default(self):
        assert Point(1.0, 2.0)._values() == (1.0, 2.0, ())
        assert Point(y=2.0, x=1.0) == Point(1.0, 2.0)
        assert Point(1.0).y == 0.0

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((), {}, "missing required arguments: 'x'"),
            ((1.0, 2.0, (), 4), {}, "takes 3 positional arguments but 4 were given"),
            ((1.0,), {"z": 1}, "unexpected keyword argument 'z'"),
            ((1.0,), {"x": 1.0}, "multiple values for argument 'x'"),
        ],
    )
    def test_bad_arguments_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Point(*args, **kwargs)

    def test_post_init_runs_and_factory_defaults_are_fresh(self):
        a, b = Bag("a"), Bag("b")
        a.items.append(1)
        assert (a.name, a.items, b.items) == ("A", [1], [])


class TestMethods:
    def test_repr(self):
        assert repr(Point(1.0, tags=("t",))) == "Point(x=1.0, y=0.0, tags=('t',))"

    def test_equality_needs_the_same_class(self):
        class Other(Record, frozen=True):
            x: float
            y: float = 0.0
            tags: tuple = ()

        assert Point(1.0) == Point(1.0) and Point(1.0) != Point(2.0)
        assert Point(1.0) != Other(1.0)

    def test_frozen_records_hash_and_refuse_changes(self):
        p = Point(1.0)
        assert hash(p) == hash(Point(1.0))
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'x'"):
            p.x = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'x'"):
            del p.x

    def test_other_records_are_mutable_and_unhashable(self):
        bag = Bag("a")
        bag.items = [2]
        assert bag == Bag("a", [2])
        with pytest.raises(TypeError, match="unhashable"):
            hash(bag)
