from dataclasses import dataclass

from arcbricks.lazy import lazy_attribute

calls: list[int] = []


@dataclass(frozen=True)
class Point:
    x: int

    @lazy_attribute
    def square(self) -> int:
        """x squared, counted in ``calls``."""
        calls.append(self.x)
        return self.x * self.x


def test_computes_once_per_instance_and_keeps_the_value_on_the_instance():
    calls.clear()
    p, q = Point(3), Point(3)
    assert "square" not in vars(p)
    assert p.square == 9 and p.square == 9
    assert vars(p)["square"] == 9
    assert calls == [3]
    assert q.square == 9
    assert calls == [3, 3]


def test_the_value_is_no_field():
    p = Point(2)
    p.square
    assert p == Point(2) and hash(p) == hash(Point(2))
    assert repr(p) == "Point(x=2)"


def test_class_access_returns_the_descriptor():
    descriptor = Point.square
    assert isinstance(descriptor, lazy_attribute)
    assert descriptor.name == "square"
    assert descriptor.__doc__ == "x squared, counted in ``calls``."
