"""One lazy attribute for the package's frozen dataclasses.

``lazy_attribute`` stands where ``functools.cached_property`` would: the
first read computes the value and stores it in the instance ``__dict__``,
and every later read finds it there without calling the descriptor.
"""

from __future__ import annotations


class lazy_attribute:
    """A read-only attribute computed on first read and kept.

    A non-data descriptor: the first read calls the method and stores the
    value in ``vars(obj)`` under the method's name, which then shadows
    the descriptor, so later reads are plain instance lookups.  It stores
    through ``object.__setattr__``, which passes over a frozen dataclass's
    ``__setattr__`` and, unlike writing ``obj.__dict__``, does not make
    CPython build a dict for an instance that keeps its attributes inline.
    The value is no field: it is in no ``repr``, ``==`` or hash.  Read on
    the class, it returns itself.

    It takes no lock, unlike ``functools.cached_property`` up to CPython
    3.11, which locks on every first read.  The package is single-threaded,
    and two threads racing on a first read could only compute the same
    immutable value twice.  It is the same code on every Python version.
    """

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.method(obj)
        object.__setattr__(obj, self.name, value)
        return value
