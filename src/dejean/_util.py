"""Small shared plumbing: immutable records, deterministic work splitting and
parallel mapping."""

from __future__ import annotations

from typing import Callable, Sequence


class Record:
    """An immutable value whose fields are the class's `__slots__`.

    A record is built from its fields, given positionally or by keyword; a
    field left out takes its value from the class's `_defaults`, where a
    callable default is called to make a fresh value for each record.
    `__post_init__` runs last and may validate the fields.  Records compare
    equal when they are of the same class with equal fields, hash and print
    by their fields as a frozen dataclass does, refuse assignment, and pickle
    and copy by rebuilding through the constructor.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__}: bad or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                if name not in self._defaults:
                    raise TypeError(f"{type(self).__name__}: missing field {name!r}")
                default = self._defaults[name]
                values[name] = default() if callable(default) else default
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


def split_chunks(items: Sequence, jobs: int) -> list[list]:
    """Partition items into at most jobs contiguous chunks, order preserved."""
    if jobs <= 1 or len(items) <= 1:
        return [list(items)]
    n = max(1, min(jobs, len(items)))
    step = -(-len(items) // n)
    return [list(items[i : i + step]) for i in range(0, len(items), step)]


def parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """Map preserving order; forks worker processes when jobs > 1.

    The pool is a ProcessPoolExecutor, so a worker that dies, or a task or
    result that cannot be pickled or unpickled, raises (BrokenProcessPool or
    the pickling error) instead of stalling the map.  Items go out in chunks
    sized as multiprocessing.Pool.map sizes them, about four per worker.
    concurrent.futures is imported only when a pool starts, so importing
    the package does not load it or multiprocessing."""
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(items))
        chunksize = -(-len(items) // (4 * workers))
        with ProcessPoolExecutor(workers) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))
    return [fn(x) for x in items]
