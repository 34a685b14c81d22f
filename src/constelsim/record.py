"""Record types: :func:`record`, a class decorator that builds a class's
``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` from its own
annotated fields, plus :func:`replace` and :func:`fields`.

It replaces ``dataclasses`` to cut start-up time. ``dataclass`` writes each
class's methods as source text and compiles it with ``exec``, 4 to 6
methods per class on Python 3.11. Here every method is a closure over the
field names, so no code is generated. In ``tools/startup_cost.py --runs 20``
(fresh interpreters that compile the package, pinned to one CPU of a
2-vCPU Xeon), the package's modules took 29.6 to 31.3 ms of
``import constelsim.cli`` with dataclasses and 22.6 to 23.1 ms with
records; less their compile time, 13.6 to 15.6 ms and 4.6 to 6.0 ms.

A record's fields are its annotations, in order. They take no defaults: a
class-level value for one is refused when the class is created. The
``__init__`` takes the fields by position or keyword, in field order, then
calls the class's ``__post_init__``, if any, which checks the values; a
function assigned to that name or inherited serves as one defined there.
Equality holds only between instances of the same class and compares the
field values with ``==``, so a record that holds an array longer than one
(a ``SimulationSummary``) equals only itself: numpy's ``==`` on two arrays
has no single truth value. Tests compare such records field by field
(``tests/test_mc.py::assert_summaries_equal``). A record refuses to set or
delete an attribute. It hashes its field values, so it is unhashable when
one of them is (a dict, say).
"""

from operator import attrgetter


def record(cls):
    """Class decorator: make the decorated class a record."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    given = [name for name in names if name in cls.__dict__]
    if given:
        raise TypeError(f"{cls.__qualname__} fields take no default: {', '.join(given)}")
    size, name_set, values = len(names), frozenset(names), attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == size:
            kwargs = dict(zip(names, args))
        elif args or len(kwargs) != size or not name_set.issuperset(kwargs):
            kwargs = _bind(cls.__qualname__, names, args, kwargs)
        self.__dict__.update(kwargs)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    cls.__record_fields__ = names
    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _immutable, _immutable
    return cls


def _bind(owner: str, names: tuple, args: tuple, kwargs: dict) -> dict:
    """Each field's value from a call's positional and keyword arguments,
    refused with a ``TypeError`` as a function call would be."""
    if len(args) > len(names):
        raise TypeError(f"{owner}() takes {len(names)} arguments but {len(args)} were given")
    bound = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{owner}() got an unexpected keyword argument {name!r}")
        if name in bound:
            raise TypeError(f"{owner}() got multiple values for argument {name!r}")
        bound[name] = value
    missing = [name for name in names if name not in bound]
    if missing:
        raise TypeError(f"{owner}() missing arguments: {', '.join(missing)}")
    return bound


def _immutable(self, name, value=None):  # both __setattr__ and __delattr__
    raise AttributeError(f"cannot set or delete {name!r} of a record")


def fields(cls) -> tuple[str, ...]:
    """Field names of a record class or instance, in order."""
    return cls.__record_fields__


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes`` to its fields, built
    through its ``__init__``, so its checks run again."""
    return obj.__class__(**{**{name: getattr(obj, name) for name in fields(obj)}, **changes})
