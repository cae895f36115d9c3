"""The one record type, and the records of a checked law and of a suite of them."""

from __future__ import annotations

from operator import attrgetter

# sets a field of a record, frozen or not
_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assigning to or deleting a field of a frozen record."""


def _getter(names):
    """The named fields of a record as a tuple, however many there are."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        one = attrgetter(names[0])
        return lambda record: (one(record),)
    return lambda record: ()


class Record:
    """A mutable record of named fields, built without a decorator's start-up cost.

    A subclass lists its constructor arguments, in order, in both
    ``__slots__`` and ``_fields``; the last ``len(_defaults)`` of them may be
    left out and then take those values, and ``__post_init__`` runs once the
    fields are set.  A record equals another of the same class with equal
    fields, prints as ``Name(field=value, ...)`` and, being mutable, has no
    hash; fields named in ``_hidden`` are left out of all three.
    """

    __slots__ = ()
    _fields = _hidden = _defaults = _shown = ()
    __hash__ = None

    def __init_subclass__(cls):
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)
        # the shown fields' values, which equality and hashing compare
        cls._key = staticmethod(_getter(cls._shown))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The constructor's arguments as one value per field, the fields left
        out taking their defaults; TypeError where they do not fit the fields."""
        fields, defaults = cls._fields, cls._defaults
        missing = len(fields) - len(args)
        if not kwargs and 0 < missing <= len(defaults):
            return args + defaults[len(defaults) - missing:]
        values = list(args)
        required = len(fields) - len(defaults)
        for i in range(len(args), len(fields)):
            if fields[i] in kwargs:
                values.append(kwargs.pop(fields[i]))
            elif i >= required:
                values.append(defaults[i - required])
            else:
                raise TypeError(f"{cls.__qualname__}({', '.join(fields)}) "
                                f"is missing {fields[i]!r}")
        if len(values) > len(fields) or kwargs:
            raise TypeError(f"{cls.__qualname__}({', '.join(fields)}) given "
                            f"{len(args)} positional and {sorted(kwargs)} keyword arguments")
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor: their
        # default sets the slots one by one, which a frozen record refuses
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Frozen(Record):
    """An immutable record, hashed by the fields it compares."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Check(Frozen):
    """One law checked over a stream of instances.

    mode says how the instances were chosen (exhaustive or sampled, with the
    seed), checked how many were looked at, and mismatches how many failed;
    witness describes the first failure and objects names the objects (as
    sizes, where the law ranges over several).
    """

    __slots__ = _fields = ("law", "mode", "checked", "mismatches", "witness", "objects")

    # every law suite builds one per law, so the constructor is written out
    def __init__(self, law, mode, checked, mismatches, witness=None, objects=()):
        _set(self, "law", law)
        _set(self, "mode", mode)
        _set(self, "checked", checked)
        _set(self, "mismatches", mismatches)
        _set(self, "witness", witness)
        _set(self, "objects", objects)

    @property
    def ok(self):
        return self.mismatches == 0


def first_counterexample(law, verdicts, mode="exhaustive", objects=()):
    """The Check of a law over a stream with one verdict per instance.

    A verdict is None where the instance satisfies the law, an int n for a
    block of n instances that all do, and the witness text where one does
    not; the walk stops at the first witness.
    """
    checked = 0
    for verdict in verdicts:
        if verdict is None:
            checked += 1
        elif type(verdict) is int:
            checked += verdict
        else:
            return Check(law, mode, checked + 1, 1, verdict, objects)
    return Check(law, mode, checked, 0, None, objects)


class Report(Record):
    """The Checks of one suite; seed is that of its sampling, if any."""

    __slots__ = _fields = ("name", "seed", "cases")
    _defaults = (None, None)

    def __post_init__(self):
        if self.cases is None:  # a fresh list for each report
            self.cases = []

    @property
    def ok(self):
        return all(c.ok for c in self.cases)

    def checked_total(self):
        return sum(c.checked for c in self.cases)

    def summary(self):
        """The verdict with its instance count, then each failing case."""
        lines = [f"{self.name}: {'PASS' if self.ok else 'FAIL'} "
                 f"({self.checked_total()} instances, seed {self.seed})"]
        lines += [f"  FAIL {c.law} on {c.objects} [{c.mode}]: {c.witness}"
                  for c in self.cases if not c.ok]
        return "\n".join(lines)

    def listing(self):
        """The name, then every case with its mark and any witness."""
        return "\n".join([f"{self.name}:"] + [
            f"  {'ok ' if c.ok else 'FAIL'} {c.law}" + (f"  [{c.witness}]" if c.witness else "")
            for c in self.cases])
