"""Value records declared by annotations, with no code generated per class.

A Record subclass declares its fields as annotations, in order; a value in
the class body is the field's default. The fields are read once, when the
subclass is created, and all subclasses share one constructor (which ends
by calling the __post_init__ hook), equality and hashing over the fields,
and repr. A record refuses assignment and deletion, and keeps its
hash once computed: the generic methods are slower than generated ones, and
the kept hash more than pays for that. dataclasses generates them instead,
compiling code for every class and importing inspect, which was about half
the cost of `import irrfib.cli`.

The JSON form of a value is written here once. encode() turns it into plain
JSON types, rationals as "p/q" strings, and a record's to_json() is the dict
of its encoded fields. Six records override it: TorsionPoint,
DivisorClass, KernelCurve and PolarizationType are lists, ExampleSurface's
moduli_dims is a dict, and a Check adds its "pass". An override returns
plain JSON types too: None, bools, ints, strs, lists and dicts with str
keys, which is all report.canonical_json has to write.
"""

import sys
from operator import attrgetter


def encode(value):
    """Recursively convert to plain JSON types, rationals as strings."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((encode(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    # a Fraction exists only once fractions is loaded, and only a command
    # that parses or computes a rational loads it
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return str(value)
    raise TypeError("cannot encode %r" % type(value))


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class Record:
    _fields = ()     # field names, in declaration order
    _defaults = {}   # field name -> default value

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names) or (
                kwargs and not kwargs.keys() <= set(names[len(args):])):
            raise TypeError("%s() got unexpected arguments"
                            % type(self).__name__)
        values = dict(zip(names, args), **kwargs)
        for name in names:
            if name in values:
                continue
            if name not in self._defaults:
                raise TypeError("%s() is missing argument %r"
                                % (type(self).__name__, name))
            values[name] = self._defaults[name]
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenRecordError("cannot assign to %r of a frozen %s"
                                % (name, type(self).__name__))

    def __delattr__(self, name):
        raise FrozenRecordError("cannot delete %r of a frozen %s"
                                % (name, type(self).__name__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        # A frozen record never changes, and its hash walks every nested
        # record and Fraction, so the first result is kept with the record.
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = hash(self._key(self))
        return value

    def __reduce__(self):
        # rebuilt from the fields: a kept hash must not reach another process
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def to_json(self):
        return {name: encode(getattr(self, name)) for name in self._fields}

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))
