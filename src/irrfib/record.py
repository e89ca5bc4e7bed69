"""Value records declared by annotations, with no code generated per class.

A Record subclass declares its fields as annotations, in order; a value in
the class body is the field's default. The fields are read once, when the
subclass is created, and all subclasses share one constructor (which ends
by calling the __post_init__ hook), equality and hashing over the fields,
and repr. A record refuses assignment and deletion: its state is the fields
and what __post_init__ derives from them, set by the constructor alone. Two
shortcuts keep the generic methods cheap where the library spends them: a
call that gives every field positionally, as the library's own calls do,
stores the fields straight from the arguments (and still ends in
__post_init__), and a record equals itself without a field comparison,
which the many comparisons of records that share one lattice make (a
character's lattice against the surface's, say).
dataclasses generates the methods instead, compiling code for every class
and importing inspect, which was about half the cost of `import irrfib.cli`.

The JSON form of a value is written here once. encode() turns it into plain
JSON types, rationals as "p/q" strings, and a record's to_json() is the dict
of its encoded fields. Eight records override it: TorsionPoint,
DivisorClass, KernelCurve and PolarizationType are lists, a Rational is its
"p/q" string, an EllipticPoint shows its numerators as "coords",
ExampleSurface's moduli_dims is a dict, and a Check adds its "pass". An
override returns plain JSON types too: None, bools, ints, strs, lists and
dicts with str keys, which is all report.canonical_json has to write.
"""

from operator import attrgetter


# the values that encode to themselves; in a container, one is kept
# without a call, as most items of a report are
_SCALARS = frozenset((str, int, bool, type(None)))


def encode(value):
    """Recursively convert to plain JSON types, rationals as strings."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): v if type(v) in _SCALARS else encode(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _SCALARS else encode(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((encode(v) for v in value), key=repr)
    if hasattr(value, "to_json"):
        return value.to_json()
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
        if not kwargs and len(args) == len(names):
            # every field given in order, as the library builds records
            self.__dict__.update(zip(names, args))
            self.__post_init__()
            return
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
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        # rebuilt from the fields, so a copy derives its own state again
        # (a surface's tables, an embedding's index)
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def to_json(self):
        return {name: encode(getattr(self, name)) for name in self._fields}

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))
