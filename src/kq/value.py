"""The immutable record that kq's value classes share.

A plain base class, so that importing kq generates no methods: a subclass
names its fields in ``_fields``, its constructor takes them in that order,
and == and hash compare them as one tuple.
"""


class Value:
    """An immutable record compared and hashed by the tuple of its fields.

    Instances keep a __dict__, so functools.cached_property works on them.
    """

    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, not {len(values)}")
        vars(self).update(zip(self._fields, values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name} (to a {type(value).__name__} value): {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name}: {type(self).__name__} is immutable")

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"
