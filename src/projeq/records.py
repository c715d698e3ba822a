"""Record, the base of projeq's frozen value records: plain classes, as a
dataclass execs its generated methods when its module loads, a cost every
command would pay at start-up."""


class Record:
    """Fields named by _fields, set once by __init__ through _set: assigning
    one later raises AttributeError. Records of one class with equal fields
    are equal and hash alike; other attributes, such as caches, are no fields."""

    _fields = ()

    def _set(self, **values):
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
