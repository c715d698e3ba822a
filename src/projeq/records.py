"""Record, the base of projeq's frozen value records: plain classes, as a
dataclass execs its generated methods when its module loads, a cost every
command would pay at start-up. A record's operands are the records its
fields hold, directly or in a tuple. Equality, hashing and printing walk
them in loops, so records nest to any depth: an expression has no depth
limit here, and only the parser bounds the nesting of text."""


def operands(r):
    """The records r's fields hold, directly or in a tuple, in field order."""
    return [v for f in r._values() for v in (f if type(f) is tuple else (f,))
            if isinstance(v, Record)]


def postorder(r):
    """The records of r's tree, each after its operands, left to right."""
    out, stack = [], [r]
    while stack:
        out.append(stack.pop())
        stack.extend(operands(out[-1]))
    return out[::-1]


def write(r, pieces):
    """Text of r's tree, each record replaced by pieces(record): strings and records."""
    out, stack = [], [r]
    while stack:
        p = stack.pop()
        if isinstance(p, str):
            out.append(p)
        else:
            stack.extend(reversed(pieces(p)))
    return "".join(out)


def _key(r):
    """r's class and fields, its records marked: trees are equal iff their post-order keys are."""
    def mark(v):
        return Record if isinstance(v, Record) else v
    return (type(r), *(tuple(map(mark, f)) if type(f) is tuple else mark(f) for f in r._values()))


def _pieces(r):
    """r's dataclass-format text, a tuple as tuple.__repr__ writes it."""
    def one(v):
        return v if isinstance(v, Record) else repr(v)
    out = [type(r).__qualname__ + "("]
    for k, f in zip(r._fields, r._values()):
        out.append(", " * (len(out) > 1) + k + "=")
        out += (["(", *[p for v in f for p in (", ", one(v))][1:], "," * (len(f) == 1) + ")"]
                if type(f) is tuple else [one(f)])
    return out + [")"]


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
        return [getattr(self, name) for name in self._fields]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return list(map(_key, postorder(self))) == list(map(_key, postorder(other)))

    def __hash__(self):
        return hash(tuple(map(_key, postorder(self))))

    def __repr__(self):
        return write(self, _pieces)
