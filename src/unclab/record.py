"""The base of unclab's value records, built without code generation.

A subclass of `Record` declares its fields as class annotations, in order,
with class-level defaults for the trailing ones; `_fields` lists their
names. A record is built from its fields by position or by keyword, a dict
default is copied for each record, and `__post_init__` runs last, so a
subclass validates its fields there. Records are frozen: the constructor
writes the fields into the instance dict, and every assignment raises
AttributeError. Records compare, hash and print by their fields.
"""


class Record:
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            rest, defaults = names[len(args):], self._defaults
            if (len(args) > len(names) or kwargs.keys() - set(rest)
                    or set(rest) - kwargs.keys() - defaults.keys()):
                raise TypeError(f"{type(self).__name__} takes the fields {names}, "
                                f"with defaults for {tuple(defaults)}")
            args += tuple(kwargs[n] if n in kwargs else
                          dict(defaults[n]) if type(defaults[n]) is dict else defaults[n]
                          for n in rest)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self._fields)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, n) for n in self._fields))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"
