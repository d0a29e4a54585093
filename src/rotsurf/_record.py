"""``Record``, the frozen base of rotsurf's records: fields named by a
subclass's annotations, defaults by class values; built by position or
name, then ``__post_init__``; equal within its class only; hashed, printed
and pickled by its fields.  Unlike ``@dataclass``, it generates no code."""


class Record:
    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)
        cls._checked = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # bound as a def binds them
            values = {name: getattr(self, name) for name in fields
                      if hasattr(self, name)}  # the defaults
            values.update(dict(**dict(zip(fields, args)), **kwargs))
            if len(args) > len(fields) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes {fields}")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):  # no __dict__: reads stay fast
            object.__setattr__(self, name, value)
        if self._checked:
            self.__post_init__()  # a subclass's checks of its fields

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return (self._values() == other._values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__
