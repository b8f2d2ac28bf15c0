"""The field is the flag: command-line flags generated from dataclass fields.

A frozen dataclass that mixes in :class:`FlagFields` declares a knob a
user can type with :func:`knob` instead of a bare default.  The field
then carries everything a parser needs -- name, type (its annotation),
default, choices, help -- and the flag, the parsed value and the child
argv are loops over :func:`dataclasses.fields`: a new knob is one more
field, and no second module spells its name, default or choices.

``ServerOptions`` (every field a ``serve-searcher`` flag),
``LannsConfig`` / ``HnswParams`` (the ``build`` / ``bench`` flags; a
field holding another ``FlagFields`` dataclass contributes that class's
flags to the same parser) and ``BrokerPolicy`` (three ``query`` flags)
share this one loop.
"""

from __future__ import annotations

from dataclasses import field, fields, is_dataclass

#: A field's annotation -> what parses its flag and normalises its value
#: (``"x | None"`` parses as ``x``; anything else stays a string).  The
#: annotation is read as text: declare knobs in modules that have
#: ``from __future__ import annotations``.
CASTS = {"int": int, "float": float}


def knob(default, help: str, *, flag: str | None = None, choices=None, parse=None):
    """A dataclass field that is also a flag.

    ``flag`` overrides the flag's name (default: ``--`` + the field name
    with dashes), ``choices`` is the tuple both argparse and
    :meth:`FlagFields.check_choices` read, ``parse`` replaces the
    annotation's cast for a field whose text form needs one of its own.
    """
    metadata = {"help": help, "flag": flag, "choices": choices, "parse": parse}
    return field(default=default, metadata=metadata)


def _flag(spec) -> str:
    return spec.metadata["flag"] or "--" + spec.name.replace("_", "-")


class FlagFields:
    """Mixin: the :func:`knob` fields of a dataclass as argparse flags."""

    @classmethod
    def flags(cls) -> dict:
        """``{flag: field}`` of this class and the ones nested in it."""
        found = {}
        for spec in fields(cls):
            if "help" in spec.metadata:
                found[_flag(spec)] = spec
            elif is_dataclass(spec.default_factory):
                found.update(spec.default_factory.flags())
        return found

    @classmethod
    def add_flags(cls, parser, *, defaults=None, omit=()) -> None:
        """One flag per knob field, ``dest`` = the field's name.

        ``defaults`` (by field name) replaces a field's default *on this
        parser only*; ``omit`` names knob fields this parser leaves out
        (:meth:`from_args` then keeps the dataclass default).
        """
        defaults = defaults or {}
        for flag, spec in cls.flags().items():
            if spec.name in omit:
                continue
            kind = spec.type.removesuffix(" | None")
            choices = spec.metadata["choices"]
            parser.add_argument(
                flag,
                dest=spec.name,
                type=spec.metadata["parse"] or CASTS.get(kind, str),
                default=defaults.get(spec.name, spec.default),
                choices=choices,
                # --help shows the flag's own name, not the field's.
                metavar=None if choices else flag[2:].replace("-", "_").upper(),
                help=spec.metadata["help"],
            )

    @classmethod
    def from_args(cls, args):
        """The value a namespace parsed by :meth:`add_flags` holds."""
        values = {}
        for spec in fields(cls):
            if "help" in spec.metadata:
                if hasattr(args, spec.name):
                    values[spec.name] = getattr(args, spec.name)
            elif is_dataclass(spec.default_factory):
                values[spec.name] = spec.default_factory.from_args(args)
        return cls(**values)

    def argv(self) -> list[str]:
        """The flags that rebuild this value; fields at their default add none."""
        tokens: list[str] = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, FlagFields):
                tokens += value.argv()
            elif "help" in spec.metadata and value != spec.default:
                tokens += [_flag(spec), str(value)]
        return tokens

    def check_choices(self, error=ValueError) -> None:
        """Refuse a value outside its field's ``choices`` (for ``__post_init__``)."""
        for spec in fields(self):
            choices = spec.metadata.get("choices")
            if choices and getattr(self, spec.name) not in choices:
                raise error(
                    f"{spec.name} must be one of {choices}, "
                    f"got {getattr(self, spec.name)!r}"
                )
