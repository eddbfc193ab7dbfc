"""Attribute hierarchy for the MLIR-like IR.

Attributes are immutable, hashable compile-time values attached to
operations (and, following MLIR, types are themselves attributes).  Only the
attribute kinds actually used by the dialects in this reproduction are
provided, but the base classes mirror MLIR closely enough that new kinds can
be added by subclassing :class:`Attribute`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence, Tuple


class Attribute:
    """Base class of all attributes (and, transitively, all types)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> Tuple[Any, ...]:
        """Structural identity key; subclasses must override."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._key()})"

    # Pretty, MLIR-ish syntax used by the printer.
    def mlir(self) -> str:
        return repr(self)


class UnitAttr(Attribute):
    """Presence-only attribute (MLIR ``unit``)."""

    __slots__ = ()

    def mlir(self) -> str:
        return "unit"


class BoolAttr(Attribute):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = bool(value)

    def _key(self):
        return (self.value,)

    def mlir(self) -> str:
        return "true" if self.value else "false"


class IntegerAttr(Attribute):
    """An integer constant, optionally carrying its type."""

    __slots__ = ("value", "type")

    def __init__(self, value: int, type: "Attribute | None" = None):
        self.value = int(value)
        self.type = type

    def _key(self):
        return (self.value, self.type)

    def mlir(self) -> str:
        if self.type is not None:
            return f"{self.value} : {self.type.mlir()}"
        return str(self.value)


class FloatAttr(Attribute):
    __slots__ = ("value", "type")

    def __init__(self, value: float, type: "Attribute | None" = None):
        self.value = float(value)
        self.type = type

    def _key(self):
        return (self.value, self.type)

    def mlir(self) -> str:
        if self.type is not None:
            return f"{self.value} : {self.type.mlir()}"
        return str(self.value)


class StringAttr(Attribute):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = str(value)

    def _key(self):
        return (self.value,)

    def mlir(self) -> str:
        return f'"{self.value}"'


class SymbolRefAttr(Attribute):
    """Reference to a symbol (e.g. a function) by name."""

    __slots__ = ("root", "nested")

    def __init__(self, root: str, nested: Sequence[str] = ()):
        self.root = root
        self.nested = tuple(nested)

    def _key(self):
        return (self.root, self.nested)

    def mlir(self) -> str:
        out = f"@{self.root}"
        for n in self.nested:
            out += f"::@{n}"
        return out


class TypeAttr(Attribute):
    """Wraps a type so it can be stored in an attribute dictionary."""

    __slots__ = ("type",)

    def __init__(self, type: Attribute):
        self.type = type

    def _key(self):
        return (self.type,)

    def mlir(self) -> str:
        return self.type.mlir()


class ArrayAttr(Attribute):
    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[Attribute]):
        self.elements = tuple(elements)

    def _key(self):
        return (self.elements,)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, idx: int) -> Attribute:
        return self.elements[idx]

    def mlir(self) -> str:
        return "[" + ", ".join(e.mlir() for e in self.elements) + "]"


class DictAttr(Attribute):
    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, Attribute]):
        self.entries = tuple(sorted(entries.items()))

    def _key(self):
        return (self.entries,)

    def as_dict(self) -> dict:
        return dict(self.entries)

    def mlir(self) -> str:
        inner = ", ".join(f'"{k}" = {v.mlir()}' for k, v in self.entries)
        return "{" + inner + "}"


class DenseIntElementsAttr(Attribute):
    """Small dense integer element attribute (e.g. ``array<i64: 1, 2>``)."""

    __slots__ = ("values", "element_type")

    def __init__(self, values: Iterable[int], element_type: "Attribute | None" = None):
        self.values = tuple(int(v) for v in values)
        self.element_type = element_type

    def _key(self):
        return (self.values, self.element_type)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def mlir(self) -> str:
        et = self.element_type.mlir() if self.element_type is not None else "i64"
        return f"array<{et}: " + ", ".join(str(v) for v in self.values) + ">"


class DenseFloatElementsAttr(Attribute):
    __slots__ = ("values", "element_type")

    def __init__(self, values: Iterable[float], element_type: "Attribute | None" = None):
        self.values = tuple(float(v) for v in values)
        self.element_type = element_type

    def _key(self):
        return (self.values, self.element_type)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def mlir(self) -> str:
        et = self.element_type.mlir() if self.element_type is not None else "f64"
        return f"array<{et}: " + ", ".join(str(v) for v in self.values) + ">"


class AffineExpr:
    """A tiny affine-expression tree used by :class:`AffineMapAttr`.

    Supported node kinds: dimension (``d<i>``), symbol (``s<i>``), constant,
    add, mul, floordiv, ceildiv and mod with affine restrictions left to the
    verifier of the affine dialect.
    """

    __slots__ = ("kind", "value", "lhs", "rhs")

    def __init__(self, kind: str, value: int = 0, lhs: "AffineExpr | None" = None,
                 rhs: "AffineExpr | None" = None):
        self.kind = kind
        self.value = value
        self.lhs = lhs
        self.rhs = rhs

    # -- constructors ------------------------------------------------------
    @staticmethod
    def dim(position: int) -> "AffineExpr":
        return AffineExpr("dim", position)

    @staticmethod
    def symbol(position: int) -> "AffineExpr":
        return AffineExpr("sym", position)

    @staticmethod
    def constant(value: int) -> "AffineExpr":
        return AffineExpr("const", value)

    def _binop(self, kind: str, other: "AffineExpr | int") -> "AffineExpr":
        if isinstance(other, int):
            other = AffineExpr.constant(other)
        return AffineExpr(kind, 0, self, other)

    def __add__(self, other):
        return self._binop("add", other)

    def __mul__(self, other):
        return self._binop("mul", other)

    def __mod__(self, other):
        return self._binop("mod", other)

    def floordiv(self, other):
        return self._binop("floordiv", other)

    def ceildiv(self, other):
        return self._binop("ceildiv", other)

    # -- evaluation --------------------------------------------------------
    def evaluate(self, dims: Sequence[int], syms: Sequence[int] = ()) -> int:
        if self.kind == "dim":
            return dims[self.value]
        if self.kind == "sym":
            return syms[self.value]
        if self.kind == "const":
            return self.value
        lhs = self.lhs.evaluate(dims, syms)
        rhs = self.rhs.evaluate(dims, syms)
        if self.kind == "add":
            return lhs + rhs
        if self.kind == "mul":
            return lhs * rhs
        if self.kind == "mod":
            return lhs % rhs
        if self.kind == "floordiv":
            return lhs // rhs
        if self.kind == "ceildiv":
            return -((-lhs) // rhs)
        raise ValueError(f"unknown affine expr kind {self.kind}")

    def python_source(self, dim_names: Sequence[str],
                      sym_names: Sequence[str] = ()) -> str:
        """A Python expression computing :meth:`evaluate` over named locals.

        ``dim_names[i]`` / ``sym_names[i]`` name the integer locals bound to
        ``d<i>`` / ``s<i>``.  The expression keeps :meth:`evaluate`'s exact
        integer semantics and lhs-before-rhs order; a position beyond the
        names given compiles to ``()[i]``, so it raises the same
        ``IndexError`` as :meth:`evaluate`, and only when executed.
        """
        kind = self.kind
        if kind == "dim" or kind == "sym":
            names = dim_names if kind == "dim" else sym_names
            try:
                return names[self.value]
            except IndexError:
                return f"()[{self.value}]"
        if kind == "const":
            if not isinstance(self.value, int):
                raise ValueError(
                    f"affine constant {self.value!r} is not an integer")
            return repr(int(self.value))
        lhs = self.lhs.python_source(dim_names, sym_names)
        rhs = self.rhs.python_source(dim_names, sym_names)
        if kind == "add":
            return f"({lhs} + {rhs})"
        if kind == "mul":
            return f"({lhs} * {rhs})"
        if kind == "mod":
            return f"({lhs} % {rhs})"
        if kind == "floordiv":
            return f"({lhs} // {rhs})"
        if kind == "ceildiv":
            return f"(-((-{lhs}) // {rhs}))"
        raise ValueError(f"unknown affine expr kind {kind}")

    def is_pure_affine(self) -> bool:
        """True when mul/div/mod only involve constants on one side."""
        if self.kind in ("dim", "sym", "const"):
            return True
        lhs_ok = self.lhs.is_pure_affine()
        rhs_ok = self.rhs.is_pure_affine()
        if self.kind == "add":
            return lhs_ok and rhs_ok
        # mul/mod/div: at least one side must be constant
        const_side = self.lhs.kind == "const" or self.rhs.kind == "const"
        return lhs_ok and rhs_ok and const_side

    def __str__(self) -> str:
        if self.kind == "dim":
            return f"d{self.value}"
        if self.kind == "sym":
            return f"s{self.value}"
        if self.kind == "const":
            return str(self.value)
        ops = {"add": "+", "mul": "*", "mod": "mod", "floordiv": "floordiv",
               "ceildiv": "ceildiv"}
        return f"({self.lhs} {ops[self.kind]} {self.rhs})"

    def __eq__(self, other):
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return str(self) == str(other)

    def __hash__(self):
        return hash(str(self))


class AffineMapAttr(Attribute):
    """An affine map ``(d0, .., dn)[s0, .., sm] -> (expr, ...)``."""

    __slots__ = ("num_dims", "num_symbols", "results")

    def __init__(self, num_dims: int, num_symbols: int,
                 results: Sequence[AffineExpr]):
        self.num_dims = num_dims
        self.num_symbols = num_symbols
        self.results = tuple(results)

    @staticmethod
    def identity(rank: int) -> "AffineMapAttr":
        return AffineMapAttr(rank, 0, [AffineExpr.dim(i) for i in range(rank)])

    @staticmethod
    def constant_map(value: int) -> "AffineMapAttr":
        return AffineMapAttr(0, 0, [AffineExpr.constant(value)])

    def evaluate(self, dims: Sequence[int], syms: Sequence[int] = ()) -> Tuple[int, ...]:
        return tuple(r.evaluate(dims, syms) for r in self.results)

    def _key(self):
        return (self.num_dims, self.num_symbols,
                tuple(str(r) for r in self.results))

    def mlir(self) -> str:
        dims = ", ".join(f"d{i}" for i in range(self.num_dims))
        syms = ", ".join(f"s{i}" for i in range(self.num_symbols))
        res = ", ".join(str(r) for r in self.results)
        sym_part = f"[{syms}]" if self.num_symbols else ""
        return f"affine_map<({dims}){sym_part} -> ({res})>"


__all__ = [
    "Attribute",
    "UnitAttr",
    "BoolAttr",
    "IntegerAttr",
    "FloatAttr",
    "StringAttr",
    "SymbolRefAttr",
    "TypeAttr",
    "ArrayAttr",
    "DictAttr",
    "DenseIntElementsAttr",
    "DenseFloatElementsAttr",
    "AffineExpr",
    "AffineMapAttr",
]
