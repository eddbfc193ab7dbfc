"""Core SSA IR data structures: values, operations, blocks and regions.

The design intentionally mirrors MLIR / xDSL:

* an :class:`Operation` has operands (SSA values), results, an attribute
  dictionary, nested :class:`Region` s and successor :class:`Block` s;
* a :class:`Block` has block arguments and a list of operations;
* a :class:`Region` has a list of blocks and belongs to an operation;
* def-use chains are maintained automatically so that rewrites can replace
  values and erase operations safely.

Operation classes register themselves by their ``OP_NAME`` so passes and the
interpreter can dispatch on the operation name, and generic (unregistered)
operations can still be represented.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Type as PyType)

from .attributes import Attribute
from .types import Type


class IRError(Exception):
    """Raised for malformed IR or illegal IR manipulation."""


# ---------------------------------------------------------------------------
# Values and uses
# ---------------------------------------------------------------------------

class Use:
    """A single use of a value: (operation, operand index)."""

    __slots__ = ("operation", "index")

    def __init__(self, operation: "Operation", index: int):
        self.operation = operation
        self.index = index

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Use({self.operation.name}, {self.index})"


class Value:
    """Base class for SSA values (operation results and block arguments)."""

    __slots__ = ("type", "uses", "name_hint")

    def __init__(self, type: Type, name_hint: Optional[str] = None):
        self.type = type
        self.uses: List[Use] = []
        self.name_hint = name_hint

    # -- use-list management ----------------------------------------------
    def add_use(self, use: Use) -> None:
        self.uses.append(use)

    def remove_use(self, operation: "Operation", index: int) -> None:
        for i, u in enumerate(self.uses):
            if u.operation is operation and u.index == index:
                del self.uses[i]
                return
        raise IRError("attempting to remove a use that is not registered")

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    def has_one_use(self) -> bool:
        return len(self.uses) == 1

    def users(self) -> List["Operation"]:
        seen: List[Operation] = []
        for u in self.uses:
            if u.operation not in seen:
                seen.append(u.operation)
        return seen

    def replace_all_uses_with(self, new_value: "Value") -> None:
        if new_value is self:
            return
        for use in list(self.uses):
            use.operation.set_operand(use.index, new_value)

    # -- info ---------------------------------------------------------------
    @property
    def owner(self):  # Operation | Block
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name_hint or ''}: {self.type.mlir()}>"


class OpResult(Value):
    __slots__ = ("op", "index")

    def __init__(self, op: "Operation", index: int, type: Type):
        super().__init__(type)
        self.op = op
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.op


class BlockArgument(Value):
    __slots__ = ("block", "index")

    def __init__(self, block: "Block", index: int, type: Type):
        super().__init__(type)
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block


# ---------------------------------------------------------------------------
# Operation registry
# ---------------------------------------------------------------------------

OP_REGISTRY: Dict[str, PyType["Operation"]] = {}


def register_op(cls: PyType["Operation"]) -> PyType["Operation"]:
    """Register an operation class under its ``OP_NAME``."""
    name = getattr(cls, "OP_NAME", None)
    if not name:
        raise IRError(f"operation class {cls.__name__} has no OP_NAME")
    OP_REGISTRY[name] = cls
    return cls


def registered_op(name: str) -> Optional[PyType["Operation"]]:
    return OP_REGISTRY.get(name)


# ---------------------------------------------------------------------------
# Operation
# ---------------------------------------------------------------------------

_op_counter = itertools.count()


class Operation:
    """A generic IR operation.

    Subclasses normally define ``OP_NAME`` plus convenience constructors and
    accessors; the base class supports arbitrary (unregistered) operations so
    every dialect concept can be represented even before a dedicated class
    exists.
    """

    OP_NAME: str = "builtin.unregistered"
    #: Trait names (see :mod:`repro.ir.traits`), e.g. ``{"IsTerminator"}``.
    TRAITS: frozenset = frozenset()

    __slots__ = ("name", "_operands", "results", "attributes", "regions",
                 "successors", "parent", "_uid", "loc")

    def __init__(self,
                 operands: Sequence[Value] = (),
                 result_types: Sequence[Type] = (),
                 attributes: Optional[Dict[str, Attribute]] = None,
                 regions: "Sequence[Region] | int" = 0,
                 successors: Sequence["Block"] = (),
                 name: Optional[str] = None,
                 loc: Optional[Any] = None):
        self.name = name or type(self).OP_NAME
        self._uid = next(_op_counter)
        self._operands: List[Value] = []
        self.results: List[OpResult] = [
            OpResult(self, i, t) for i, t in enumerate(result_types)
        ]
        self.attributes: Dict[str, Attribute] = dict(attributes or {})
        if isinstance(regions, int):
            self.regions: List[Region] = [Region(parent=self) for _ in range(regions)]
        else:
            self.regions = list(regions)
            for r in self.regions:
                r.parent = self
        self.successors: List[Block] = list(successors)
        self.parent: Optional[Block] = None
        self.loc = loc
        for v in operands:
            self._append_operand(v)

    # -- operand management -------------------------------------------------
    def _append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise IRError(f"operand of {self.name} is not a Value: {value!r}")
        index = len(self._operands)
        self._operands.append(value)
        value.add_use(Use(self, index))

    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        old.remove_use(self, index)
        self._operands[index] = value
        value.add_use(Use(self, index))

    def set_operands(self, values: Sequence[Value]) -> None:
        for i, v in enumerate(self._operands):
            v.remove_use(self, i)
        self._operands = []
        for v in values:
            self._append_operand(v)

    def drop_all_references(self) -> None:
        """Drop operand uses and successor references (pre-erase cleanup).

        Ops nested in the erased op's regions die with it: their ``parent``
        is cleared so stale walk snapshots recognise them as erased (the
        pattern drivers and canonicalizer guard on ``op.parent is None``).
        """
        for i, v in enumerate(self._operands):
            v.remove_use(self, i)
        self._operands = []
        self.successors = []
        for region in self.regions:
            for block in region.blocks:
                for op in block.ops:
                    op.parent = None
                    op.drop_all_references()

    # -- attribute helpers ---------------------------------------------------
    def get_attr(self, name: str, default: Optional[Attribute] = None) -> Optional[Attribute]:
        return self.attributes.get(name, default)

    def set_attr(self, name: str, value: Attribute) -> None:
        self.attributes[name] = value

    def has_attr(self, name: str) -> bool:
        return name in self.attributes

    def remove_attr(self, name: str) -> None:
        self.attributes.pop(name, None)

    # -- structural queries --------------------------------------------------
    @property
    def result(self) -> OpResult:
        if len(self.results) != 1:
            raise IRError(f"{self.name} does not have exactly one result")
        return self.results[0]

    def has_trait(self, trait: str) -> bool:
        return trait in self.TRAITS

    @property
    def dialect(self) -> str:
        return self.name.split(".", 1)[0]

    def parent_op(self) -> Optional["Operation"]:
        if self.parent is None:
            return None
        region = self.parent.parent
        return region.parent if region is not None else None

    def parent_region(self) -> Optional["Region"]:
        return self.parent.parent if self.parent is not None else None

    def ancestors(self) -> Iterator["Operation"]:
        op = self.parent_op()
        while op is not None:
            yield op
            op = op.parent_op()

    def is_ancestor_of(self, other: "Operation") -> bool:
        return any(a is self for a in other.ancestors())

    def walk(self, reverse: bool = False) -> Iterator["Operation"]:
        """Post-order-entry walk: yields this op then all nested ops."""
        yield self
        regions = reversed(self.regions) if reverse else self.regions
        for region in regions:
            blocks = reversed(region.blocks) if reverse else region.blocks
            for block in blocks:
                ops = reversed(block.ops) if reverse else list(block.ops)
                for op in ops:
                    yield from op.walk(reverse=reverse)

    def walk_postorder(self) -> Iterator["Operation"]:
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.ops):
                    yield from op.walk_postorder()
        yield self

    # -- position / mutation ---------------------------------------------------
    def detach(self) -> "Operation":
        if self.parent is not None:
            self.parent.ops.remove(self)
            self.parent = None
        return self

    def erase(self, *, check_uses: bool = True) -> None:
        if check_uses:
            for res in self.results:
                if res.num_uses:
                    raise IRError(
                        f"erasing {self.name} whose result still has uses")
        self.detach()
        self.drop_all_references()

    def move_before(self, other: "Operation") -> None:
        self.detach()
        block = other.parent
        if block is None:
            raise IRError("cannot move before a detached operation")
        idx = block.ops.index(other)
        block.ops.insert(idx, self)
        self.parent = block

    def move_after(self, other: "Operation") -> None:
        self.detach()
        block = other.parent
        if block is None:
            raise IRError("cannot move after a detached operation")
        idx = block.ops.index(other)
        block.ops.insert(idx + 1, self)
        self.parent = block

    def is_before_in_block(self, other: "Operation") -> bool:
        if self.parent is None or self.parent is not other.parent:
            raise IRError("operations are not in the same block")
        ops = self.parent.ops
        return ops.index(self) < ops.index(other)

    def replace_all_uses_with(self, new_values: "Sequence[Value] | Value") -> None:
        if isinstance(new_values, Value):
            new_values = [new_values]
        if len(new_values) != len(self.results):
            raise IRError("replacement value count mismatch")
        for res, new in zip(self.results, new_values):
            res.replace_all_uses_with(new)

    # -- cloning ---------------------------------------------------------------
    def clone(self, value_map: Optional[Dict[Value, Value]] = None,
              block_map: Optional[Dict["Block", "Block"]] = None) -> "Operation":
        """Deep-clone this operation (and nested regions).

        ``value_map`` maps original values to replacement values; operands not
        present in the map are reused as-is (which is correct for values
        defined above the cloned region).
        """
        value_map = value_map if value_map is not None else {}
        block_map = block_map if block_map is not None else {}
        new_operands = [value_map.get(v, v) for v in self._operands]
        new_successors = [block_map.get(b, b) for b in self.successors]
        cls = type(self)
        new_op = Operation.__new__(cls)
        Operation.__init__(
            new_op,
            operands=new_operands,
            result_types=[r.type for r in self.results],
            attributes=dict(self.attributes),
            regions=0,
            successors=new_successors,
            name=self.name,
            loc=self.loc,
        )
        for old_res, new_res in zip(self.results, new_op.results):
            value_map[old_res] = new_res
        for region in self.regions:
            new_region = Region(parent=new_op)
            new_op.regions.append(new_region)
            # first create blocks + arguments so forward branch references work
            for block in region.blocks:
                new_block = Block(arg_types=[a.type for a in block.args])
                block_map[block] = new_block
                for old_arg, new_arg in zip(block.args, new_block.args):
                    value_map[old_arg] = new_arg
                new_region.add_block(new_block)
            for block in region.blocks:
                new_block = block_map[block]
                for op in block.ops:
                    new_block.add_op(op.clone(value_map, block_map))
        return new_op

    # -- verification -----------------------------------------------------------
    def verify_(self) -> None:
        """Op-specific verification; subclasses may override."""

    def verify(self) -> None:
        from .verifier import verify_operation
        verify_operation(self)

    # -- misc ---------------------------------------------------------------------
    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Operation {self.name} #{self._uid}>"

    # A uid hash fixes set iteration order.  Equality stays object's own
    # identity test: a Python-level __eq__ would be called per element by
    # every list.index/list.remove over op and block lists.
    def __hash__(self):
        return self._uid


class UnregisteredOp(Operation):
    """An operation whose name has no registered class."""

    OP_NAME = "builtin.unregistered"


def create_operation(name: str,
                     operands: Sequence[Value] = (),
                     result_types: Sequence[Type] = (),
                     attributes: Optional[Dict[str, Attribute]] = None,
                     regions: "Sequence[Region] | int" = 0,
                     successors: Sequence["Block"] = ()) -> Operation:
    """Create an operation by name, using the registered class if available.

    The registered class's ``__init__`` is bypassed (generic construction),
    which matches how MLIR materialises operations from the generic form.
    """
    cls = OP_REGISTRY.get(name, UnregisteredOp)
    op = Operation.__new__(cls)
    Operation.__init__(op, operands=operands, result_types=result_types,
                       attributes=attributes, regions=regions,
                       successors=successors, name=name)
    return op


# ---------------------------------------------------------------------------
# Block
# ---------------------------------------------------------------------------

_block_counter = itertools.count()


class Block:
    """A straight-line sequence of operations ending in a terminator."""

    __slots__ = ("args", "ops", "parent", "_uid")

    def __init__(self, arg_types: Sequence[Type] = ()):
        self._uid = next(_block_counter)
        self.args: List[BlockArgument] = [
            BlockArgument(self, i, t) for i, t in enumerate(arg_types)
        ]
        self.ops: List[Operation] = []
        self.parent: Optional[Region] = None

    # -- arguments ----------------------------------------------------------
    def add_argument(self, type: Type) -> BlockArgument:
        arg = BlockArgument(self, len(self.args), type)
        self.args.append(arg)
        return arg

    def erase_argument(self, index: int) -> None:
        arg = self.args[index]
        if arg.num_uses:
            raise IRError("erasing a block argument that still has uses")
        del self.args[index]
        for i, a in enumerate(self.args):
            a.index = i

    # -- op list ------------------------------------------------------------
    def add_op(self, op: Operation) -> Operation:
        op.detach()
        self.ops.append(op)
        op.parent = self
        return op

    append = add_op

    def add_ops(self, ops: Iterable[Operation]) -> None:
        for op in ops:
            self.add_op(op)

    def insert_op_at(self, index: int, op: Operation) -> Operation:
        op.detach()
        self.ops.insert(index, op)
        op.parent = self
        return op

    def insert_before(self, anchor: Operation, op: Operation) -> Operation:
        return self.insert_op_at(self.ops.index(anchor), op)

    def insert_after(self, anchor: Operation, op: Operation) -> Operation:
        return self.insert_op_at(self.ops.index(anchor) + 1, op)

    @property
    def first_op(self) -> Optional[Operation]:
        return self.ops[0] if self.ops else None

    @property
    def last_op(self) -> Optional[Operation]:
        return self.ops[-1] if self.ops else None

    @property
    def terminator(self) -> Optional[Operation]:
        last = self.last_op
        if last is not None and last.has_trait("IsTerminator"):
            return last
        return None

    def parent_op(self) -> Optional[Operation]:
        return self.parent.parent if self.parent is not None else None

    def walk(self) -> Iterator[Operation]:
        for op in list(self.ops):
            yield from op.walk()

    def index_in_region(self) -> int:
        if self.parent is None:
            raise IRError("block has no parent region")
        return self.parent.blocks.index(self)

    def predecessors(self) -> List["Block"]:
        """Blocks that list this block as a successor (within the region)."""
        if self.parent is None:
            return []
        preds = []
        for block in self.parent.blocks:
            term = block.last_op
            if term is not None and self in term.successors:
                preds.append(block)
        return preds

    def successors_of_terminator(self) -> List["Block"]:
        term = self.last_op
        return list(term.successors) if term is not None else []

    def erase(self) -> None:
        if self.parent is not None:
            self.parent.blocks.remove(self)
            self.parent = None
        for op in list(self.ops):
            op.drop_all_references()
        self.ops = []

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Block ^bb{self._uid} ({len(self.ops)} ops)>"

    # A uid hash fixes set iteration order.  Equality stays object's own
    # identity test: a Python-level __eq__ would be called per element by
    # every list.index/list.remove over op and block lists.
    def __hash__(self):
        return self._uid


# ---------------------------------------------------------------------------
# Region
# ---------------------------------------------------------------------------

class Region:
    """A list of blocks owned by an operation."""

    __slots__ = ("blocks", "parent")

    def __init__(self, blocks: Sequence[Block] = (), parent: Optional[Operation] = None):
        self.blocks: List[Block] = []
        self.parent = parent
        for b in blocks:
            self.add_block(b)

    def add_block(self, block: Block) -> Block:
        self.blocks.append(block)
        block.parent = self
        return block

    def insert_block_at(self, index: int, block: Block) -> Block:
        self.blocks.insert(index, block)
        block.parent = self
        return block

    @property
    def entry_block(self) -> Optional[Block]:
        return self.blocks[0] if self.blocks else None

    @property
    def block(self) -> Block:
        """The single block of a single-block region."""
        if len(self.blocks) != 1:
            raise IRError("region does not have exactly one block")
        return self.blocks[0]

    def walk(self) -> Iterator[Operation]:
        for block in list(self.blocks):
            yield from block.walk()

    def is_empty(self) -> bool:
        return not self.blocks or all(not b.ops for b in self.blocks)

    def move_blocks_to(self, other: "Region") -> None:
        for block in self.blocks:
            block.parent = other
            other.blocks.append(block)
        self.blocks = []

    def clone_into(self, value_map: Dict[Value, Value]) -> "Region":
        new_region = Region()
        block_map: Dict[Block, Block] = {}
        for block in self.blocks:
            new_block = Block(arg_types=[a.type for a in block.args])
            block_map[block] = new_block
            for old_arg, new_arg in zip(block.args, new_block.args):
                value_map[old_arg] = new_arg
            new_region.add_block(new_block)
        for block in self.blocks:
            nb = block_map[block]
            for op in block.ops:
                nb.add_op(op.clone(value_map, block_map))
        return new_region

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Region ({len(self.blocks)} blocks)>"


__all__ = [
    "IRError",
    "Use",
    "Value",
    "OpResult",
    "BlockArgument",
    "Operation",
    "UnregisteredOp",
    "Block",
    "Region",
    "OP_REGISTRY",
    "register_op",
    "registered_op",
    "create_operation",
]
