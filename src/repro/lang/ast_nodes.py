"""AST node definitions for the structured loop language.

Design notes
------------

The undo machinery of the paper requires *stable statement identity*:
a ``Move`` relocates the same statement object, a ``Delete`` detaches it
(but the history still refers to it), a ``Copy`` creates a clone with a
fresh identity, and a ``Modify`` swaps an expression subtree *in place*
inside a statement while the statement identity is preserved.

We therefore give every statement a small integer ``sid`` that is unique
within its :class:`Program` for the whole lifetime of the program,
including statements that are currently detached (deleted).  Expressions
do not carry identity; they are addressed by *paths* relative to their
owning statement (see :func:`expr_at` / :func:`replace_expr`), which is
how ``Modify`` annotations are recorded.

Structural mutation of a program must go through the :class:`Program`
methods (``insert`` / ``detach`` / ``move_stmt``) so that the sid index
and parent map stay consistent; the primitive actions in
:mod:`repro.core.actions` are the only intended callers.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

#: Binary operators understood by the language (and the interpreter).
BINARY_OPS = ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "and", "or")

#: Unary operators.
UNARY_OPS = ("-", "not")


class Expr:
    """Base class for expression tree nodes.

    Expressions are value-like: they compare by structure via
    :func:`exprs_equal` and are duplicated with :meth:`clone`.  They carry
    no identity of their own; the owning statement plus a path addresses
    any subtree (see :func:`expr_at`).

    Every node carries a memoized structural content hash in ``_h``
    (computed lazily by :func:`expr_hash`).  Mutators — only
    :func:`replace_expr` mutates expression structure — clear ``_h``
    along the spine of the mutation; everything off the spine keeps its
    cached digest.
    """

    __slots__ = ("_h",)

    def clone(self) -> "Expr":
        """Return a deep copy of this expression subtree."""
        raise NotImplementedError

    def children(self) -> Sequence[Tuple[str, "Expr"]]:
        """Return ``(edge_name, child)`` pairs in evaluation order."""
        return ()


class Const(Expr):
    """A numeric literal."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, float]):
        self._h: Optional[str] = None
        self.value = value

    def clone(self) -> "Const":
        return intern_const(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Const({self.value!r})"


class VarRef(Expr):
    """A reference to a scalar variable (or a loop index)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self._h: Optional[str] = None
        self.name = name

    def clone(self) -> "VarRef":
        return intern_var(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VarRef({self.name!r})"


class ArrayRef(Expr):
    """A subscripted array reference ``name(sub1, sub2, ...)``."""

    __slots__ = ("name", "subscripts")

    def __init__(self, name: str, subscripts: Sequence[Expr]):
        self._h: Optional[str] = None
        self.name = name
        self.subscripts: List[Expr] = list(subscripts)

    def clone(self) -> "ArrayRef":
        return ArrayRef(self.name, [s.clone() for s in self.subscripts])

    def children(self) -> Sequence[Tuple[str, Expr]]:
        return [(f"sub{k}", s) for k, s in enumerate(self.subscripts)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArrayRef({self.name!r}, {self.subscripts!r})"


class BinOp(Expr):
    """A binary operation ``left op right``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator: {op!r}")
        self._h: Optional[str] = None
        self.op = op
        self.left = left
        self.right = right

    def clone(self) -> "BinOp":
        return BinOp(self.op, self.left.clone(), self.right.clone())

    def children(self) -> Sequence[Tuple[str, Expr]]:
        return [("l", self.left), ("r", self.right)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BinOp({self.op!r}, {self.left!r}, {self.right!r})"


class UnaryOp(Expr):
    """A unary operation ``op operand``."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator: {op!r}")
        self._h: Optional[str] = None
        self.op = op
        self.operand = operand

    def clone(self) -> "UnaryOp":
        return UnaryOp(self.op, self.operand.clone())

    def children(self) -> Sequence[Tuple[str, Expr]]:
        return [("e", self.operand)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"UnaryOp({self.op!r}, {self.operand!r})"


# ---------------------------------------------------------------------------
# Leaf interning
# ---------------------------------------------------------------------------
#
# Leaves are immutable after construction (the only structural mutator,
# ``replace_expr``, rewrites *parent* links, never ``Const.value`` or
# ``VarRef.name``), so identical leaves can share one object.  Cloning a
# subtree after CPP/CSE then shares every literal and variable reference
# instead of reallocating them, and each shared leaf memoizes its content
# hash exactly once.  Interior nodes (``BinOp``/``UnaryOp``/``ArrayRef``)
# are mutated in place by ``replace_expr`` and must never be shared.

#: Bound on each intern table; programs hold a small vocabulary of
#: literals/names, but a runaway workload must not leak memory.
_INTERN_MAX = 4096

_CONST_INTERN: Dict[Tuple[str, Union[int, float]], Const] = {}
_VAR_INTERN: Dict[str, VarRef] = {}


def intern_const(value: Union[int, float]) -> Const:
    """A shared :class:`Const` for ``value`` (type-distinguishing key)."""
    key = (type(value).__name__, value)
    e = _CONST_INTERN.get(key)
    if e is None:
        e = Const(value)
        if len(_CONST_INTERN) < _INTERN_MAX:
            _CONST_INTERN[key] = e
    return e


def intern_var(name: str) -> VarRef:
    """A shared :class:`VarRef` for ``name``."""
    e = _VAR_INTERN.get(name)
    if e is None:
        e = VarRef(name)
        if len(_VAR_INTERN) < _INTERN_MAX:
            _VAR_INTERN[name] = e
    return e


# ---------------------------------------------------------------------------
# Structural content hashes
# ---------------------------------------------------------------------------

#: Field separator for hash preimages; cannot occur in operator names,
#: identifiers, or ``repr`` of numeric literals.
_HSEP = "\x1f"


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expr_hash(e: Expr, cache: bool) -> str:
    if cache:
        h = e._h
        if h is not None:
            return h
    if isinstance(e, Const):
        h = _hash_text(f"C{_HSEP}{type(e.value).__name__}{_HSEP}{e.value!r}")
    elif isinstance(e, VarRef):
        h = _hash_text(f"V{_HSEP}{e.name}")
    elif isinstance(e, ArrayRef):
        subs = _HSEP.join(_expr_hash(s, cache) for s in e.subscripts)
        h = _hash_text(f"A{_HSEP}{e.name}{_HSEP}{subs}")
    elif isinstance(e, BinOp):
        h = _hash_text(f"B{_HSEP}{e.op}{_HSEP}{_expr_hash(e.left, cache)}"
                       f"{_HSEP}{_expr_hash(e.right, cache)}")
    elif isinstance(e, UnaryOp):
        h = _hash_text(f"U{_HSEP}{e.op}{_HSEP}{_expr_hash(e.operand, cache)}")
    else:
        raise TypeError(f"unknown expression node: {e!r}")
    if cache:
        e._h = h
    return h


def expr_hash(e: Expr) -> str:
    """Memoized structural sha256 of an expression subtree.

    The preimage distinguishes node types and literal types (``1`` vs
    ``1.0`` vs ``True``), so two expressions hash equal iff
    :func:`exprs_equal` holds.
    """
    return _expr_hash(e, True)


def expr_hash_fresh(e: Expr) -> str:
    """Like :func:`expr_hash` but ignores (and never writes) the memo.

    Used by the from-scratch fingerprint to *verify* the invalidation
    discipline: if a cached hash went stale, the fresh and memoized
    digests diverge.
    """
    return _expr_hash(e, False)


def exprs_equal(a: Optional[Expr], b: Optional[Expr]) -> bool:
    """Structural equality of two expression trees."""
    if a is None or b is None:
        return a is b
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return a.value == b.value  # type: ignore[union-attr]
    if isinstance(a, VarRef):
        return a.name == b.name  # type: ignore[union-attr]
    if isinstance(a, ArrayRef):
        assert isinstance(b, ArrayRef)
        return a.name == b.name and len(a.subscripts) == len(b.subscripts) and all(
            exprs_equal(x, y) for x, y in zip(a.subscripts, b.subscripts)
        )
    if isinstance(a, BinOp):
        assert isinstance(b, BinOp)
        return a.op == b.op and exprs_equal(a.left, b.left) and exprs_equal(a.right, b.right)
    if isinstance(a, UnaryOp):
        assert isinstance(b, UnaryOp)
        return a.op == b.op and exprs_equal(a.operand, b.operand)
    raise TypeError(f"unknown expression node: {a!r}")


def expr_vars(e: Expr) -> Set[str]:
    """All scalar variable names referenced in ``e`` (subscripts included).

    Array names are *not* included; use :func:`expr_arrays` for those.
    """
    out: Set[str] = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, VarRef):
            out.add(n.name)
        elif isinstance(n, ArrayRef):
            stack.extend(n.subscripts)
        else:
            stack.extend(c for _, c in n.children())
    return out


def expr_arrays(e: Expr) -> Set[str]:
    """All array names referenced in ``e``."""
    out: Set[str] = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, ArrayRef):
            out.add(n.name)
            stack.extend(n.subscripts)
        else:
            stack.extend(c for _, c in n.children())
    return out


def walk_expr(e: Expr, _path: Tuple[str, ...] = ()) -> Iterator[Tuple[Tuple[str, ...], Expr]]:
    """Yield ``(path, subtree)`` for every subtree of ``e`` in preorder.

    Paths are tuples of edge names relative to ``e`` itself; the root is
    yielded with the empty path.
    """
    yield _path, e
    for name, child in e.children():
        yield from walk_expr(child, _path + (name,))


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for statements.

    Attributes
    ----------
    sid:
        Stable statement id, unique within the owning :class:`Program`
        (assigned by the program when the statement is registered; ``-1``
        for unregistered nodes).
    label:
        Optional source line label used for display, mirroring the labelled
        statements of the paper's Figure 1.
    """

    __slots__ = ("sid", "label", "_h")

    def __init__(self) -> None:
        self.sid: int = -1
        self.label: Optional[int] = None
        #: memoized subtree content hash (see :func:`stmt_hash`); cleared
        #: along the mutation spine by ``replace_expr`` and the
        #: :class:`Program` mutators.
        self._h: Optional[str] = None

    # -- expression slots ---------------------------------------------------

    def expr_slots(self) -> Sequence[Tuple[str, Expr]]:
        """Top-level ``(slot_name, expression)`` pairs of this statement."""
        return ()

    def set_expr_slot(self, slot: str, e: Expr) -> None:
        """Replace the whole expression in ``slot`` with ``e``."""
        raise KeyError(slot)

    # -- structure ----------------------------------------------------------

    def body_slots(self) -> Sequence[str]:
        """Names of the statement-list slots this statement owns."""
        return ()

    def get_body(self, slot: str) -> List["Stmt"]:
        """The statement list behind body slot ``slot``."""
        raise KeyError(slot)

    def clone_shallow(self) -> "Stmt":
        """Clone this statement (deep for expressions, empty bodies)."""
        raise NotImplementedError


class Assign(Stmt):
    """``target = expr`` where target is a :class:`VarRef` or :class:`ArrayRef`."""

    __slots__ = ("target", "expr")

    def __init__(self, target: Expr, expr: Expr):
        super().__init__()
        if not isinstance(target, (VarRef, ArrayRef)):
            raise TypeError("assignment target must be a variable or array reference")
        self.target = target
        self.expr = expr

    def expr_slots(self) -> Sequence[Tuple[str, Expr]]:
        return [("target", self.target), ("expr", self.expr)]

    def set_expr_slot(self, slot: str, e: Expr) -> None:
        if slot == "target":
            if not isinstance(e, (VarRef, ArrayRef)):
                raise TypeError("assignment target must be a variable or array reference")
            self.target = e
        elif slot == "expr":
            self.expr = e
        else:
            raise KeyError(slot)

    def clone_shallow(self) -> "Assign":
        return Assign(self.target.clone(), self.expr.clone())


class Loop(Stmt):
    """A ``do var = lower, upper[, step]`` counted loop."""

    __slots__ = ("var", "lower", "upper", "step", "body")

    def __init__(self, var: str, lower: Expr, upper: Expr, step: Optional[Expr] = None,
                 body: Optional[List[Stmt]] = None):
        super().__init__()
        self.var = var
        self.lower = lower
        self.upper = upper
        self.step = step if step is not None else Const(1)
        self.body: List[Stmt] = body if body is not None else []

    def expr_slots(self) -> Sequence[Tuple[str, Expr]]:
        return [("lower", self.lower), ("upper", self.upper), ("step", self.step)]

    def set_expr_slot(self, slot: str, e: Expr) -> None:
        if slot == "lower":
            self.lower = e
        elif slot == "upper":
            self.upper = e
        elif slot == "step":
            self.step = e
        else:
            raise KeyError(slot)

    def body_slots(self) -> Sequence[str]:
        return ("body",)

    def get_body(self, slot: str) -> List[Stmt]:
        """The statement list behind body slot ``slot``."""
        if slot != "body":
            raise KeyError(slot)
        return self.body

    def clone_shallow(self) -> "Loop":
        return Loop(self.var, self.lower.clone(), self.upper.clone(), self.step.clone(), [])

    def header_equal(self, other: "Loop") -> bool:
        """True when both loops have identical ``var``/bounds/step."""
        return (self.var == other.var and exprs_equal(self.lower, other.lower)
                and exprs_equal(self.upper, other.upper) and exprs_equal(self.step, other.step))


class ParLoop(Loop):
    """A ``doall var = lower, upper[, step]`` parallel loop.

    Iterations are declared independent: the scheduled interpreter
    (:mod:`repro.par.interp`) runs one task per iteration under an
    explicit schedule, and the dependence analysis classifies any
    loop-carried pair at this level as a *violation* rather than an
    ordering edge (:meth:`repro.analysis.depend.DependenceGraph.par_violations`).
    Under the sequential interpreter a DOALL runs in iteration order —
    its canonical schedule — so a race-free DOALL is trace-equivalent to
    the sequential loop it was parallelized from.

    ``ParLoop`` subclasses :class:`Loop` deliberately: enclosing-loop
    chains, direction vectors, header specs and the CFG all treat it as
    a counted loop.  Exact-type checks (``type(s) is Loop``) keep the
    sequential loop transformations from matching it where that matters.
    """

    __slots__ = ()

    def clone_shallow(self) -> "ParLoop":
        return ParLoop(self.var, self.lower.clone(), self.upper.clone(),
                       self.step.clone(), [])


class ParSections(Stmt):
    """``parbegin`` … ``parend``: a fixed set of parallel sections.

    Each section is a statement list; sections are declared independent
    of each other (the scheduled interpreter runs one task per section).
    Body slots are ``sec0`` … ``sec<n-1>`` so the container model, the
    validator and snapshots handle sections like any other nested body.
    """

    __slots__ = ("sections",)

    def __init__(self, sections: Optional[List[List["Stmt"]]] = None):
        super().__init__()
        self.sections: List[List[Stmt]] = \
            sections if sections is not None else []

    def expr_slots(self) -> Sequence[Tuple[str, Expr]]:
        return []

    def set_expr_slot(self, slot: str, e: Expr) -> None:
        raise KeyError(slot)

    def body_slots(self) -> Sequence[str]:
        return tuple(f"sec{i}" for i in range(len(self.sections)))

    def get_body(self, slot: str) -> List["Stmt"]:
        """The statement list behind body slot ``slot``."""
        if slot.startswith("sec"):
            try:
                idx = int(slot[3:])
            except ValueError:
                raise KeyError(slot) from None
            if 0 <= idx < len(self.sections):
                return self.sections[idx]
        raise KeyError(slot)

    def clone_shallow(self) -> "ParSections":
        # the clone must keep the section count: copy machinery iterates
        # the original's body slots and fills the clone's lists
        return ParSections([[] for _ in self.sections])


class IfStmt(Stmt):
    """``if (cond) then ... [else ...] endif``."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond: Expr, then_body: Optional[List[Stmt]] = None,
                 else_body: Optional[List[Stmt]] = None):
        super().__init__()
        self.cond = cond
        self.then_body: List[Stmt] = then_body if then_body is not None else []
        self.else_body: List[Stmt] = else_body if else_body is not None else []

    def expr_slots(self) -> Sequence[Tuple[str, Expr]]:
        return [("cond", self.cond)]

    def set_expr_slot(self, slot: str, e: Expr) -> None:
        if slot == "cond":
            self.cond = e
        else:
            raise KeyError(slot)

    def body_slots(self) -> Sequence[str]:
        return ("then", "else")

    def get_body(self, slot: str) -> List[Stmt]:
        """The statement list behind body slot ``slot``."""
        if slot == "then":
            return self.then_body
        if slot == "else":
            return self.else_body
        raise KeyError(slot)

    def clone_shallow(self) -> "IfStmt":
        return IfStmt(self.cond.clone(), [], [])


class ReadStmt(Stmt):
    """``read target`` — consumes one value from the input stream.

    I/O statements matter because the paper's legality rule (§4.2) forbids
    transformations from reordering I/O; the dependence analysis treats
    every pair of I/O statements as ordered.
    """

    __slots__ = ("target",)

    def __init__(self, target: Expr):
        super().__init__()
        if not isinstance(target, (VarRef, ArrayRef)):
            raise TypeError("read target must be a variable or array reference")
        self.target = target

    def expr_slots(self) -> Sequence[Tuple[str, Expr]]:
        return [("target", self.target)]

    def set_expr_slot(self, slot: str, e: Expr) -> None:
        if slot == "target":
            self.target = e
        else:
            raise KeyError(slot)

    def clone_shallow(self) -> "ReadStmt":
        return ReadStmt(self.target.clone())


class WriteStmt(Stmt):
    """``write expr`` — appends one value to the output trace."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        super().__init__()
        self.expr = expr

    def expr_slots(self) -> Sequence[Tuple[str, Expr]]:
        return [("expr", self.expr)]

    def set_expr_slot(self, slot: str, e: Expr) -> None:
        if slot == "expr":
            self.expr = e
        else:
            raise KeyError(slot)

    def clone_shallow(self) -> "WriteStmt":
        return WriteStmt(self.expr.clone())


# ---------------------------------------------------------------------------
# Expression paths relative to a statement
# ---------------------------------------------------------------------------

#: An expression path: first element is the statement slot name, the rest
#: are expression edge names (``l``/``r``/``e``/``sub<k>``).
ExprPath = Tuple[str, ...]


def expr_at(stmt: Stmt, path: ExprPath) -> Expr:
    """Return the expression subtree addressed by ``path`` within ``stmt``."""
    if not path:
        raise ValueError("empty expression path")
    slot = path[0]
    node: Optional[Expr] = None
    for name, e in stmt.expr_slots():
        if name == slot:
            node = e
            break
    if node is None:
        raise KeyError(f"statement has no expression slot {slot!r}")
    for edge in path[1:]:
        nxt = None
        for name, child in node.children():
            if name == edge:
                nxt = child
                break
        if nxt is None:
            raise KeyError(f"no child {edge!r} under path prefix")
        node = nxt
    return node


def _clear_expr_spine(stmt: Stmt, path: ExprPath) -> None:
    """Drop cached hashes along ``path`` (exclusive of the final node).

    After a replacement at ``path`` every ancestor of the replaced node —
    the slot root down to the direct parent — holds a stale digest; the
    replaced subtree itself and everything off the spine stay valid.
    """
    stmt._h = None
    try:
        node: Optional[Expr] = None
        for name, e in stmt.expr_slots():
            if name == path[0]:
                node = e
                break
        for edge in path[1:-1] if node is not None else ():
            node._h = None
            nxt = None
            for name, child in node.children():
                if name == edge:
                    nxt = child
                    break
            if nxt is None:
                return
            node = nxt
        if node is not None:
            node._h = None
    except Exception:  # pragma: no cover - invalidation must never raise
        pass


def replace_expr(stmt: Stmt, path: ExprPath, new: Expr) -> Expr:
    """Replace the subtree at ``path`` with ``new``; return the old subtree.

    This is the structural workhorse of the ``Modify`` primitive action.
    Cached content hashes are cleared along the spine of the mutation;
    callers remain responsible for ``Program.touch(sid)`` so *ancestor
    statements* get invalidated too.
    """
    if not path:
        raise ValueError("empty expression path")
    if len(path) == 1:
        old = expr_at(stmt, path)
        stmt.set_expr_slot(path[0], new)
        stmt._h = None
        return old
    parent = expr_at(stmt, path[:-1])
    _clear_expr_spine(stmt, path)
    edge = path[-1]
    if isinstance(parent, BinOp):
        if edge == "l":
            old = parent.left
            parent.left = new
            return old
        if edge == "r":
            old = parent.right
            parent.right = new
            return old
    elif isinstance(parent, UnaryOp):
        if edge == "e":
            old = parent.operand
            parent.operand = new
            return old
    elif isinstance(parent, ArrayRef) and edge.startswith("sub"):
        k = int(edge[3:])
        if 0 <= k < len(parent.subscripts):
            old = parent.subscripts[k]
            parent.subscripts[k] = new
            return old
    raise KeyError(f"cannot replace child {edge!r} of {type(parent).__name__}")


def _stmt_hash(stmt: Stmt, cache: bool) -> str:
    if cache:
        h = stmt._h
        if h is not None:
            return h
    parts = [type(stmt).__name__, str(stmt.sid), repr(stmt.label)]
    if isinstance(stmt, Loop):
        parts.append(stmt.var)
    for name, e in stmt.expr_slots():
        parts.append(name)
        parts.append(_expr_hash(e, cache))
    for slot in stmt.body_slots():
        parts.append(slot)
        for child in stmt.get_body(slot):
            parts.append(_stmt_hash(child, cache))
    h = _hash_text(_HSEP.join(parts))
    if cache:
        stmt._h = h
    return h


def stmt_hash(stmt: Stmt) -> str:
    """Memoized Merkle-style subtree hash of one statement.

    Covers the statement type, sid, label, loop index variable, every
    expression slot and every nested statement, so the digest of a root
    statement commits to its entire subtree.  Recomputing after an edit
    only re-hashes the spine: untouched children return their memoized
    digests.
    """
    return _stmt_hash(stmt, True)


def stmt_hash_fresh(stmt: Stmt) -> str:
    """:func:`stmt_hash` without reading or writing any memoized hash."""
    return _stmt_hash(stmt, False)


# ---------------------------------------------------------------------------
# Program container
# ---------------------------------------------------------------------------

#: sid used to denote the top-level statement list of a program.
ROOT_SID = 0

#: A container reference: (container sid, body-slot name).  The program
#: root is ``(ROOT_SID, "body")``.
ContainerRef = Tuple[int, str]


@dataclass
class StmtInfo:
    """Bookkeeping entry for one registered statement."""

    stmt: Stmt
    #: Container currently holding the statement, or ``None`` if detached.
    parent: Optional[ContainerRef] = None
    #: True while the statement is attached to the live program tree.
    attached: bool = False


class Program:
    """A mutable structured program with stable statement identity.

    All structural changes (insert/detach/move) must go through this class
    so the sid registry and parent map remain consistent.  Detached
    statements remain registered: the undo history may re-attach them.
    """

    def __init__(self) -> None:
        self.body: List[Stmt] = []
        self._infos: Dict[int, StmtInfo] = {}
        self._next_sid = ROOT_SID + 1
        #: bumped on every structural or expression mutation; analyses use
        #: it to detect staleness.
        self.version = 0
        #: highest version ever reached; :meth:`probe` rolls ``version``
        #: back but never re-issues a burned number.
        self._version_hwm = 0

    def _bump_version(self) -> None:
        self._version_hwm = max(self._version_hwm, self.version) + 1
        self.version = self._version_hwm

    @contextmanager
    def probe(self) -> Iterator[None]:
        """Scope for a trial mutation that will be perfectly restored.

        Safety checks sometimes re-insert a deleted statement, ask an
        analysis question, and detach it again — a structural no-op that
        must not make event-patched caches look stale.  The version is
        restored on exit; the versions consumed inside are burned (never
        reused), so caches stamped during the probe can never collide
        with a later program state.
        """
        saved = self.version
        try:
            yield
        finally:
            self._version_hwm = max(self._version_hwm, self.version)
            self.version = saved

    # -- registration --------------------------------------------------------

    def register(self, stmt: Stmt) -> int:
        """Assign a fresh sid to ``stmt`` (and, recursively, its body)."""
        if stmt.sid != -1 and stmt.sid in self._infos and self._infos[stmt.sid].stmt is stmt:
            return stmt.sid
        stmt.sid = self._next_sid
        stmt._h = None  # the subtree hash commits to the sid
        self._next_sid += 1
        self._infos[stmt.sid] = StmtInfo(stmt=stmt)
        for slot in stmt.body_slots():
            for child in stmt.get_body(slot):
                self.register(child)
        return stmt.sid

    def node(self, sid: int) -> Stmt:
        """Return the statement with id ``sid`` (attached or detached)."""
        return self._infos[sid].stmt

    def has_node(self, sid: int) -> bool:
        """Whether ``sid`` is registered (attached or detached)."""
        return sid in self._infos

    def is_attached(self, sid: int) -> bool:
        """Whether ``sid`` is part of the live program tree."""
        return sid in self._infos and self._infos[sid].attached

    def parent_of(self, sid: int) -> Optional[ContainerRef]:
        """Container currently holding ``sid`` (``None`` when detached)."""
        return self._infos[sid].parent

    # -- containers -----------------------------------------------------------

    def container_list(self, ref: ContainerRef) -> List[Stmt]:
        """The mutable statement list behind a container reference."""
        sid, slot = ref
        if sid == ROOT_SID:
            if slot != "body":
                raise KeyError(slot)
            return self.body
        return self.node(sid).get_body(slot)

    def container_alive(self, ref: ContainerRef) -> bool:
        """True when the container is part of the live program tree."""
        sid, _slot = ref
        if sid == ROOT_SID:
            return True
        return self.is_attached(sid)

    def index_in_container(self, sid: int) -> int:
        """Position of ``sid`` within its container; raises when detached."""
        ref = self.parent_of(sid)
        if ref is None:
            raise ValueError(f"statement {sid} is detached")
        lst = self.container_list(ref)
        for i, s in enumerate(lst):
            if s.sid == sid:
                return i
        raise AssertionError(f"corrupt parent map for sid {sid}")

    # -- structural mutation ---------------------------------------------------

    def _mark_attached(self, stmt: Stmt, attached: bool) -> None:
        self._infos[stmt.sid].attached = attached
        for slot in stmt.body_slots():
            for child in stmt.get_body(slot):
                self._infos[child.sid].parent = (stmt.sid, slot)
                self._mark_attached(child, attached)

    def insert(self, ref: ContainerRef, index: int, stmt: Stmt) -> None:
        """Insert ``stmt`` (registered, detached) at ``index`` of ``ref``."""
        if stmt.sid == -1 or stmt.sid not in self._infos:
            self.register(stmt)
        info = self._infos[stmt.sid]
        if info.attached:
            raise ValueError(f"statement {stmt.sid} is already attached")
        if not self.container_alive(ref):
            raise ValueError(f"container {ref} is not part of the live program")
        lst = self.container_list(ref)
        index = max(0, min(index, len(lst)))
        lst.insert(index, stmt)
        info.parent = ref
        self._mark_attached(stmt, True)
        self._invalidate_spine(ref[0])
        self._bump_version()

    def detach(self, sid: int) -> Stmt:
        """Remove ``sid`` from its container; keeps it registered."""
        info = self._infos[sid]
        if not info.attached:
            raise ValueError(f"statement {sid} is already detached")
        ref = info.parent
        assert ref is not None
        lst = self.container_list(ref)
        lst.remove(info.stmt)
        self._invalidate_spine(ref[0])
        info.parent = None
        self._mark_attached(info.stmt, False)
        # a detached statement keeps no parent, but its children keep
        # pointing at it so re-attachment restores the whole subtree.
        info.parent = None
        self._bump_version()
        return info.stmt

    def move_stmt(self, sid: int, ref: ContainerRef, index: int) -> None:
        """Relocate an attached statement to ``(ref, index)``."""
        stmt = self.detach(sid)
        self.insert(ref, index, stmt)

    def _invalidate_spine(self, sid: int) -> None:
        """Clear cached subtree hashes from ``sid`` up to the root."""
        while sid != ROOT_SID:
            info = self._infos.get(sid)
            if info is None:
                return
            info.stmt._h = None
            ref = info.parent
            if ref is None:
                return
            sid = ref[0]

    def touch(self, sid: Optional[int] = None) -> None:
        """Record a non-structural (expression) mutation.

        With ``sid``, only the mutated statement's spine loses its cached
        content hashes; without one (legacy callers that batch several
        in-place swaps), every cached statement hash is dropped.
        """
        if sid is None:
            for info in self._infos.values():
                info.stmt._h = None
        else:
            info = self._infos.get(sid)
            if info is not None:
                info.stmt._h = None
                if info.parent is not None:
                    self._invalidate_spine(info.parent[0])
        self._bump_version()

    # -- traversal ---------------------------------------------------------------

    def walk(self) -> Iterator[Stmt]:
        """Yield every attached statement in source order (preorder)."""
        def go(stmts: List[Stmt]) -> Iterator[Stmt]:
            for s in stmts:
                yield s
                for slot in s.body_slots():
                    yield from go(s.get_body(slot))
        yield from go(self.body)

    def attached_sids(self) -> List[int]:
        """Sids of every attached statement, in source order."""
        return [s.sid for s in self.walk()]

    def enclosing_loops(self, sid: int) -> List[Loop]:
        """Loops containing ``sid``, outermost first."""
        chain: List[Loop] = []
        ref = self.parent_of(sid)
        while ref is not None and ref[0] != ROOT_SID:
            parent = self.node(ref[0])
            if isinstance(parent, Loop):
                chain.append(parent)
            ref = self.parent_of(parent.sid)
        chain.reverse()
        return chain

    def ancestors(self, sid: int) -> List[int]:
        """Sids of enclosing statements, innermost first."""
        out: List[int] = []
        ref = self.parent_of(sid)
        while ref is not None and ref[0] != ROOT_SID:
            out.append(ref[0])
            ref = self.parent_of(ref[0])
        return out

    # -- cloning -------------------------------------------------------------------

    def clone_subtree(self, stmt: Stmt) -> Stmt:
        """Deep-copy ``stmt``; clones are registered with fresh sids."""
        copy = stmt.clone_shallow()
        copy.label = stmt.label
        self.register(copy)
        for slot in stmt.body_slots():
            dst = copy.get_body(slot)
            for child in stmt.get_body(slot):
                cchild = self.clone_subtree(child)
                dst.append(cchild)
                self._infos[cchild.sid].parent = (copy.sid, slot)
        return copy

    def snapshot(self) -> "Program":
        """A fully independent structural copy (fresh sid space)."""
        other = Program()
        for s in self.body:
            cs = _copy_into(other, s)
            other.insert((ROOT_SID, "body"), len(other.body), cs)
        return other


def _copy_into(dst: Program, stmt: Stmt) -> Stmt:
    copy = stmt.clone_shallow()
    copy.label = stmt.label
    dst.register(copy)
    for slot in stmt.body_slots():
        body = copy.get_body(slot)
        for child in stmt.get_body(slot):
            c = _copy_into(dst, child)
            body.append(c)
            dst._infos[c.sid].parent = (copy.sid, slot)
            dst._mark_attached(c, False)
    return copy


def stmts_equal(a: Stmt, b: Stmt) -> bool:
    """Structural equality of statements (ignores sids/labels)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Assign):
        assert isinstance(b, Assign)
        return exprs_equal(a.target, b.target) and exprs_equal(a.expr, b.expr)
    if isinstance(a, Loop):
        assert isinstance(b, Loop)
        return (a.var == b.var and exprs_equal(a.lower, b.lower)
                and exprs_equal(a.upper, b.upper) and exprs_equal(a.step, b.step)
                and bodies_equal(a.body, b.body))
    if isinstance(a, ParSections):
        assert isinstance(b, ParSections)
        return (len(a.sections) == len(b.sections)
                and all(bodies_equal(x, y)
                        for x, y in zip(a.sections, b.sections)))
    if isinstance(a, IfStmt):
        assert isinstance(b, IfStmt)
        return (exprs_equal(a.cond, b.cond) and bodies_equal(a.then_body, b.then_body)
                and bodies_equal(a.else_body, b.else_body))
    if isinstance(a, ReadStmt):
        assert isinstance(b, ReadStmt)
        return exprs_equal(a.target, b.target)
    if isinstance(a, WriteStmt):
        assert isinstance(b, WriteStmt)
        return exprs_equal(a.expr, b.expr)
    raise TypeError(f"unknown statement node: {a!r}")


def bodies_equal(a: Sequence[Stmt], b: Sequence[Stmt]) -> bool:
    """Structural equality of two statement lists."""
    return len(a) == len(b) and all(stmts_equal(x, y) for x, y in zip(a, b))


def programs_equal(a: Program, b: Program) -> bool:
    """Structural equality of two programs (ignores sids/labels/history)."""
    return bodies_equal(a.body, b.body)


# ---------------------------------------------------------------------------
# Def/use extraction (statement-local; flow analyses build on these)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefUse:
    """Scalar/array definitions and uses of a single statement.

    Array accesses are tracked at array granularity for scalar dataflow;
    the subscript-precise treatment lives in :mod:`repro.analysis.depend`.
    """

    defs: frozenset  # scalar names defined
    uses: frozenset  # scalar names used
    array_defs: frozenset  # array names stored to
    array_uses: frozenset  # array names loaded from
    is_io: bool = False


def stmt_defuse(stmt: Stmt) -> DefUse:
    """Compute the local def/use sets of one statement (header only for
    loops/ifs: their bodies are separate statements)."""
    if isinstance(stmt, Assign):
        uses = expr_vars(stmt.expr)
        ause = expr_arrays(stmt.expr)
        if isinstance(stmt.target, VarRef):
            return DefUse(frozenset([stmt.target.name]), frozenset(uses),
                          frozenset(), frozenset(ause))
        # array element store: subscripts are uses
        subs_u: Set[str] = set()
        subs_a: Set[str] = set()
        for s in stmt.target.subscripts:
            subs_u |= expr_vars(s)
            subs_a |= expr_arrays(s)
        return DefUse(frozenset(), frozenset(uses | subs_u),
                      frozenset([stmt.target.name]), frozenset(ause | subs_a))
    if isinstance(stmt, Loop):
        u = expr_vars(stmt.lower) | expr_vars(stmt.upper) | expr_vars(stmt.step)
        a = expr_arrays(stmt.lower) | expr_arrays(stmt.upper) | expr_arrays(stmt.step)
        return DefUse(frozenset([stmt.var]), frozenset(u), frozenset(), frozenset(a))
    if isinstance(stmt, ParSections):
        # no header expressions; sections are separate statements
        return DefUse(frozenset(), frozenset(), frozenset(), frozenset())
    if isinstance(stmt, IfStmt):
        return DefUse(frozenset(), frozenset(expr_vars(stmt.cond)),
                      frozenset(), frozenset(expr_arrays(stmt.cond)))
    if isinstance(stmt, ReadStmt):
        if isinstance(stmt.target, VarRef):
            return DefUse(frozenset([stmt.target.name]), frozenset(),
                          frozenset(), frozenset(), is_io=True)
        subs_u = set()
        for s in stmt.target.subscripts:
            subs_u |= expr_vars(s)
        return DefUse(frozenset(), frozenset(subs_u),
                      frozenset([stmt.target.name]), frozenset(), is_io=True)
    if isinstance(stmt, WriteStmt):
        return DefUse(frozenset(), frozenset(expr_vars(stmt.expr)),
                      frozenset(), frozenset(expr_arrays(stmt.expr)), is_io=True)
    raise TypeError(f"unknown statement node: {stmt!r}")
