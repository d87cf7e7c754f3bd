"""Property I/O: input boxes plus output margin constraints.

The text format is the SMT-LIB flavored subset used by common verification
benchmarks: declare-const X_i/Y_i Real, input bounds as asserts over X, and
output asserts over Y written in counterexample convention (the file asserts
the event to refute). Internally a property is a margin system: verified
means C @ f(x) + d >= 0 for every x in the box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import Box
from .errors import ContractError, ParseError

MODE_ANY = "any"  # bad event is a disjunction of atoms; margin semantics exact
MODE_ALL = "all"  # bad event is a conjunction; proving all rows is sound but conservative


@dataclass(frozen=True)
class PropertySpec:
    """Box and margin rows to prove nonnegative over it.

    Each row came from one asserted atom of the refutation query; proving
    row @ y + offset >= 0 for all x rules that atom out. mode records whether
    the atoms were a disjunction (robustness form, exact) or a conjunction
    (proving every row is then sufficient, not necessary).
    """

    box: Box
    rows: np.ndarray
    offsets: np.ndarray
    mode: str = MODE_ANY
    name: str = "property"
    notes: tuple = ()

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        offs = np.asarray(self.offsets, dtype=np.float64).reshape(-1)
        if rows.ndim != 2 or offs.shape != (rows.shape[0],):
            raise ContractError(f"margin system shapes {rows.shape} / {offs.shape} do not agree")
        if self.mode not in (MODE_ANY, MODE_ALL):
            raise ContractError(f"unknown property mode {self.mode!r}")
        if not (np.isfinite(rows).all() and np.isfinite(offs).all()):
            raise ContractError("margin rows and offsets must be finite")
        # zero rows is the vacuous property: verified by definition
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "offsets", offs)

    @property
    def n_outputs(self) -> int:
        return self.rows.shape[1]

    def margins(self, y) -> np.ndarray:
        return self.rows @ np.asarray(y, dtype=np.float64) + self.offsets

    def counterexamples(self, ys) -> np.ndarray:
        """For each output vector, a row of ys (n, n_outputs), whether it breaks the property.

        A vector breaks it when some margin (any mode) or every margin (all
        mode) is strictly negative. A property with no rows is vacuous: no
        vector breaks it, in either mode.
        """
        ys = np.asarray(ys, dtype=np.float64)
        if self.rows.shape[0] == 0:
            return np.zeros(ys.shape[0], bool)
        negative = ys @ self.rows.T + self.offsets < 0
        return negative.any(axis=1) if self.mode == MODE_ANY else negative.all(axis=1)

    def is_counterexample(self, y) -> bool:
        return bool(self.counterexamples(np.asarray(y)[None])[0])


def robustness_spec(box: Box, label: int, n_outputs: int, name: str = "robustness") -> PropertySpec:
    """Margins y_label - y_j for all j != label; the usual argmax property."""
    if not 0 <= label < n_outputs:
        raise ContractError(f"label {label} out of range for {n_outputs} outputs")
    rows = []
    for j in range(n_outputs):
        if j == label:
            continue
        c = np.zeros(n_outputs)
        c[label], c[j] = 1.0, -1.0
        rows.append(c)
    mat = np.array(rows).reshape(len(rows), n_outputs)
    return PropertySpec(box, mat, np.zeros(len(rows)), MODE_ANY, name)


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text: str):
    toks = []
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split(";", 1)[0]
        for raw in body.replace("(", " ( ").replace(")", " ) ").split():
            toks.append((raw, ln))
    return toks


def _parse_sexprs(toks):
    pos = 0

    def walk():
        nonlocal pos
        tok, ln = toks[pos]
        pos += 1
        if tok == "(":
            out = []
            while pos < len(toks) and toks[pos][0] != ")":
                out.append(walk())
            if pos >= len(toks):
                raise ParseError(f"line {ln}: unclosed parenthesis")
            pos += 1
            return out
        if tok == ")":
            raise ParseError(f"line {ln}: unexpected ')'")
        return (tok, ln)

    forms = []
    while pos < len(toks):
        forms.append(walk())
    return forms


def _head(form):
    if isinstance(form, list) and form and isinstance(form[0], tuple):
        return form[0][0]
    return None


def _line(form) -> int:
    while isinstance(form, list):
        form = form[0]
    return form[1]


def _as_term(e):
    """Classify a leaf or (- c) as ('x'|'y', index) or ('c', value)."""
    if isinstance(e, list):
        if _head(e) == "-" and len(e) == 2:
            kind, v = _as_term(e[1])
            if kind != "c":
                raise ParseError(f"line {_line(e)}: negation of a variable is not supported")
            return "c", -v
        raise ParseError(f"line {_line(e)}: expected a variable or a number")
    tok, ln = e
    if tok.startswith("X_") or tok.startswith("Y_"):
        try:
            idx = int(tok[2:])
        except ValueError:
            raise ParseError(f"line {ln}: malformed variable name {tok!r}") from None
        if idx < 0:
            raise ParseError(f"line {ln}: negative variable index in {tok!r}")
        return ("x" if tok[0] == "X" else "y", idx)
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(f"line {ln}: expected a variable or a number, got {tok!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"line {ln}: {tok!r} is not a finite number")
    return "c", value


@dataclass
class _Atom:
    op: str  # normalized to <= or >=
    lhs: tuple
    rhs: tuple
    line: int


def _as_atom(form) -> _Atom:
    if not isinstance(form, list) or len(form) != 3 or _head(form) not in ("<=", ">="):
        raise ParseError(f"line {_line(form)}: expected a (<= a b) or (>= a b) atom")
    op = form[0][0]
    lhs, rhs = _as_term(form[1]), _as_term(form[2])
    if lhs[0] == "c" and rhs[0] != "c":
        lhs, rhs = rhs, lhs
        op = ">=" if op == "<=" else "<="
    return _Atom(op, lhs, rhs, _line(form))


def parse_vnnlib(text: str, name: str = "property") -> PropertySpec:
    """Parse a property file; raises ParseError with line numbers."""
    forms = _parse_sexprs(_tokenize(text))
    declared_x: set[int] = set()
    declared_y: set[int] = set()
    in_atoms: list[_Atom] = []
    out_groups: list[list[_Atom]] = []
    top_out_atoms: list[_Atom] = []
    notes: list[str] = []
    saw_or = False

    for form in forms:
        head = _head(form)
        if head == "declare-const":
            if len(form) != 3 or not isinstance(form[1], tuple):
                raise ParseError(f"line {_line(form)}: malformed declare-const")
            kind, idx = _as_term(form[1])
            if kind == "c":
                raise ParseError(f"line {_line(form)}: declare-const needs an X_i or Y_i name")
            (declared_x if kind == "x" else declared_y).add(idx)
        elif head == "assert":
            if len(form) != 2:
                raise ParseError(f"line {_line(form)}: assert takes exactly one formula")
            body = form[1]
            if _head(body) == "or":
                if saw_or or top_out_atoms:
                    raise ParseError(
                        f"line {_line(body)}: mixing multiple disjunctions or disjunction "
                        "with plain output atoms is not supported"
                    )
                saw_or = True
                for disj in body[1:]:
                    atoms = (
                        [_as_atom(a) for a in disj[1:]]
                        if _head(disj) == "and"
                        else [_as_atom(disj)]
                    )
                    if len(atoms) != 1:
                        raise ParseError(
                            f"line {_line(disj)}: disjuncts with more than one atom "
                            "are not supported"
                        )
                    out_groups.append(atoms)
            elif _head(body) == "and":
                for a in body[1:]:
                    _route_atom(_as_atom(a), in_atoms, top_out_atoms, saw_or)
            else:
                _route_atom(_as_atom(body), in_atoms, top_out_atoms, saw_or)
        elif head in ("set-logic", "check-sat", "exit", "get-model"):
            continue
        else:
            raise ParseError(f"line {_line(form)}: unsupported form ({head})")

    box = _build_box(declared_x, in_atoms)
    if saw_or:
        atoms = [g[0] for g in out_groups]
        mode = MODE_ANY
    else:
        atoms = top_out_atoms
        mode = MODE_ANY if len(top_out_atoms) <= 1 else MODE_ALL
        if mode == MODE_ALL:
            notes.append("conjunctive output constraints: rows are refuted one by one")
    if not atoms:
        raise ParseError("property has no output constraints")
    n_out = max(declared_y, default=-1) + 1
    for a in atoms:
        for t in (a.lhs, a.rhs):
            if t[0] == "y":
                n_out = max(n_out, t[1] + 1)
    rows, offsets = _atoms_to_rows(atoms, n_out)
    return PropertySpec(box, rows, offsets, mode, name, tuple(notes))


def _route_atom(atom: _Atom, in_atoms, out_atoms, saw_or: bool):
    kinds = {atom.lhs[0], atom.rhs[0]}
    if "x" in kinds and "y" in kinds:
        raise ParseError(f"line {atom.line}: atoms mixing X and Y are not supported")
    if "x" in kinds:
        in_atoms.append(atom)
    else:
        if saw_or:
            raise ParseError(
                f"line {atom.line}: plain output atoms after a disjunction are not supported"
            )
        out_atoms.append(atom)


def _build_box(declared: set, atoms: list) -> Box:
    if not declared:
        raise ParseError("no X variables are declared")
    n = max(declared) + 1
    if declared != set(range(n)):
        missing = sorted(set(range(n)) - declared)
        raise ParseError(f"X variables are not dense: missing indices {missing}")
    lower: list = [None] * n  # None: no bound asserted yet
    upper: list = [None] * n
    for a in atoms:
        if a.lhs[0] != "x" or a.rhs[0] != "c":
            raise ParseError(f"line {a.line}: input atoms must compare one X with a constant")
        i, c = a.lhs[1], a.rhs[1]
        if i >= n:
            raise ParseError(f"line {a.line}: X_{i} was never declared")
        if a.op == "<=":
            upper[i] = c if upper[i] is None else min(upper[i], c)
        else:
            lower[i] = c if lower[i] is None else max(lower[i], c)
    missing = [f"X_{i}" for i in range(n) if lower[i] is None or upper[i] is None]
    if missing:
        raise ParseError(f"inputs missing a lower or upper bound: {', '.join(missing)}")
    return Box(lower, upper)


def _atoms_to_rows(atoms: list, n_out: int):
    rows = np.zeros((len(atoms), n_out))
    offsets = np.zeros(len(atoms))
    for k, a in enumerate(atoms):
        if a.lhs[0] != "y":
            raise ParseError(f"line {a.line}: output atom must have a Y on the left")
        i = a.lhs[1]
        if a.rhs[0] == "y":
            j = a.rhs[1]
            # asserted y_i <= y_j is refuted by y_i - y_j >= 0 (and mirrored)
            if a.op == "<=":
                rows[k, i] += 1.0
                rows[k, j] -= 1.0
            else:
                rows[k, j] += 1.0
                rows[k, i] -= 1.0
        else:
            c = a.rhs[1]
            if a.op == "<=":  # asserted y_i <= c; refute with y_i - c >= 0
                rows[k, i] = 1.0
                offsets[k] = -c
            else:  # asserted y_i >= c; refute with c - y_i >= 0
                rows[k, i] = -1.0
                offsets[k] = c
    return rows, offsets


def _read_text(path) -> str:
    """A UTF-8 text file's contents; ParseError naming the file when it is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text (byte {e.start})") from None


def load_vnnlib(path, name: str | None = None) -> PropertySpec:
    """Parse a property file; a ParseError names the file."""
    text = _read_text(path)
    try:
        return parse_vnnlib(text, name=name or str(path))
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# emission


def _fmt(v: float) -> str:
    return repr(float(v))


def _row_to_atom(row: np.ndarray, offset: float, line_hint: int) -> str:
    nz = np.nonzero(row)[0]
    if len(nz) == 2 and offset == 0.0:
        i, j = nz
        if row[i] == 1.0 and row[j] == -1.0:
            return f"(<= Y_{i} Y_{j})"
        if row[i] == -1.0 and row[j] == 1.0:
            return f"(<= Y_{j} Y_{i})"
    if len(nz) == 1:
        i = nz[0]
        if row[i] == 1.0:
            return f"(<= Y_{i} {_fmt(-offset)})"
        if row[i] == -1.0:
            return f"(>= Y_{i} {_fmt(offset)})"
    raise ContractError(
        f"margin row {line_hint} is not a unit or difference constraint; cannot be emitted"
    )


def emit_vnnlib(spec: PropertySpec) -> str:
    """Canonical text for a property; parse(emit(spec)) reproduces the system."""
    out = [f"; {spec.name}"]
    n_in = spec.box.dim
    for i in range(n_in):
        out.append(f"(declare-const X_{i} Real)")
    for i in range(spec.n_outputs):
        out.append(f"(declare-const Y_{i} Real)")
    out.append("")
    for i in range(n_in):
        out.append(f"(assert (>= X_{i} {_fmt(spec.box.lower[i])}))")
        out.append(f"(assert (<= X_{i} {_fmt(spec.box.upper[i])}))")
    out.append("")
    atoms = [_row_to_atom(spec.rows[k], float(spec.offsets[k]), k) for k in range(len(spec.rows))]
    if len(atoms) == 1:
        out.append(f"(assert {atoms[0]})")
    elif spec.mode == MODE_ANY:
        out.append("(assert (or")
        out.extend(f"  (and {a})" for a in atoms)
        out.append("))")
    else:
        out.extend(f"(assert {a})" for a in atoms)
    out.append("")
    return "\n".join(out)


def save_vnnlib(spec: PropertySpec, path):
    with open(path, "w") as fh:
        fh.write(emit_vnnlib(spec))


# ---------------------------------------------------------------------------
# input regions from centers


def epsilon_ball(center, eps: float, clip=None) -> Box:
    """Axis-aligned eps-ball around a point, optionally clipped to a range [lo, hi].

    The clip range must meet the ball in every dimension; a range that
    misses it would leave a box outside the ball.
    """
    c = np.asarray(center, dtype=np.float64).ravel()
    if eps < 0:
        raise ContractError("eps must be nonnegative")
    lo, hi = c - eps, c + eps
    if clip is not None:
        a, b = float(clip[0]), float(clip[1])
        if not a <= b:
            raise ContractError(f"clip range [{a}, {b}] is empty")
        if ((hi < a) | (lo > b)).any():
            raise ContractError(f"clip range [{a}, {b}] misses the eps-ball in some dimension")
        lo, hi = np.clip(lo, a, b), np.clip(hi, a, b)
    return Box(lo, hi)


def load_center(path) -> np.ndarray:
    """Point from a text file: one value per line, or comma separated."""
    vals = [tok for tok in _read_text(path).replace(",", " ").split() if tok]
    if not vals:
        raise ParseError(f"{path}: no values found")
    try:
        return np.array([float(v) for v in vals])
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None
