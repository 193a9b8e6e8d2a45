"""Synthesis of reversible oracles: truth-table DNF banks, Boolean-expression
circuits with ancilla mirrors, phase oracles, CNOT banks for linear functions,
Toffoli ladders, and modular-arithmetic permutation operators.

An oracle |x>|y> -> |x>|y xor f(x)> is an ``XorOracle``, kept as its table
of f, not as a 2**(m+n) ``PermutationOracle`` mapping.

Truth-table synthesis is deliberately verbatim disjunctive normal form, one
multi-controlled X per output 1; no logic minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, require_qubits, simulate
from .gates import GateApplication, inverse_permutation, xor_mapping
from .numtheory import mult_order
from .qstate import StateVector, _bitstring


@dataclass(frozen=True)
class TruthTable:
    """Rows of output bitstrings, indexed by input value."""

    n_in: int
    n_out: int
    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        if len(rows) != 1 << self.n_in:
            raise ValueError(f"expected {1 << self.n_in} rows")
        if any(len(r) != self.n_out or set(r) - {"0", "1"} for r in rows):
            raise ValueError(f"every row must be a {self.n_out}-bit string")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_function(cls, n_in: int, n_out: int, f) -> "TruthTable":
        rows = []
        for x in range(1 << n_in):
            out = f(_bitstring(x, n_in))
            rows.append(out if isinstance(out, str) else _bitstring(out, n_out))
        return cls(n_in, n_out, tuple(rows))

    @classmethod
    def from_text(cls, text: str) -> "TruthTable":
        """One line per input: ``<input bits> <output bits>``."""
        pairs = {}
        n_in = n_out = None
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            inp, out = line.split()
            if n_in is None:
                n_in, n_out = len(inp), len(out)
            if len(inp) != n_in or len(out) != n_out:
                raise ValueError("inconsistent widths in truth table text")
            pairs[int(inp, 2)] = out
        if n_in is None or len(pairs) != 1 << n_in:
            raise ValueError("truth table text must cover every input exactly once")
        return cls(n_in, n_out, tuple(pairs[x] for x in range(1 << n_in)))

    def to_text(self) -> str:
        return "\n".join(f"{_bitstring(x, self.n_in)} {row}" for x, row in enumerate(self.rows))

    def output_int(self, x: int) -> int:
        return int(self.rows[x], 2)


class BooleanExpr:
    """AST node over {var, not, and, or, xor}."""

    def evaluate(self, bits: str) -> int:
        raise NotImplementedError

    def max_var(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(BooleanExpr):
    index: int

    def evaluate(self, bits):
        return int(bits[self.index])

    def max_var(self):
        return self.index


@dataclass(frozen=True)
class Not(BooleanExpr):
    child: BooleanExpr

    def evaluate(self, bits):
        return 1 - self.child.evaluate(bits)

    def max_var(self):
        return self.child.max_var()


class _Nary(BooleanExpr):
    def __init__(self, *children):
        if len(children) < 2:
            raise ValueError("need at least two operands")
        self.children = tuple(children)

    def max_var(self):
        return max(c.max_var() for c in self.children)


class And(_Nary):
    def evaluate(self, bits):
        return int(all(c.evaluate(bits) for c in self.children))


class Or(_Nary):
    def evaluate(self, bits):
        return int(any(c.evaluate(bits) for c in self.children))


@dataclass(frozen=True)
class Xor(BooleanExpr):
    left: BooleanExpr
    right: BooleanExpr

    def evaluate(self, bits):
        return self.left.evaluate(bits) ^ self.right.evaluate(bits)

    def max_var(self):
        return max(self.left.max_var(), self.right.max_var())


@dataclass(frozen=True, eq=False)
class PermutationOracle:
    """Bijection on basis indices: a circuit operator whose ``"map"`` kernel moves |x> to |mapping[x]>."""

    total_qubits: int
    mapping: np.ndarray

    name = "oracle"
    _kind = "map"

    def __post_init__(self):
        mapping = np.asarray(self.mapping, dtype=np.int64)
        dim = 1 << self.total_qubits
        if mapping.shape != (dim,):
            raise ValueError("mapping length must be 2**total_qubits")
        # dim values in range that hit every index form a bijection: one O(dim) scatter, no sort
        hit = np.zeros(dim, dtype=bool)
        if mapping.min() >= 0 and mapping.max() < dim:
            hit[mapping] = True
        if not hit.all():
            raise ValueError("mapping is not a permutation")
        mapping.setflags(write=False)
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "_operand", mapping)

    @property
    def arity(self) -> int:
        return self.total_qubits

    def power(self, e: int) -> "PermutationOracle":
        """Composition power by repeated squaring of the mapping; a negative e powers the inverse."""
        if e < 0:
            return PermutationOracle(self.total_qubits, inverse_permutation(self.mapping)).power(-e)
        result = np.arange(1 << self.total_qubits)
        base = self.mapping
        while e:
            if e & 1:
                result = base[result]
            base = base[base]
            e >>= 1
        return PermutationOracle(self.total_qubits, result)

    def is_involution(self) -> bool:
        return bool(np.array_equal(self.mapping[self.mapping], np.arange(len(self.mapping))))


@dataclass(frozen=True, eq=False)
class XorOracle:
    """|x>|y> -> |x>|y xor values[x]>, y on the last ``n_out`` qubits: a circuit operator of kind
    ``"xor"``. Any values below 2**n_out make a bijection, so only their range is checked."""

    values: np.ndarray
    n_out: int

    name = "oracle"
    _kind = "xor"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        if values.ndim != 1 or values.size & (values.size - 1) or not values.size:
            raise ValueError("the value table's length must be a power of 2")
        if values.min() < 0 or values.max() >= 1 << self.n_out:
            raise ValueError(f"every value must lie in [0, 2**{self.n_out})")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_operand", values)

    @property
    def total_qubits(self) -> int:
        return self.values.size.bit_length() - 1 + self.n_out

    arity = total_qubits

    @property
    def mapping(self) -> np.ndarray:
        """The 2**(m+n_out) permutation of basis indices, built on each read."""
        return xor_mapping(self.values, self.n_out)

    def power(self, e: int) -> "XorOracle":
        """Itself for odd e, the identity (an XOR by 0) for even e."""
        return self if e % 2 else XorOracle(np.zeros_like(self.values), self.n_out)

    def is_involution(self) -> bool:
        return True


def apply_permutation(s: StateVector, oracle: PermutationOracle, targets=None, controls=()) -> StateVector:
    """Apply |x> -> |perm(x)> on ``targets`` where all control bits match: a one-op program."""
    targets = range(oracle.total_qubits) if targets is None else targets
    return simulate(Circuit(s.num_qubits, [GateApplication(oracle, tuple(targets), tuple(controls))]), s)


def _row_controls(x: int, n: int):
    """Controls matching the input bits of row x, most significant first."""
    return tuple((j, (x >> (n - 1 - j)) & 1) for j in range(n))


def synth_bit_oracle(tt: TruthTable) -> Circuit:
    """DNF oracle |x>|j> -> |x>|j xor f(x)> for a single-output table."""
    if tt.n_out != 1:
        raise ValueError("single-output table required")
    c = Circuit(tt.n_in + 1)
    for x, row in enumerate(tt.rows):
        if row == "1":
            c.mcx(_row_controls(x, tt.n_in), tt.n_in)
    return c


def synth_multi_oracle(tt: TruthTable) -> Circuit:
    """One Toffoli bank per output column: |x>|y> -> |x>|y xor f(x)> bitwise."""
    c = Circuit(tt.n_in + tt.n_out)
    for j in range(tt.n_out):
        for x, row in enumerate(tt.rows):
            if row[j] == "1":
                c.mcx(_row_controls(x, tt.n_in), tt.n_in + j)
    return c


def require_bitstrings(marked, n: int) -> None:
    """Refuse the first marked string that is not a bit string of length n."""
    for bits in marked:
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ValueError(f"marked string {bits!r} is not a bit string of length {n}")


def synth_phase_oracle(n: int, marked) -> Circuit:
    """Diagonal oracle flipping the sign of exactly the marked basis strings.

    Each marked string contributes a multi-controlled Z realized by an
    H-conjugated (and X-conjugated, for a trailing 0 bit) multi-controlled X
    on the last qubit.
    """
    marked = sorted(marked)
    require_bitstrings(marked, n)
    c = Circuit(n)
    for bits in marked:
        controls = tuple((j, int(bits[j])) for j in range(n - 1))
        flip_last = bits[n - 1] == "0"
        if flip_last:
            c.x(n - 1)
        c.h(n - 1)
        c.mcx(controls, n - 1)
        c.h(n - 1)
        if flip_last:
            c.x(n - 1)
    return c


def synth_bv_oracle(s: str) -> Circuit:
    """CNOT bank for the linear function x -> s.x; one CNOT per set bit of s."""
    n = len(s)
    if set(s) - {"0", "1"}:
        raise ValueError("hidden string must be binary")
    c = Circuit(n + 1)
    for i, bit in enumerate(s):
        if bit == "1":
            c.cx(i, n)
    return c


def _dedupe_controls(pairs):
    """Merge repeated control qubits; None signals a contradictory pair."""
    merged = {}
    for q, v in pairs:
        if merged.setdefault(q, v) != v:
            return None
    return tuple(sorted(merged.items()))


class _ExprCompiler:
    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.next_ancilla = n_vars
        self.gates = []  # (controls, target, kind) with kind in {"mcx", "x"}
        self.last_own_start = 0

    def alloc(self) -> int:
        q = self.next_ancilla
        self.next_ancilla += 1
        return q

    def emit(self, node):
        """Returns (qubit, negated) for the node's value wire."""
        if isinstance(node, Var):
            if node.index >= self.n_vars:
                raise ValueError("variable index exceeds the declared arity")
            return node.index, False
        if isinstance(node, Not):
            q, neg = self.emit(node.child)
            return q, not neg
        if isinstance(node, (And, Or)):
            wires = [self.emit(child) for child in node.children]
            start = len(self.gates)
            anc = self.alloc()
            if isinstance(node, And):
                controls = _dedupe_controls((q, 0 if neg else 1) for q, neg in wires)
                # contradictory literals never fire: the ancilla stays 0 (false)
                if controls is not None:
                    self.gates.append((controls, anc, "mcx"))
            else:
                # a or b = not (not a and not b); ancilla starts at 1 via an X
                self.gates.append(((), anc, "x"))
                controls = _dedupe_controls((q, 1 if neg else 0) for q, neg in wires)
                if controls is not None:
                    self.gates.append((controls, anc, "mcx"))
            self.last_own_start = start
            return anc, False
        if isinstance(node, Xor):
            wires = [self.emit(node.left), self.emit(node.right)]
            start = len(self.gates)
            anc = self.alloc()
            parity_flip = False
            for q, neg in wires:
                self.gates.append((((q, 1),), anc, "mcx"))
                parity_flip ^= neg
            if parity_flip:
                self.gates.append(((), anc, "x"))
            self.last_own_start = start
            return anc, False
        raise TypeError(f"not a Boolean expression node: {node!r}")


def expr_to_circuit(e: BooleanExpr, uncompute: bool = True, n_vars: int | None = None):
    """Compile an expression into a reversible circuit.

    Returns (circuit, result_qubit, ancilla_count). Ancillas sit above the
    input register and all start in |0>; an OR ancilla's textbook |1> init is
    realized by an explicit X gate. With ``uncompute`` every ancilla except
    the result is restored on every basis input.
    """
    if n_vars is None:
        n_vars = e.max_var() + 1
    compiler = _ExprCompiler(n_vars)
    q, negated = compiler.emit(e)
    if isinstance(e, Var):
        result, root_start = q, len(compiler.gates)
    elif negated:
        root_start = len(compiler.gates)
        result = compiler.alloc()
        compiler.gates.append((((q, 0),), result, "mcx"))
    else:
        result, root_start = q, compiler.last_own_start

    gates = list(compiler.gates)
    if uncompute:
        gates += reversed(gates[:root_start])

    c = Circuit(max(compiler.next_ancilla, n_vars))
    for controls, target, kind in gates:
        if kind == "x":
            c.x(target)
        else:
            c.mcx(controls, target)
    return c, result, compiler.next_ancilla - n_vars


def toffoli_ladder(n_controls: int) -> Circuit:
    """Decompose an n-controlled X into 2(n-2)+1 plain Toffolis.

    Layout: controls 0..n-1, target n, ancillas n+1..2n-2 (initialized |0>
    and restored by the mirror half).
    """
    if n_controls < 3:
        raise ValueError("ladder decomposition needs at least 3 controls")
    k = n_controls
    c = Circuit(2 * k - 1)
    target = k
    first_anc = k + 1
    chain = [(0, 1, first_anc)]
    for i in range(2, k - 1):
        chain.append((i, first_anc + i - 2, first_anc + i - 1))
    for c1, c2, t in chain:
        c.ccx(c1, c2, t)
    c.ccx(k - 1, first_anc + k - 3, target)
    for c1, c2, t in reversed(chain):
        c.ccx(c1, c2, t)
    return c


def _modexp_sizes(modulus: int, q: int):
    if q < 2 or q & (q - 1):
        raise ValueError("exponent-register dimension must be a power of 2")
    m = q.bit_length() - 1
    n = max((modulus - 1).bit_length(), 1)
    return m, n


def _power_table(a: int, modulus: int, count: int) -> np.ndarray:
    """a**e mod modulus for e < count: one period of mult_order(a, modulus) powers, tiled."""
    period = [1]
    for _ in range(mult_order(a, modulus) - 1):
        period.append(period[-1] * a % modulus)
    return np.resize(np.array(period, dtype=np.int64), count)


def modexp_oracle(a: int, modulus: int, q: int) -> XorOracle:
    """Permutation (l, y) -> (l, y xor (a**l mod modulus)) on log2(q)+ceil(log2 N) qubits."""
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not invertible modulo {modulus}")
    m, n = _modexp_sizes(modulus, q)
    require_qubits(m + n)
    return _xor_oracle(_power_table(a, modulus, q), n)


def modmul_oracle(a: int, modulus: int) -> PermutationOracle:
    """Permutation y -> a*y mod modulus for y < modulus, identity above."""
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not invertible modulo {modulus}")
    n = max((modulus - 1).bit_length(), 1)
    mapping = np.arange(1 << n)
    small = mapping < modulus
    mapping[small] = (a % modulus) * mapping[small] % modulus
    return PermutationOracle(n, mapping)


def order2_modexp_circuit(a: int, modulus: int) -> Circuit:
    """Gate-level modular exponentiation for a of multiplicative order 2.

    A negative-control CNOT keyed on the exponent's least-significant qubit
    writes 1; positive-control CNOTs write the bits of a.
    """
    if a % modulus == 1 or mult_order(a, modulus) != 2:
        raise ValueError(f"{a} does not have order 2 modulo {modulus}")
    q = smallest_power_of_two_above(modulus * modulus)
    m, n = _modexp_sizes(modulus, q)
    c = Circuit(m + n)
    parity_qubit = m - 1
    c.mcx(((parity_qubit, 0),), m + n - 1)
    bits = _bitstring(a % modulus, n)
    for i, bit in enumerate(bits):
        if bit == "1":
            c.cx(parity_qubit, m + i)
    return c


def smallest_power_of_two_above(threshold: int) -> int:
    """Least power of 2 strictly greater than ``threshold``."""
    q = 1
    while q <= threshold:
        q <<= 1
    return q


def xor_permutation_oracle(tt: TruthTable) -> XorOracle:
    """The defining permutation |x>|y> -> |x>|y xor f(x)> of a truth table."""
    outs = np.array([tt.output_int(x) for x in range(1 << tt.n_in)], dtype=np.int64)
    return _xor_oracle(outs, tt.n_out)


def _xor_oracle(values: np.ndarray, n_out: int) -> XorOracle:
    """|x>|y> -> |x>|y xor values[x]>, with y on the last ``n_out`` qubits."""
    return XorOracle(values, n_out)
