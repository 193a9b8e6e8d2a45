"""Command-line front-end: every driver behind reproducible seeds and JSON output.

Boolean expressions for ``sat --expr`` use variables a..z (mapped by first
appearance), operators ``! & ^ |`` with parentheses, precedence ! > & > ^ > |.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import algorithms
from .circuit import MAX_SHOTS, ResourceLimitError, unitary_of
from .oracles import And, BooleanExpr, Not, Or, TruthTable, Var, Xor
from .oracles import synth_bit_oracle, synth_bv_oracle, xor_permutation_oracle
from .qstate import _bitstring


def _top_entries(dist, top: int, shots: int | None, seed: int) -> list | None:
    if dist is None:
        return None
    values = dist.values
    if shots is not None:
        values = np.random.default_rng(seed).multinomial(shots, values / values.sum())
    if shots is None and dist.kind == "exact":
        # 12 absolute places, so float noise (and -0.0) neither prints nor decides the order.
        # Rounding moves a value by at most 5e-13, so only values within 1e-12 of the
        # top-th largest can make the cut; the rest are not rounded.
        rows = np.arange(values.size)
        if 0 < top < values.size:
            rows = np.flatnonzero(values >= np.partition(values, -top)[-top] - 1e-12)
        cells = [round(v, 12) + 0.0 for v in values[rows].tolist()]
    else:
        rows = np.flatnonzero(values > 0)
        cells = values[rows].tolist()
    ordered = sorted(zip(cells, rows.tolist()), key=lambda vi: (-vi[0], vi[1]))
    return [{"bitstring": _bitstring(i, dist.width), "value": v} for v, i in ordered[:top]]


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report))
        return
    print(f"{report['algorithm']}: answer = {report['answer']}")
    if report["distribution"]:
        peak = max(entry["value"] for entry in report["distribution"])
        for entry in report["distribution"]:
            bar = "#" * max(1, int(40 * entry["value"] / peak)) if peak else ""
            print(f"  {entry['bitstring']}  {entry['value']:<12.6g} {bar}")


class ExprParser:
    """Recursive-descent parser for the tiny propositional grammar."""

    def __init__(self, text: str):
        self.text = text.replace(" ", "")
        self.pos = 0
        self.var_order: list[str] = []

    def _peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else None

    def _eat(self, ch):
        if self._peek() != ch:
            raise ValueError(f"expected {ch!r} at column {self.pos} of {self.text!r}")
        self.pos += 1

    def parse(self) -> tuple:
        node = self._or()
        if self.pos != len(self.text):
            raise ValueError(f"trailing input at column {self.pos} of {self.text!r}")
        return node, len(self.var_order)

    def _or(self) -> BooleanExpr:
        terms = [self._xor()]
        while self._peek() == "|":
            self._eat("|")
            terms.append(self._xor())
        return terms[0] if len(terms) == 1 else Or(*terms)

    def _xor(self) -> BooleanExpr:
        node = self._and()
        while self._peek() == "^":
            self._eat("^")
            node = Xor(node, self._and())
        return node

    def _and(self) -> BooleanExpr:
        terms = [self._atom()]
        while self._peek() == "&":
            self._eat("&")
            terms.append(self._atom())
        return terms[0] if len(terms) == 1 else And(*terms)

    def _atom(self) -> BooleanExpr:
        ch = self._peek()
        if ch == "!":
            self._eat("!")
            return Not(self._atom())
        if ch == "(":
            self._eat("(")
            node = self._or()
            self._eat(")")
            return node
        if ch is not None and ch.isalpha() and ch.islower():
            self.pos += 1
            if ch not in self.var_order:
                self.var_order.append(ch)
            return Var(self.var_order.index(ch))
        raise ValueError(f"unexpected input at column {self.pos} of {self.text!r}")


def parse_bool_expr(text: str) -> tuple:
    """Returns (expression, number of variables)."""
    return ExprParser(text).parse()


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _bits_argument(value: str, name: str) -> str:
    if not value or set(value) - {"0", "1"}:
        _usage_error(f"{name} must be a nonempty bitstring")
    return value


def _marked_argument(csv: str, n: int) -> list:
    if n < 1:
        _usage_error("--n must be at least 1")
    marked = []
    for token in csv.split(","):
        token = token.strip()
        if not token:
            continue
        if len(token) == n and set(token) <= {"0", "1"}:
            marked.append(token)
        else:
            marked.append(_bitstring(int(token), n))
    return marked


def _deutsch(args):
    bits = _bits_argument(args.f, "--f")
    if len(bits) != 2:
        _usage_error("--f wants exactly two bits")
    res = algorithms.deutsch(TruthTable(1, 1, (bits[0], bits[1])), economical=args.economical, seed=args.seed)
    return {"f": bits, "economical": args.economical}, res


def _dj(args):
    with open(args.table, "r", encoding="ascii") as handle:
        table = TruthTable.from_text(handle.read())
    if table.n_out != 1:
        _usage_error("dj wants a single-output table")
    res = algorithms.deutsch_jozsa(synth_bit_oracle(table), table.n_in, seed=args.seed)
    return {"table": args.table, "n": table.n_in}, res


def _bv(args):
    s = _bits_argument(args.s, "--s")
    res = algorithms.bernstein_vazirani(synth_bv_oracle(s), len(s), economical=args.economical, seed=args.seed)
    return {"s": s, "economical": args.economical}, res


def _simon(args):
    if (args.s is None) == (args.table is None):
        _usage_error("give exactly one of --s or --table")
    if args.table:
        with open(args.table, "r", encoding="ascii") as handle:
            table = TruthTable.from_text(handle.read())
    else:
        s = _bits_argument(args.s, "--s")
        if int(s, 2) == 0:
            _usage_error("the hidden string must be nonzero")
        n, s_int = len(s), int(s, 2)
        table = TruthTable.from_function(n, n, lambda x: _bitstring(min(int(x, 2), int(x, 2) ^ s_int), n))
    oracle = xor_permutation_oracle(table)
    res = algorithms.simon(oracle, table.n_in, lambda x: table.rows[int(x, 2)], seed=args.seed)
    return {"n": table.n_in, "s": args.s, "table": args.table}, res


def _grover(args):
    marked = _marked_argument(args.marked, args.n)
    res = algorithms.grover(marked, args.n, variant=args.variant, seed=args.seed)
    return {"n": args.n, "marked": marked, "variant": args.variant}, res


def _sat(args):
    expr, n_vars = parse_bool_expr(args.expr)
    res = algorithms.sat_solve(expr, n_vars, m_known=args.m_known, seed=args.seed)
    return {"expr": args.expr, "n_vars": n_vars, "m_known": args.m_known}, res


def _shor(args):
    mode = "las_vegas" if args.mode == "lv" else "monte_carlo"
    res = algorithms.shor_factor(args.N, mode=mode, seed=args.seed, base=args.a)
    return {"N": args.N, "a": args.a, "mode": mode}, res


def _count(args):
    marked = _marked_argument(args.marked, args.n)
    res = algorithms.quantum_counting(marked, args.n, m=args.m, seed=args.seed)
    return {"n": args.n, "marked": marked, "m": args.m}, res


def _qft_check(args):
    c = algorithms.qft_circuit(args.n)
    max_error = None
    if args.n <= 12:
        dim = 1 << args.n
        omega = np.exp(2j * np.pi / dim)
        direct = omega ** (np.outer(np.arange(dim), np.arange(dim))) / np.sqrt(dim)
        max_error = float(np.max(np.abs(unitary_of(c) - direct)))
    return {"n": args.n}, algorithms.AlgorithmResult({"gate_count": len(c.ops), "max_error": max_error})


def _dlog(args):
    res = algorithms.shor_dlog_pow2(args.N, args.a, args.b, seed=args.seed)
    return {"N": args.N, "a": args.a, "b": args.b}, res


def _qpe_order(args):
    res = algorithms.qpe_order_finding(args.a, args.N, seed=args.seed)
    return {"N": args.N, "a": args.a}, res


class Command(NamedTuple):
    help: str
    run: Callable  # args -> (parameters, AlgorithmResult); refuses bad values with _usage_error
    key: str | None  # the answer field the report prints; None prints the whole answer
    arguments: dict  # flag -> add_argument keywords, before the four flags every command takes


_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}

COMMANDS = {
    "deutsch": Command("constant-vs-balanced on one bit", _deutsch, None, {
        "--f": {"required": True, "help": "two bits: f(0)f(1)"}, "--economical": _FLAG,
    }),
    "dj": Command("constant-vs-balanced on n bits", _dj, None, {
        "--table": {"required": True, "help": "truth-table file, n_out=1"},
    }),
    "bv": Command("hidden linear string", _bv, None, {"--s": _REQUIRED, "--economical": _FLAG}),
    "simon": Command("hidden xor mask", _simon, None, {
        "--s": {"default": None}, "--table": {"default": None, "help": "truth-table file, n_out=n_in"},
    }),
    "grover": Command("search for marked strings", _grover, "x", {
        "--n": _INT,
        "--marked": {"required": True, "help": "comma-separated strings or ints"},
        "--variant": {"choices": ("economical", "standard"), "default": "economical"},
    }),
    "sat": Command("satisfy a Boolean formula", _sat, None, {
        "--expr": _REQUIRED, "--m-known": {"type": int, "default": None},
    }),
    "shor": Command("factor an integer", _shor, None, {
        "--N": _INT,
        "--a": {"type": int, "default": None, "help": "pin the exponentiation base"},
        "--mode": {"choices": ("lv", "mc"), "default": "lv"},
    }),
    "dlog": Command("discrete logarithm, order a power of 2", _dlog, "s", {
        "--N": _INT, "--a": _INT, "--b": _INT,
    }),
    "qpe-order": Command("order finding via phase estimation", _qpe_order, "ell", {"--N": _INT, "--a": _INT}),
    "count": Command("estimate the number of marked strings", _count, "estimate", {
        "--n": _INT, "--marked": _REQUIRED, "--m": {"type": int, "default": None},
    }),
    "qft-check": Command("transform circuit vs the direct matrix", _qft_check, None, {"--n": _INT}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, keywords in command.arguments.items():
            p.add_argument(flag, **keywords)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--shots", type=int, default=None)
        p.add_argument("--json", action="store_true")
        p.add_argument("--top", type=int, default=16)
    return parser


def _dispatch(args) -> tuple:
    """Returns (parameters, answer, distribution, exit_code)."""
    command = COMMANDS[args.command]
    parameters, res = command.run(args)
    answer = res.answer if command.key is None else res.answer[command.key]
    return parameters, answer, res.exact_distribution, 0 if res.success else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.shots is not None and not 1 <= args.shots <= MAX_SHOTS:
        _usage_error(f"--shots must be between 1 and {MAX_SHOTS}")
    if args.top < 1:
        _usage_error("--top must be at least 1")
    start = time.perf_counter()
    try:
        parameters, answer, dist, code = _dispatch(args)
    except (ValueError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = {
        "algorithm": args.command,
        "parameters": parameters,
        "answer": answer,
        "distribution": _top_entries(dist, args.top, args.shots, args.seed),
        "seed": args.seed,
        "shots": args.shots,
        "wall_time_ms": elapsed_ms,
    }
    _print_report(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
