"""Command-line front-end: every driver behind reproducible seeds and JSON output.

Boolean expressions for ``sat --expr`` use variables a..z (mapped by first
appearance), operators ``! & ^ |`` with parentheses, precedence ! > & > ^ > |.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import algorithms
from .circuit import MAX_SHOTS, ResourceLimitError, unitary_of
from .oracles import And, BooleanExpr, Not, Or, TruthTable, Var, Xor, xor_permutation_oracle
from .qstate import _bitstring


@dataclass
class RunReport:
    algorithm: str
    parameters: dict
    answer: object
    distribution: list | None
    seed: int
    shots: int | None
    wall_time_ms: float

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "parameters": self.parameters,
            "answer": self.answer,
            "distribution": self.distribution,
            "seed": self.seed,
            "shots": self.shots,
            "wall_time_ms": self.wall_time_ms,
        }


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


def _print_report(report: RunReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict()))
        return
    print(f"{report.algorithm}: answer = {report.answer}")
    if report.distribution:
        peak = max(entry["value"] for entry in report.distribution)
        for entry in report.distribution:
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


def _simon_table(args) -> TruthTable:
    if args.table:
        with open(args.table, "r", encoding="ascii") as handle:
            return TruthTable.from_text(handle.read())
    s = _bits_argument(args.s, "--s")
    if int(s, 2) == 0:
        _usage_error("the hidden string must be nonzero")
    n = len(s)
    s_int = int(s, 2)
    return TruthTable.from_function(
        n, n, lambda x: _bitstring(min(int(x, 2), int(x, 2) ^ s_int), n)
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--shots", type=int, default=None)
        p.add_argument("--json", action="store_true")
        p.add_argument("--top", type=int, default=16)

    p = sub.add_parser("deutsch", help="constant-vs-balanced on one bit")
    p.add_argument("--f", required=True, help="two bits: f(0)f(1)")
    p.add_argument("--economical", action="store_true")
    common(p)

    p = sub.add_parser("dj", help="constant-vs-balanced on n bits")
    p.add_argument("--table", required=True, help="truth-table file, n_out=1")
    common(p)

    p = sub.add_parser("bv", help="hidden linear string")
    p.add_argument("--s", required=True)
    p.add_argument("--economical", action="store_true")
    common(p)

    p = sub.add_parser("simon", help="hidden xor mask")
    p.add_argument("--s", default=None)
    p.add_argument("--table", default=None, help="truth-table file, n_out=n_in")
    common(p)

    p = sub.add_parser("grover", help="search for marked strings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--marked", required=True, help="comma-separated strings or ints")
    p.add_argument("--variant", choices=("economical", "standard"), default="economical")
    common(p)

    p = sub.add_parser("sat", help="satisfy a Boolean formula")
    p.add_argument("--expr", required=True)
    p.add_argument("--m-known", type=int, default=None)
    common(p)

    p = sub.add_parser("shor", help="factor an integer")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--a", type=int, default=None, help="pin the exponentiation base")
    p.add_argument("--mode", choices=("lv", "mc"), default="lv")
    common(p)

    p = sub.add_parser("dlog", help="discrete logarithm, order a power of 2")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    common(p)

    p = sub.add_parser("qpe-order", help="order finding via phase estimation")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    common(p)

    p = sub.add_parser("count", help="estimate the number of marked strings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--marked", required=True)
    p.add_argument("--m", type=int, default=None)
    common(p)

    p = sub.add_parser("qft-check", help="transform circuit vs the direct matrix")
    p.add_argument("--n", type=int, required=True)
    common(p)

    return parser


def _dispatch(args) -> tuple:
    """Returns (parameters, answer, distribution, exit_code)."""
    if args.command == "deutsch":
        bits = _bits_argument(args.f, "--f")
        if len(bits) != 2:
            _usage_error("--f wants exactly two bits")
        table = TruthTable(1, 1, (bits[0], bits[1]))
        res = algorithms.deutsch(table, economical=args.economical, seed=args.seed)
        return {"f": bits, "economical": args.economical}, res.answer, res.exact_distribution, 0

    if args.command == "dj":
        with open(args.table, "r", encoding="ascii") as handle:
            table = TruthTable.from_text(handle.read())
        if table.n_out != 1:
            _usage_error("dj wants a single-output table")
        from .oracles import synth_bit_oracle

        res = algorithms.deutsch_jozsa(synth_bit_oracle(table), table.n_in, seed=args.seed)
        return {"table": args.table, "n": table.n_in}, res.answer, res.exact_distribution, 0

    if args.command == "bv":
        s = _bits_argument(args.s, "--s")
        from .oracles import synth_bv_oracle

        res = algorithms.bernstein_vazirani(
            synth_bv_oracle(s), len(s), economical=args.economical, seed=args.seed
        )
        return {"s": s, "economical": args.economical}, res.answer, res.exact_distribution, 0

    if args.command == "simon":
        if (args.s is None) == (args.table is None):
            _usage_error("give exactly one of --s or --table")
        table = _simon_table(args)
        n = table.n_in
        oracle = xor_permutation_oracle(table)
        res = algorithms.simon(
            oracle, n, lambda x: table.rows[int(x, 2)], seed=args.seed
        )
        params = {"n": n, "s": args.s, "table": args.table}
        return params, res.answer, res.exact_distribution, 0 if res.success else 1

    if args.command == "grover":
        marked = _marked_argument(args.marked, args.n)
        res = algorithms.grover(marked, args.n, variant=args.variant, seed=args.seed)
        params = {"n": args.n, "marked": marked, "variant": args.variant}
        return params, res.answer["x"], res.exact_distribution, 0

    if args.command == "sat":
        expr, n_vars = parse_bool_expr(args.expr)
        res = algorithms.sat_solve(expr, n_vars, m_known=args.m_known, seed=args.seed)
        params = {"expr": args.expr, "n_vars": n_vars, "m_known": args.m_known}
        return params, res.answer, res.exact_distribution, 0 if res.success else 1

    if args.command == "shor":
        mode = "las_vegas" if args.mode == "lv" else "monte_carlo"
        res = algorithms.shor_factor(args.N, mode=mode, seed=args.seed, base=args.a)
        params = {"N": args.N, "a": args.a, "mode": mode}
        return params, res.answer, res.exact_distribution, 0 if res.success and res.answer else 1

    if args.command == "dlog":
        res = algorithms.shor_dlog_pow2(args.N, args.a, args.b, seed=args.seed)
        params = {"N": args.N, "a": args.a, "b": args.b}
        return params, res.answer["s"], res.exact_distribution, 0 if res.success else 1

    if args.command == "qpe-order":
        res = algorithms.qpe_order_finding(args.a, args.N, seed=args.seed)
        params = {"N": args.N, "a": args.a}
        return params, res.answer["ell"], res.exact_distribution, 0

    if args.command == "count":
        marked = _marked_argument(args.marked, args.n)
        res = algorithms.quantum_counting(marked, args.n, m=args.m, seed=args.seed)
        params = {"n": args.n, "marked": marked, "m": args.m}
        return params, res.answer["estimate"], res.exact_distribution, 0

    if args.command == "qft-check":
        c = algorithms.qft_circuit(args.n)
        gate_count = len(c.ops)
        max_error = None
        if args.n <= 12:
            dim = 1 << args.n
            omega = np.exp(2j * np.pi / dim)
            direct = omega ** (np.outer(np.arange(dim), np.arange(dim))) / np.sqrt(dim)
            max_error = float(np.max(np.abs(unitary_of(c) - direct)))
        answer = {"gate_count": gate_count, "max_error": max_error}
        return {"n": args.n}, answer, None, 0

    raise SystemExit(2)


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
    report = RunReport(
        algorithm=args.command,
        parameters=parameters,
        answer=answer,
        distribution=_top_entries(dist, args.top, args.shots, args.seed),
        seed=args.seed,
        shots=args.shots,
        wall_time_ms=elapsed_ms,
    )
    _print_report(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
