"""The three workloads: inputs generated from the seed, calls into qsim, checks.

A workload is a function ``(rng, ctx) -> list[Call]`` that builds one pass.
The benchmark draws every input (marked sets, moduli, bases, formulas,
hidden strings, per-call seeds) from ``rng``; qsim sees only those inputs.
Each ``Call.run`` is timed; its ``check`` runs afterwards, untimed, and
compares the output with ``reference`` (no qsim helper is used there).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from qsim import algorithms as alg
from qsim.circuit import simulate
from qsim.oracles import And, Not, Or, TruthTable, Var, xor_permutation_oracle
from qsim.qstate import basis_state

import reference as ref
from reference import require


class OpFailed(Exception):
    """The operation did not complete as its contract says; counted in ``failed``."""


@dataclass
class Call:
    name: str
    qubits: int  # widest state the call simulates
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


def _bits(x: int, n: int) -> str:
    return format(x, f"0{n}b")


def _law(result, width: int) -> np.ndarray:
    require(result.exact_distribution is not None, "no exact distribution returned")
    return ref.dist_array(result.exact_distribution.entries, width)


# ------------------------------------------------------------ amplify-qft

GROVER_CASES = [(14, 1, "economical"), (15, 1, "economical"), (15, 3, "economical"),
                (14, 5, "economical"), (12, 1, "standard"), (12, 3, "standard")]

# exactly 8 models out of 2^10 whatever the renaming and polarity flips:
# four fixed literals, (s4|s5)&!(s4&s6) keeps 1/2 of s4..s6 and
# (s7|s8)&(!s7|s9)&!(s8&s9) keeps 1/4 of s7..s9; 6 ancillas, 16 qubits
SAT_TEMPLATE = ("and", [
    ("lit", 0, False), ("lit", 1, True), ("lit", 2, False), ("lit", 3, True),
    ("or", [("lit", 4, False), ("lit", 5, False)]),
    ("not", ("and", [("lit", 4, False), ("lit", 6, False)])),
    ("or", [("lit", 7, False), ("lit", 8, False)]),
    ("or", [("lit", 7, True), ("lit", 9, False)]),
    ("not", ("and", [("lit", 8, False), ("lit", 9, False)])),
])
SAT_VARS = 10
SAT_QUBITS = 16


def make_formula(rng: random.Random):
    """Rename the template's variables and flip their polarities; returns (text, qsim expr)."""
    names = list("abcdefghij")
    rng.shuffle(names)
    flips = [rng.random() < 0.5 for _ in range(SAT_VARS)]

    def text(node):
        kind = node[0]
        if kind == "lit":
            return ("!" if node[2] ^ flips[node[1]] else "") + names[node[1]]
        if kind == "not":
            return "!(" + text(node[1]) + ")"
        inner = ("&" if kind == "and" else "|").join(text(c) for c in node[1])
        return inner if node is SAT_TEMPLATE else "(" + inner + ")"

    formula = text(SAT_TEMPLATE)
    order = []
    for ch in formula:
        if ch.isalpha() and ch not in order:
            order.append(ch)

    def expr(node):
        kind = node[0]
        if kind == "lit":
            var = Var(order.index(names[node[1]]))
            return Not(var) if node[2] ^ flips[node[1]] else var
        if kind == "not":
            return Not(expr(node[1]))
        return (And if kind == "and" else Or)(*[expr(c) for c in node[1]])

    return formula, expr(SAT_TEMPLATE)


def grover_call(rng, n, m, variant) -> Call:
    marked = sorted(rng.sample(range(1 << n), m))
    seed = _seed(rng)
    t = ref.grover_iterations(1 << n, m)

    def check(res):
        require(res.rounds_used == t, f"grover ran {res.rounds_used} iterations, want {t}")
        require(res.answer["degenerate"] is False, "grover flagged a degenerate search")
        law = ref.grover_law(n, marked, t)
        ref.check_law(_law(res, n), law, "grover")
        ref.check_sample(law, int(res.answer["x"], 2), "grover")

    return Call(f"grover-{variant} n={n} M={m}", n + (variant == "standard"),
                lambda: alg.grover([_bits(x, n) for x in marked], n, variant=variant, seed=seed), check)


def sat_call(rng, formula, expr, m_known) -> Call:
    seed = _seed(rng)
    models = ref.formula_models(formula, SAT_VARS)
    big_n = 1 << SAT_VARS

    def check(res):
        require(res.success and res.answer is not None, "sat_solve found no assignment")
        require(ref.formula_eval(formula, res.answer), f"{res.answer} does not satisfy {formula}")
        guess = m_known if m_known is not None else 1 << (res.rounds_used - 1)
        law = ref.grover_law(SAT_VARS, models, ref.grover_iterations(big_n, guess))
        ref.check_law(_law(res, SAT_VARS), law, "sat_solve")

    label = "known" if m_known is not None else "doubling"
    return Call(f"sat_solve {label}", SAT_QUBITS,
                lambda: alg.sat_solve(expr, SAT_VARS, m_known=m_known, seed=seed), check)


def qft_call(rng, n) -> Call:
    x = rng.randrange(1 << n)

    def check(state):
        err = float(np.max(np.abs(state.amps - ref.qft_column(n, x))))
        require(err <= ref.LAW_ATOL, f"QFT|{x}> on {n} qubits differs from the ifft column by {err:.3g}")

    return Call(f"qft n={n}", n, lambda: simulate(alg.qft_circuit(n), basis_state(n, x)), check)


def amplify_qft(rng: random.Random, ctx) -> list:
    calls = [grover_call(rng, n, m, variant) for n, m, variant in GROVER_CASES]
    formula, expr = make_formula(rng)
    calls.append(sat_call(rng, formula, expr, len(ref.formula_models(formula, SAT_VARS))))
    calls.append(sat_call(rng, formula, expr, None))
    calls += [qft_call(rng, n) for n in (18, 20)]
    return calls


def warm_amplify_qft() -> None:
    alg.grover(["0110100101"], 10, seed=1)
    simulate(alg.qft_circuit(12), basis_state(12, 5))


# ------------------------------------------------------------ period-find

# shor_factor's Las Vegas loop takes a geometric number of rounds, so it runs
# where a round is cheap (17-18 qubits); the 20-qubit moduli get exactly one
# round each through shor_quantum_part and qpe_order_finding
FACTOR_MODULI = (33, 51, 55)
ROUND_MODULI = (65, 69, 75, 77, 85, 87)
QPE_ROUNDS = 2  # qpe_order_finding on this many distinct moduli of ROUND_MODULI
DLOG_MODULUS, DLOG_ORDER = 97, 32
# simon's batch count is geometric too (a batch succeeds with p ~ 0.29);
# at n = 9 one call ranged over 0.3-2.2 s, so both calls use n = 8
SIMON_WIDTHS = (8, 8)
COUNT_CASES = ((8, 5), (10, 7))


def registers(modulus: int) -> tuple:
    q = 1
    while q <= modulus * modulus:
        q <<= 1
    return q, q.bit_length() - 1, (modulus - 1).bit_length()


def coprime_bases(modulus: int) -> list:
    return [a for a in range(2, modulus - 1) if math.gcd(a, modulus) == 1]


def factoring_bases(modulus: int) -> list:
    """Bases of even order r with a^(r/2) != -1: the ones that can split the modulus."""
    out = []
    for a in coprime_bases(modulus):
        r = len(ref.orbit(a, modulus))
        if r % 2 == 0 and pow(a, r // 2, modulus) != modulus - 1:
            out.append(a)
    return out


def shor_factor_call(rng, modulus) -> Call:
    a = rng.choice(factoring_bases(modulus))
    seed = _seed(rng)
    q, m, _ = registers(modulus)

    def check(res):
        require(res.success, f"shor_factor({modulus}) gave up after {res.rounds_used} rounds")
        ref.check_factor(res.answer, modulus, "shor_factor")
        require(res.rounds_used >= 1, "a pinned coprime base needs at least one quantum round")
        ref.check_order_finding(_law(res, m), a, modulus, q, what="shor_factor")

    return Call(f"shor_factor N={modulus}", sum(registers(modulus)[1:]),
                lambda: alg.shor_factor(modulus, seed=seed, base=a), check)


def order_round_call(rng, modulus, fn, label) -> Call:
    a = rng.choice(coprime_bases(modulus))
    seed = _seed(rng)
    q, m, n = registers(modulus)

    def check(res):
        ans = res.answer
        require((ans["q"], ans["m"], ans["n"]) == (q, m, n), f"{label}: registers {ans}")
        law = _law(res, m)
        ref.check_order_finding(law, a, modulus, q, z=ans["z"], c=ans["c"], what=label)
        ref.check_sample(law, ans["ell"], label)

    return Call(f"{label} N={modulus}", m + n, lambda: fn(a, modulus, seed=seed), check)


def dlog_calls(rng) -> list:
    modulus, r = DLOG_MODULUS, DLOG_ORDER
    a = rng.choice([x for x in range(2, modulus) if len(ref.orbit(x, modulus)) == r])
    b = pow(a, rng.randrange(r), modulus)
    m = r.bit_length() - 1
    width = 2 * m + (modulus - 1).bit_length()
    s1, s2 = _seed(rng), _seed(rng)

    def check_pow2(res):
        ref.check_dlog(_law(res, 2 * m), a, b, modulus, res.answer["s"], res.answer["r1"], "shor_dlog_pow2")

    def check_qpe(res):
        ref.check_dlog(_law(res, 2 * m), a, b, modulus, res.answer["s"], res.answer["phi1"], "qpe_dlog")

    return [
        Call(f"shor_dlog_pow2 N={modulus}", width, lambda: alg.shor_dlog_pow2(modulus, a, b, seed=s1), check_pow2),
        Call(f"qpe_dlog N={modulus}", width, lambda: alg.qpe_dlog(modulus, a, b, m, seed=s2), check_qpe),
    ]


def simon_call(rng, n) -> Call:
    s = rng.randrange(1, 1 << n)
    relabel = list(range(1 << n))
    rng.shuffle(relabel)
    rows = tuple(_bits(relabel[min(x, x ^ s)], n) for x in range(1 << n))
    seed = _seed(rng)

    def run():
        table = TruthTable(n, n, rows)
        return alg.simon(xor_permutation_oracle(table), n, lambda x: rows[int(x, 2)], seed=seed)

    def check(res):
        require(res.success, f"simon gave up after {res.rounds_used} rounds")
        require(res.answer == _bits(s, n), f"simon returned {res.answer}, hidden string {_bits(s, n)}")
        ref.check_law(_law(res, n), ref.simon_law(n, s), "simon")

    return Call(f"simon n={n}", 2 * n, run, check)


def counting_call(rng, n, num_marked) -> Call:
    marked = [_bits(x, n) for x in sorted(rng.sample(range(1 << n), num_marked))]
    m = math.ceil(n / 2) + 1
    seed = _seed(rng)

    def check(res):
        law = ref.counting_law(n, num_marked, m)
        ref.check_law(_law(res, m), law, "quantum_counting")
        j = res.answer["phi_tilde"]
        ref.check_sample(law, j, "quantum_counting")
        want = (1 << n) * math.sin(math.pi * j / (1 << m)) ** 2
        require(abs(res.answer["estimate"] - want) <= 1e-9, f"estimate {res.answer['estimate']} != {want}")

    return Call(f"quantum_counting n={n}", n + m, lambda: alg.quantum_counting(marked, n, seed=seed), check)


def period_find(rng: random.Random, ctx) -> list:
    calls = [shor_factor_call(rng, modulus) for modulus in FACTOR_MODULI]
    calls += [order_round_call(rng, modulus, alg.shor_quantum_part, "shor_quantum_part") for modulus in ROUND_MODULI]
    calls += [order_round_call(rng, modulus, alg.qpe_order_finding, "qpe_order_finding")
              for modulus in rng.sample(ROUND_MODULI, QPE_ROUNDS)]
    calls += dlog_calls(rng)
    calls += [simon_call(rng, n) for n in SIMON_WIDTHS]
    calls += [counting_call(rng, n, k) for n, k in COUNT_CASES]
    return calls


def warm_period_find() -> None:
    alg.shor_factor(15, seed=1)
    alg.quantum_counting(["0110"], 4, seed=1)


# ----------------------------------------------------------- cli-examples


def _report(out, algorithm: str) -> tuple:
    code, stdout = out.code, out.stdout
    lines = stdout.strip().splitlines()
    require(len(lines) == 1, f"{algorithm}: expected one JSON line, got {len(lines)}")
    report = json.loads(lines[0])
    return report, ref.check_report_shape(report, algorithm)


def _cli_call(ctx, name, argv, qubits, check, allowed=(0,)) -> Call:
    def checked(out):
        if out.code not in allowed or out.stderr.strip():
            raise OpFailed(f"{name}: exit {out.code}: {out.stderr.strip()[-200:]}")
        check(out)

    return Call(name, qubits, lambda: ctx.run_cli(argv), checked)


def _check_law_report(algorithm, width, law_fn, answer_fn=None):
    def check(out):
        report, dist = _report(out, algorithm)
        ref.check_top_entries(dist, law_fn(report), width, algorithm)
        if answer_fn is not None:
            answer_fn(report)
    return check


def readme_examples(rng: random.Random, ctx) -> list:
    """The README's eleven ``qsim ... --json`` examples at one per-call seed each."""
    n_dj = 3
    kind = rng.choice(("constant", "balanced"))
    if kind == "constant":
        dj_rows = [rng.randrange(2)] * (1 << n_dj)
    else:
        dj_rows = [1] * (1 << (n_dj - 1)) + [0] * (1 << (n_dj - 1))
        rng.shuffle(dj_rows)
    table = ctx.write_file("\n".join(f"{_bits(x, n_dj)} {v}" for x, v in enumerate(dj_rows)) + "\n")
    sat_text = "a&(c|(!b&c))"
    sat_models = ref.formula_models(sat_text, 3)

    def answer_is(value):
        def check(report):
            require(report["answer"] == value, f"{report['algorithm']}: answer {report['answer']!r}, want {value!r}")
        return check

    def grover_answer(report):
        ref.check_sample(ref.grover_law(3, [6, 3], 1), int(report["answer"], 2), "grover")

    def sat_law(report):
        # the report omits the attempt count, so any step of the doubling schedule may match
        laws = [ref.grover_law(3, sat_models, ref.grover_iterations(8, g)) for g in (1, 2, 4)]
        return next((law for law in laws if ref.top_matches(report["distribution"], law, 3)), laws[0])

    def sat_answer(report):
        require(ref.formula_eval(sat_text, report["answer"]), f"sat: {report['answer']} does not satisfy")

    def shor_check(out):
        report, dist = _report(out, "shor")
        ref.check_factor(report["answer"], 21, "shor")
        if dist:
            q, m, _ = registers(21)
            laws = [ref.order_finding_law(a, 21, q, z)[0] for a in coprime_bases(21) for z in ref.orbit(a, 21)]
            require(any(ref.top_matches(dist, law, m) for law in laws), "shor: law matches no base and residue")

    def dlog_check(out):
        report, dist = _report(out, "dlog")
        powers = ref.orbit(27, 34)
        r = len(powers)
        m = r.bit_length() - 1
        law = None
        for sign in (1, -1):
            cand = ref.dlog_law(r, powers.index(3), sign)
            if ref.top_matches(dist, cand, 2 * m):
                law = cand
        require(law is not None, "dlog: joint law differs from the reference")
        if out.code == 0:
            require(pow(27, report["answer"], 34) == 3, f"dlog: 27^{report['answer']} != 3 mod 34")
        else:
            require(report["answer"] is None, "dlog: exit 1 with an answer")

    def qpe_order_check(out):
        report, dist = _report(out, "qpe-order")
        q, m, _ = registers(15)
        laws = [ref.order_finding_law(7, 15, q, z)[0] for z in ref.orbit(7, 15)]
        law = next((x for x in laws if ref.top_matches(dist, x, m)), None)
        require(law is not None, "qpe-order: law matches no residue")
        ref.check_sample(law, report["answer"], "qpe-order")

    def count_answer(report):
        law = ref.counting_law(2, 2, 2)
        js = [j for j in range(4) if law[j] > ref.SUPPORT_FLOOR]
        require(any(abs(report["answer"] - 4 * math.sin(math.pi * j / 4) ** 2) <= 1e-9 for j in js),
                f"count: estimate {report['answer']} is no read-out's value")

    def qft_check(out):
        report, dist = _report(out, "qft-check")
        require(report["distribution"] is None, "qft-check: unexpected distribution")
        ans = report["answer"]
        require(ans["gate_count"] == 5 * 6 // 2 + 5 // 2, f"qft-check: gate count {ans['gate_count']}")
        require(ans["max_error"] is not None and ans["max_error"] <= ref.LAW_ATOL,
                f"qft-check: max error {ans['max_error']}")

    parity = [bin(x & 0b1011).count("1") % 2 for x in range(16)]
    examples = [
        ("deutsch", ["--f", "01"], 2, _check_law_report("deutsch", 1, lambda r: ref.dj_law([0, 1]), answer_is("balanced")), (0,)),
        ("dj", ["--table", table], n_dj + 1, _check_law_report("dj", n_dj, lambda r: ref.dj_law(dj_rows), answer_is(kind)), (0,)),
        ("bv", ["--s", "1011"], 5, _check_law_report("bv", 4, lambda r: ref.dj_law(parity), answer_is("1011")), (0,)),
        ("simon", ["--s", "110"], 6, _check_law_report("simon", 3, lambda r: ref.simon_law(3, 0b110), answer_is("110")), (0,)),
        ("grover", ["--n", "3", "--marked", "110,011"], 3,
         _check_law_report("grover", 3, lambda r: ref.grover_law(3, [3, 6], 1), grover_answer), (0,)),
        ("sat", ["--expr", sat_text], 6, _check_law_report("sat", 3, sat_law, sat_answer), (0,)),
        ("shor", ["--N", "21"], 14, shor_check, (0,)),
        ("dlog", ["--N", "34", "--a", "27", "--b", "3"], 14, dlog_check, (0, 1)),
        ("qpe-order", ["--N", "15", "--a", "7"], 12, qpe_order_check, (0,)),
        ("count", ["--n", "2", "--marked", "00,11", "--m", "2"], 4,
         _check_law_report("count", 2, lambda r: ref.counting_law(2, 2, 2), count_answer), (0,)),
        ("qft-check", ["--n", "5"], 5, qft_check, (0,)),
    ]
    calls = []
    for command, args, qubits, check, allowed in examples:
        argv = [command, *args, "--seed", str(_seed(rng)), "--json"]
        calls.append(_cli_call(ctx, f"qsim {command}", argv, qubits, check, allowed))
    return calls


def fault_calls(ctx) -> list:
    """Commands that must exit 2 with one ``error:`` line; their inputs never depend on the seed."""

    def expect_usage_error(name):
        def check(out):
            lines = out.stderr.strip().splitlines()
            if out.code != 2 or len(lines) != 1 or not lines[0].startswith("error:") or "Traceback" in out.stderr:
                raise OpFailed(f"{name}: exit {out.code}, {len(lines)} stderr lines, want exit 2 and one error line")
        return check

    cases = [
        ("qsim shor over QSIM_MAX_QUBITS=12", ["shor", "--N", "21", "--a", "2", "--json"], {"QSIM_MAX_QUBITS": "12"}),
        ("qsim grover n=21", ["grover", "--n", "21", "--marked", "0", "--json"], {}),
        ("qsim dj missing table", ["dj", "--table", ctx.missing_path, "--json"], {}),
    ]
    return [Call(name, 0, lambda argv=argv, env=env: ctx.run_cli(argv, env), expect_usage_error(name))
            for name, argv, env in cases]


def cli_examples(rng: random.Random, ctx) -> list:
    return readme_examples(rng, ctx) + readme_examples(rng, ctx) + fault_calls(ctx)


def warm_cli_examples() -> None:
    import contextlib
    import io

    from qsim import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["bv", "--s", "1011", "--json"])


WORKLOADS = {
    "amplify-qft": (amplify_qft, warm_amplify_qft, False),
    "period-find": (period_find, warm_period_find, False),
    "cli-examples": (cli_examples, warm_cli_examples, True),
}
