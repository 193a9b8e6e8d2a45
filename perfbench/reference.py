"""Reference laws and answer checks, computed without any qsim helper.

Every function here uses only Python integers, ``math`` and NumPy. A check
raises ``CheckError`` with a one-line reason when an output is wrong.
Distributions are compared as dense arrays indexed by the basis integer of
the register (qubit 0 is the most significant bit, as in qsim).
"""

from __future__ import annotations

import math

import numpy as np

LAW_ATOL = 1e-10
# an answer is a plausible sample only if the reference law gives it more
# than numerical noise; every law here is exact, so this never rejects a
# correct sampler except with a probability below 2**20 * 1e-12
SUPPORT_FLOOR = 1e-12

README_KEYS = ["algorithm", "parameters", "answer", "distribution", "seed", "shots", "wall_time_ms"]


class CheckError(AssertionError):
    """An output of qsim disagrees with its independent reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------- laws


def dist_array(entries: dict, width: int) -> np.ndarray:
    """Dense law from a bitstring-keyed mapping; missing strings are 0."""
    out = np.zeros(1 << width)
    for bits, value in entries.items():
        require(len(bits) == width and set(bits) <= {"0", "1"}, f"bad key {bits!r}")
        out[int(bits, 2)] = value
    return out


def grover_iterations(big_n: int, m: int) -> int:
    return int(math.floor((math.pi / 4) * math.sqrt(big_n / m)))


def grover_law(n: int, marked: list, t: int) -> np.ndarray:
    """sin^2((2t+1)theta/2)/M on each marked string, cos^2(...)/(N-M) elsewhere."""
    big_n, m = 1 << n, len(marked)
    theta = 2.0 * math.asin(math.sqrt(m / big_n))
    angle = (2 * t + 1) * theta / 2
    law = np.full(big_n, math.cos(angle) ** 2 / (big_n - m) if m < big_n else 0.0)
    law[list(marked)] = math.sin(angle) ** 2 / m
    return law


def qft_column(n: int, x: int) -> np.ndarray:
    """Amplitudes of QFT|x>, i.e. sqrt(2^n) times the ifft of the basis vector."""
    e = np.zeros(1 << n, dtype=complex)
    e[x] = 1.0
    return np.fft.ifft(e) * math.sqrt(1 << n)


def order_finding_law(a: int, modulus: int, q: int, z: int) -> tuple:
    """(|FFT|^2 of the indicator of {x < q : a^x = z mod N}, normalised; its count c)."""
    indicator = np.array([pow(a, x, modulus) == z for x in range(q)], dtype=float)
    law = np.abs(np.fft.fft(indicator)) ** 2
    return law / law.sum(), int(indicator.sum())


def orbit(a: int, modulus: int) -> list:
    """Powers a^0, a^1, ... up to the first repeat of 1."""
    out, value = [1], a % modulus
    while value != 1:
        out.append(value)
        value = value * a % modulus
    return out


def dlog_law(r: int, s: int, sign: int) -> np.ndarray:
    """1/r on the r pairs (l1, l2) with l2 = sign*s*l1 mod r, r = 2^m."""
    law = np.zeros(r * r)
    for l1 in range(r):
        law[l1 * r + (sign * s * l1) % r] = 1.0 / r
    return law


def simon_law(n: int, s: int) -> np.ndarray:
    """Uniform on the 2^(n-1) strings y with y.s = 0 over GF(2)."""
    law = np.array([bin(y & s).count("1") % 2 == 0 for y in range(1 << n)], dtype=float)
    return law / (1 << (n - 1))


def counting_law(n: int, num_marked: int, m: int) -> np.ndarray:
    """Two-eigenphase Fejer form 1/2 sum_+- |2^-m sum_k e^{2 pi i k (+-theta/2pi - j/2^m)}|^2."""
    theta = 2.0 * math.asin(math.sqrt(num_marked / (1 << n)))
    k = np.arange(1 << m)
    law = np.zeros(1 << m)
    for j in range(1 << m):
        for phase in (theta / (2 * math.pi), -theta / (2 * math.pi)):
            amp = np.exp(2j * math.pi * k * (phase - j / (1 << m))).sum() / (1 << m)
            law[j] += 0.5 * abs(amp) ** 2
    return law


def dj_law(rows: list) -> np.ndarray:
    """|2^-n sum_x (-1)^(f(x) + x.y)|^2 for a one-output truth table."""
    size = len(rows)
    law = np.zeros(size)
    for y in range(size):
        total = sum((-1) ** (rows[x] + bin(x & y).count("1")) for x in range(size))
        law[y] = (total / size) ** 2
    return law


def check_law(got: np.ndarray, want: np.ndarray, what: str) -> None:
    require(got.shape == want.shape, f"{what}: law has {got.size} entries, want {want.size}")
    err = float(np.max(np.abs(got - want)))
    require(err <= LAW_ATOL, f"{what}: law differs from reference by {err:.3g}")


def check_sample(law: np.ndarray, index: int, what: str) -> None:
    require(0 <= index < law.size, f"{what}: answer {index} out of range")
    require(law[index] > SUPPORT_FLOOR, f"{what}: answer {index} has reference probability {law[index]:.3g}")


# ------------------------------------------------------------- formulas


def formula_eval(text: str, bits: str) -> bool:
    """Evaluate a ``! & |`` formula over variables a..z, in first-appearance order."""
    names = []
    for ch in text:
        if ch.isalpha() and ch not in names:
            names.append(ch)
    expr = text.replace("!", " not ").replace("&", " and ").replace("|", " or ")
    env = {name: bits[i] == "1" for i, name in enumerate(names)}
    return bool(eval(expr, {"__builtins__": {}}, env))


def formula_models(text: str, n_vars: int) -> list:
    """Indices of every satisfying assignment, by brute force."""
    return [x for x in range(1 << n_vars) if formula_eval(text, format(x, f"0{n_vars}b"))]


# ------------------------------------------------------------ arithmetic


def check_factor(p, modulus: int, what: str) -> None:
    require(isinstance(p, int) and 1 < p < modulus and modulus % p == 0,
            f"{what}: {p!r} is not a nontrivial factor of {modulus}")


def check_order_finding(dist: np.ndarray, a: int, modulus: int, q: int, z=None, c=None, what="") -> None:
    """Law equal to the indicator FFT for z, or for some z in the orbit of a when z is unknown."""
    zs = [z] if z is not None else orbit(a, modulus)
    best = math.inf
    for cand in zs:
        law, count = order_finding_law(a, modulus, q, cand)
        err = float(np.max(np.abs(dist - law)))
        if err <= LAW_ATOL:
            if c is not None:
                require(c == count, f"{what}: c = {c}, want {count}")
            return
        best = min(best, err)
    raise CheckError(f"{what}: law matches no residue z (closest {best:.3g})")


def check_dlog(dist: np.ndarray, a: int, b: int, modulus: int, answer_s, read_out_1, what: str) -> None:
    """Joint law 1/r on l2 = +-s*l1; a returned s satisfies a^s = b; a failure needs a non-coprime read-out."""
    powers = orbit(a, modulus)
    r = len(powers)
    s_true = powers.index(b % modulus)
    require(dist.size == r * r, f"{what}: joint law has {dist.size} entries, want {r * r}")
    errs = [float(np.max(np.abs(dist - dlog_law(r, s_true, sign)))) for sign in (1, -1)]
    require(min(errs) <= LAW_ATOL, f"{what}: joint law differs from reference by {min(errs):.3g}")
    if answer_s is not None:
        require(pow(a, answer_s, modulus) == b % modulus, f"{what}: {a}^{answer_s} != {b} mod {modulus}")
    else:
        require(read_out_1 is not None and math.gcd(read_out_1, r) != 1,
                f"{what}: no logarithm although the read-out {read_out_1} is coprime to {r}")


# ------------------------------------------------------------ CLI reports


def check_report_shape(report: dict, algorithm: str) -> list:
    """README schema and ordering; returns the distribution list (possibly empty)."""
    require(list(report) == README_KEYS, f"{algorithm}: report keys {list(report)}")
    require(report["algorithm"] == algorithm, f"{algorithm}: algorithm is {report['algorithm']!r}")
    require(isinstance(report["wall_time_ms"], float) and report["wall_time_ms"] >= 0,
            f"{algorithm}: bad wall_time_ms")
    dist = report["distribution"] or []
    keys = [(-entry["value"], entry["bitstring"]) for entry in dist]
    require(keys == sorted(keys), f"{algorithm}: distribution is not sorted by value, then bitstring")
    return dist


def check_top_entries(dist: list, law: np.ndarray, width: int, what: str) -> None:
    """Listed values equal the reference law, and no unlisted string beats the last listed one."""
    listed = set()
    for entry in dist:
        bits = entry["bitstring"]
        require(len(bits) == width, f"{what}: bitstring {bits!r} has the wrong width")
        x = int(bits, 2)
        require(abs(entry["value"] - law[x]) <= LAW_ATOL,
                f"{what}: P({bits}) = {entry['value']:.12g}, want {law[x]:.12g}")
        listed.add(x)
    if dist and len(listed) < law.size:
        floor = min(entry["value"] for entry in dist)
        rest = max(law[x] for x in range(law.size) if x not in listed)
        require(rest <= floor + LAW_ATOL, f"{what}: an unlisted string has probability {rest:.3g}")


def top_matches(dist: list, law: np.ndarray, width: int) -> bool:
    try:
        check_top_entries(dist, law, width, "")
    except CheckError:
        return False
    return True
