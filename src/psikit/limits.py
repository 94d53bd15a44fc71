"""Every bound on a command-line input, stated once.  Each entry gives the
command words, the option it bounds (or the measure, for a work ceiling), the
first value (None for a measure) and the ceiling, the largest value accepted:
above it exits 3, below the first value 2.  The cost noted is of one whole run
at the ceiling on a shared 2-core box with CPython 3.11."""

from collections import namedtuple

Limit = namedtuple("Limit", "command bounds first ceiling")
# psi(a, b, n) has degree n // 2, and so has the largest product its recurrence
# forms: psi_symbolic reaches multipoly.MAX_DEGREE here (a test pins it)
_SYMBOLIC = 256
_TEST = "mersenne test --method "

LIMITS = {name: Limit(*fields) for name, fields in {
    "verify eightlevels": ("verify eightlevels", "--nmax", 1, _SYMBOLIC),  # 0.2-0.35 s
    "verify powersums": ("verify powersums", "--nmax", 2, 10),  # 0.06-0.08 s
    "verify theta": ("verify theta", "--nmax", 1, 37),  # 0.1-0.16 s
    "verify fundamental": ("verify fundamental", "--nmax", 1, 51),  # 0.3-0.4 s
    "bridges check": ("bridges check", "--nmax", 0, 64),  # 0.08-0.13 s; the checks 3 ms of it
    # 0.6-0.65 s; each step of l takes its sums 4 to 5 times longer
    "identities tau": ("identities tau", "--l", 3, 15),
    "psi eval": ("psi eval", "--n", 0, 100_000),  # without --mod; 0.1 s at a = 1, b = 2
    # psicore.psi_bit_bound; with the int-to-str limit lifted, --a 1/3 --b 1
    # --n 20500 just below it takes 0.1 s, and integer a and b under 0.2 s
    "psi eval value bits": ("psi eval", "the value's bit bound", None, 1 << 14),
    # psicore.FORK_BREAK_EVEN's measure at a 14284-bit index and modulus, the largest
    # that print at the default int-to-str limit: 14-16 s.  With the limit lifted
    # the slowest shape, a 2^20-bit index and a 1667-bit modulus, takes 21-22 s
    "psi ladder work": ("psi ladder, psi eval --mod", "index bits * modulus bits^2", None,
                        14_284**3),
    # estimated before the power is built; the ladder spends one step per bit
    "index bits": ("psi eval, psi ladder", "the bits of --n or --mod", None, 1 << 20),
    # the chain at p costs about p**2.5; that of --pmax 4000, 6 to 10 s by ll or psi
    "mersenne scan work": ("mersenne scan", "the sum of p * p * isqrt(p)", None, 140_612_888_302),
    # about 20 s by ll or psi, composite three times that; at the default
    # int-to-str limit the command line refuses sooner a p whose residue cannot print
    "mersenne test ll": (_TEST + "ll", "--p", 3, 44_497),
    "mersenne test psi": (_TEST + "psi", "--p", 5, 44_497),
    "mersenne test composite": (_TEST + "composite", "--p", 3, 44_497),
    "mersenne test mu": (_TEST + "mu", "--p", 5, 44_497),
    "mersenne test mu --mu-max": (_TEST + "mu", "--mu-max", 1, 16),  # one residue per mu
    # one ladder, 1.0-1.3 s; a residue has up to 4300 digits, the default int-to-str limit
    "mersenne test sum": (_TEST + "sum", "--p", 5, 14_281),
    "mersenne test sum --mu": (_TEST + "sum", "--mu", 0, (1 << 64) - 1),  # n * mu: p + 63 bits
    # 1.0 s: the Lucas-Lehmer chain, then 488 trial factors up to 13938257
    "mersenne test necessary": (_TEST + "necessary", "--p", 5, 14_281),
    # p = 67's least factor, 193707721, takes 0.25 s, about as long as the
    # whole fruitless search at p = 101, which exits 3
    "mersenne test necessary factor": (_TEST + "necessary", "the factors tried", None,
                                       (1 << 28) - 1),
    "mersenne test ab": (_TEST + "ab", "--p", 5, 23),  # 0.3 s; 29 squares 2^28-bit integers
    # rows of degree n // 2 up to 64; every table from 1 on, 54 MB of text, about 2 s
    "coeff table": ("coeff table", "--n", 0, 129),
    "psi poly": ("psi poly", "--n", 0, _SYMBOLIC),  # 0.05 s
}.items()}
