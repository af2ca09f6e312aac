"""The CLI's contract: whatever the table of counts, the bytes of the CSV or
the option values, a run ends with exit code 0, 2, 3 or 4 and never raises."""

import io
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import epinteract as ei
from epinteract import cli

from conftest import SWEEP_TABLES

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_SINGULAR, cli.EXIT_NO_CONVERGE}
# mixed magnitudes in one table give informations whose scaled and raw
# condition numbers differ by orders of magnitude
TOTALS = (1, 2, 5, 50, 10**3, 10**6, 10**7, 10**8, 10**9)
# the formulas that the pinned tables below are fitted with
X1_FORMULA = "y ~ z1 + z2 + z1:z2 + x1"
X1_PRODUCTS_FORMULA = "y ~ z1 + z2 + z1:z2 + x1 + z1:x1 + z2:x1"
FIXTURE = resources.files("epinteract.fixtures").joinpath("nguyen2008.csv").read_bytes()
MODEL_25 = "y ~ z1 + z2 + z1:z2 + x1 + x2 + x3 + z1:x2"

# converges with max |beta| 13.4, but its information has a condition number
# near 1e15: the fit refuses it as numerically singular (exit 3)
ILL_CONDITIONED = b"""x1,x2,z1,z2,successes,totals
0,0,0,1,1,1000000000
0,0,1,0,3,5
0,0,1,1,981953588,1000000000
0,1,0,0,2,2
0,1,0,1,2,2
0,1,1,0,0,2
0,1,1,1,2,50
1,1,0,0,0,1000000
1,1,0,1,0,1
1,1,1,0,2,50
1,1,1,1,527471617,1000000000
1,0,0,0,3,1000000000
1,0,0,1,2,2
"""
# converges with a covariance whose largest entry is 5e8 next to a zero
# entry; an inverse of the information computed by LU is asymmetric there by
# 2e-8, where the Gram matrix of the factor's inverse is exactly symmetric
ROUNDED_ASYMMETRY = (b"x1,x2,z1,z2,successes,totals\n0,0,0,0,1,1000000\n0,0,1,0,0,1\n"
                     b"1,0,1,0,1,2\n0,1,1,0,1,1\n0,1,0,1,0,1\n0,0,1,1,1,2\n")


def _exit_code(csv_bytes, formula, seed):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.csv"
        src.write_bytes(csv_bytes)
        return cli.main(["--input", str(src), "--formula", formula, "--draws", "20",
                         "--seed", str(seed), "--format", "json",
                         "--out", str(Path(tmp) / "out")])


def _mostly(valid, wild):
    """A value of valid about three times in four, else any value of wild
    (st.one_of picks its branches evenly, repeated ones included)."""
    return st.sampled_from((valid, valid, valid, wild)).flatmap(lambda pool: pool)


@st.composite
def _formulas(draw, k):
    """A formula over x1..xK, z1 and z2: a subset of their main effects and
    pairwise products, each product in either variable order, and now and
    then a repeated term, an unknown name or a malformed token."""
    variables = [f"x{i + 1}" for i in range(k)] + ["z1", "z2"]
    terms = [(v,) for v in variables] + [
        (a, b) for i, a in enumerate(variables) for b in variables[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(terms), min_size=1, max_size=6, unique=True))
    tokens = [":".join(t[::-1] if draw(st.booleans()) else t) for t in chosen]
    wild = (tokens[0], "q", "z1:q", "z1:", "1x", "x1:z1:z2", " ", "z1*z2")
    tokens += draw(_mostly(st.just([]), st.sampled_from(wild).map(lambda t: [t])))
    return "y ~ " + " + ".join(draw(st.permutations(tokens)))


@st.composite
def _tables(draw):
    """A CSV of K = 0..2 binary covariates with some of its 2**(K+2) cells,
    and a formula drawn by `_formulas` over its columns."""
    k = draw(st.integers(0, 2))
    lines = [",".join([f"x{i + 1}" for i in range(k)] + ["z1", "z2", "successes", "totals"])]
    for cell in range(2 ** (k + 2)):
        if draw(st.booleans()):
            n = draw(st.sampled_from(TOTALS))
            bits = [(cell >> b) & 1 for b in range(k + 2)]
            lines.append(",".join(map(str, bits + [draw(st.integers(0, n)), n])))
    return ("\n".join(lines) + "\n").encode(), draw(_formulas(k))


@st.composite
def _mutated_fixture(draw):
    """The bundled CSV with CRLF line ends, a byte-order mark, or up to three
    short stretches replaced by a quote, a NUL, a 0xFF byte, a long run of
    digits, a separator, a carriage return, a space, a tab, a comment sign,
    a float or a no-break space."""
    data = FIXTURE
    if draw(st.booleans()):
        data = data.replace(b"\n", b"\r\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 3)))
        piece = draw(st.sampled_from([b'"', b"\x00", b"\xff", b"9" * 25, b",", b"\n", b"",
                                      b"\r", b" ", b"\t", b"#", b"3.0", b"\xc2\xa0"]))
        data = data[:i] + piece + data[j:]
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data


@given(case=_tables(), seed=st.integers(0, 99))
@example(case=(ILL_CONDITIONED, X1_PRODUCTS_FORMULA), seed=48)
@example(case=(ROUNDED_ASYMMETRY, X1_FORMULA), seed=0)
@example(case=SWEEP_TABLES["A"], seed=0)
@example(case=SWEEP_TABLES["B"], seed=0)
@example(case=SWEEP_TABLES["C"], seed=0)
@example(case=SWEEP_TABLES["D"], seed=0)
@settings(max_examples=60, deadline=None)
def test_random_tables_end_with_a_contract_exit_code(case, seed):
    assert _exit_code(*case, seed) in EXIT_CODES


@given(case=_tables())
@example(case=(ILL_CONDITIONED, X1_PRODUCTS_FORMULA))
@example(case=(ROUNDED_ASYMMETRY, X1_FORMULA))
@example(case=SWEEP_TABLES["A"])
@example(case=SWEEP_TABLES["B"])
@example(case=SWEEP_TABLES["D"])
@settings(max_examples=60, deadline=None)
def test_fitted_covariances_are_exactly_symmetric_and_factor(case):
    csv_bytes, formula = case
    try:
        data = ei.Dataset.from_csv(io.StringIO(csv_bytes.decode()))
        fitted = ei.fit(*ei.expand_dataset(data, ei.parse_formula(formula)))
    except (ei.InputError, ei.SpecificationError, ei.SingularDesignError):
        return
    if fitted.converged:
        for cov in (fitted.cov_model, fitted.cov_robust):
            assert (cov == cov.T).all()
            ei.cholesky(cov)


@given(data=_mutated_fixture())
@example(data=b"x1,z1,z2,successes,totals\n\xff\xfe,0,0,1,2\n")
@example(data=b"\xef\xbb\xbf" + FIXTURE)
@example(data=b"\xef\xbb\xbf" + FIXTURE.replace(b"\n", b"\r\n"))
@settings(max_examples=60, deadline=None)
def test_mutated_csv_bytes_end_with_a_contract_exit_code(data):
    assert _exit_code(data, MODEL_25, 1) in EXIT_CODES


LEVEL_FIELDS = ("0.5", "0.95", "0.999999999", "nan", "inf", "-inf", "", " ", "1e-320",
                "5e-324", "0", "1", "-0.5", "0.95x")
VALID_LEVELS = ("1e-320", "0.5", "0.95", "0.999999999")
FORMAT_WORDS = ("table", "json", "csv", "", " ", "xml", "Table", "table json")
HUGE = st.integers(2**50, 2**70)


@st.composite
def _options(draw):
    """--levels, --format, --bins, --draws and --seed values, each valid most
    of the time, so that most examples reach the fit, the simulation and the
    writers, or else wild: levels with non-finite, empty, subnormal, repeated
    or decreasing fields, format lists with blanks or unknown words, and
    small or out-of-range integers. Huge --bins and --draws need more than
    any address space holds; no count between the small ones and 2**50 is
    drawn, since it would really allocate or run."""
    levels = draw(_mostly(
        st.lists(st.sampled_from(VALID_LEVELS), min_size=1, max_size=3, unique=True)
        .map(lambda fields: sorted(fields, key=float)),
        st.lists(st.sampled_from(LEVEL_FIELDS), min_size=1, max_size=4)))
    formats = draw(_mostly(
        st.lists(st.sampled_from(FORMAT_WORDS[:3]), min_size=1, max_size=3, unique=True),
        st.lists(st.sampled_from(FORMAT_WORDS), max_size=4)))
    return [f"--levels={','.join(levels)}", f"--format={','.join(formats)}",
            f"--bins={draw(_mostly(st.integers(1, 60), st.integers(-2, 60) | HUGE))}",
            f"--draws={draw(_mostly(st.integers(2, 20), st.integers(-1, 20) | HUGE))}",
            f"--seed={draw(_mostly(st.integers(0, 2**128 - 1), st.integers(-1, 2**130)))}"]


@given(options=_options())
@example(options=["--levels=1e-320,5e-324", "--format=table", "--bins=1", "--draws=2",
                  "--seed=0"])
@example(options=["--levels=0.95,0.95", "--format=csv, ,json", "--bins=60", "--draws=20",
                  "--seed=340282366920938463463374607431768211455"])
@example(options=["--levels=0.95", "--format=csv", f"--bins={2**62}", "--draws=20",
                  "--seed=0"])
@example(options=["--levels=0.95", "--format=json", "--bins=30", f"--draws={2**63 - 1}",
                  "--seed=0"])
@settings(max_examples=60, deadline=None)
def test_random_options_end_with_a_contract_exit_code(options):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            code = cli.main(["--fixture", "nguyen2008", "--formula", MODEL_25,
                             "--out", str(Path(tmp) / "out"), *options])
        except SystemExit as exc:  # argparse rejects a malformed value with exit 2
            code = exc.code
    assert code in EXIT_CODES
