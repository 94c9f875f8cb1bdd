import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from indecpoly import modp
from indecpoly.census import count_recursive
from indecpoly.cli import main
from indecpoly.fields import ZZ, finite_field
from indecpoly.parsing import ParseError, parse_poly
from indecpoly.mpoly import MPoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- parsing ---------------------------------------------------------------

def test_parse_chain_example_over_integers():
    F = parse_poly("y^2 + x^3 - 2", ZZ)
    assert F == MPoly(ZZ, 2, {(0, 2): 1, (3, 0): 1, (0, 0): -2})


def test_parse_over_field():
    F3 = finite_field(3)
    assert parse_poly("x*y", F3) == MPoly(F3, 2, {(1, 1): 1})
    assert parse_poly("2*x + 4", F3) == MPoly.from_dense(F3, [1, 2], 1)
    assert parse_poly("2*x + 4", F3, nvars=2) == MPoly(F3, 2, {(1, 0): 2, (0, 0): 1})


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x^^2", finite_field(3))
    assert "offset 2" in str(err.value)


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2x", finite_field(3))


def test_parse_numbered_variables():
    F3 = finite_field(3)
    f = parse_poly("x1*x2 + x3^2", F3)
    assert f.n == 3
    assert f == MPoly(F3, 3, {(1, 1, 0): 1, (0, 0, 2): 1})


def test_parse_generator_symbol_extension_field():
    F4 = finite_field(2, 2)
    f = parse_poly("t*x + 1", F4)
    assert f == MPoly(F4, 1, {(1,): F4.element(2), (0,): F4.one})
    assert parse_poly(f.format(), F4) == f


def test_round_trip_print_parse():
    F3 = finite_field(3)
    for text in ("x*y", "x^2 + 2*x*y + y^2 + 1", "2*x^3 + y"):
        f = parse_poly(text, F3)
        assert parse_poly(f.format(), F3) == f
    F = parse_poly("y^2 + x^3 - 2", ZZ)
    assert parse_poly(F.format(), ZZ) == F


# -- subcommands -----------------------------------------------------------

def test_cli_help_and_usage_errors_ignore_the_terminal_width(capsys, monkeypatch):
    # argparse otherwise wraps at COLUMNS - 2; these run at 78 whatever it says
    cases = (["--help"], ["census", "--help"], ["census", "--q", "2"], ["nosuch"])
    seen = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        texts = []
        for argv in cases:
            with pytest.raises(SystemExit) as stop:
                main(argv)
            out = capsys.readouterr()
            texts.append((stop.value.code, out.out, out.err))
        seen.append(texts)
    assert seen[0] == seen[1]
    assert [code for code, _, _ in seen[0]] == [0, 0, 2, 2]
    help_lines = [line for _, out, _ in seen[0][:2] for line in out.splitlines()]
    assert max(map(len, help_lines)) <= 78
    usage = seen[0][2][2].splitlines()
    assert usage[1].strip() == "[--method {closed,recursion,enumeration,all}] [--jobs JOBS]"
    assert usage[-1] == "spec census: error: the following arguments are required: --d"


def test_cli_spectrum(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--field", "3", "x*y")
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == 1
    assert payload["orbits"][0]["representative"] == "0"
    assert payload["orbits"][0]["multiplicity"] == 1
    assert payload["stein_holds"] is True


def test_cli_census_all_methods(capsys):
    code, out, _ = run_cli(capsys, "census", "--q", "2", "--n", "2", "--d", "4",
                           "--method", "all")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    methods = {rec.get("method") for rec in lines if "method" in rec}
    assert methods == {"closed", "recursion", "enumeration"}
    assert all(rec["N"] == "31744" for rec in lines if "N" in rec)
    assert lines[-1] == {"agreement": True}


def test_cli_modp(capsys):
    code, out, _ = run_cli(capsys, "modp", "y^2 + x^3", "--primes-to", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["good_primes"] == [5, 7, 11]
    assert payload["delta_red"] == "x^3 - l"


def test_cli_decompose_and_indec(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--field", "5", "x^4 + 2*x^2")
    assert code == 0
    payload = json.loads(out)
    assert payload["decompositions"] == [
        {"outer_degree": 2, "outer": "t^2 + 2*t", "inner": "x^2"}
    ]
    code, out, _ = run_cli(capsys, "indec", "--field", "2", "x*y")
    assert json.loads(out)["indecomposable"] is True


def test_cli_decompose_outer_degree_zero_is_rejected(capsys):
    # 0 is a given outer degree, not "try every divisor"
    for e in ("0", "1"):
        code, out, err = run_cli(capsys, "decompose", "--field", "7", "--outer-degree", e,
                                 "x^2+2*x*y+y^2")
        assert code == 1 and out == ""
        assert f"outer degree {e} must be >= 2" in err
    code, out, _ = run_cli(capsys, "decompose", "--field", "7", "x^2+2*x*y+y^2")
    assert code == 0 and json.loads(out)["decompositions"][0]["outer_degree"] == 2


@pytest.mark.parametrize("poly", ["7", "0"])
def test_cli_decompose_rejects_a_constant(capsys, poly):
    code, out, err = run_cli(capsys, "decompose", "--field", "5", poly)
    assert code == 1 and out == ""
    assert "cannot decompose a constant" in err


def test_cli_pthpower(capsys):
    code, out, _ = run_cli(capsys, "pthpower", "--field", "3", "x^3 + y^3")
    assert code == 0
    assert json.loads(out)["root"] == "x + y"


def test_cli_enumerate_and_jobs_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "enumerate", "--q", "2", "--n", "2", "--d", "3")
    code2, out2, _ = run_cli(capsys, "enumerate", "--q", "2", "--n", "2", "--d", "3",
                             "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["D"] == "24"


@pytest.mark.parametrize("q, n, d", [(3, 1, 4), (2, 2, 2)])
def test_cli_census_jobs_match_serial(capsys, q, n, d):
    argv = ["census", "--q", str(q), "--n", str(n), "--d", str(d)]
    serial = run_cli(capsys, *argv, "--jobs", "1")
    pooled = run_cli(capsys, *argv, "--jobs", "2")
    assert serial[0] == 0
    assert '"method": "enumeration"' in serial[1]
    assert pooled == serial


@pytest.mark.parametrize("d", [6, 12])
def test_cli_census_uni_scans_when_gcd_q_d_exceeds_one(capsys, d):
    # the closed forms and sandwich bounds assume gcd(q, d) = 1: without
    # them the scan is printed alone, and the counting methods stay errors
    argv = ["--q", "2", "--n", "1", "--d", str(d)]
    expected = run_cli(capsys, "enumerate", *argv)
    assert expected[0] == 0
    for method in ("enumeration", "all"):
        assert run_cli(capsys, "census", *argv, "--method", method) == expected
    for method in ("closed", "recursion"):
        code, out, err = run_cli(capsys, "census", *argv, "--method", method)
        assert code == 1 and out == "" and "gcd(q, d) = 1" in err


def test_cli_spectrum_guard(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--field", "2^4", "--guard", "1000",
                             "x^4 + y^3 + x*y")
    assert code == 1
    assert out == ""
    assert "guard" in err


def test_cli_check_bounds_and_bd_lemma(capsys):
    code, out, _ = run_cli(capsys, "check-bounds", "--q", "2", "--d", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True and payload["beta"] == "1/2"
    code, out, _ = run_cli(capsys, "bd-lemma", "--dmax", "1000")
    assert json.loads(out)["holds"] is True


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--field", "3", "x^^2")
    assert code == 1 and "offset 2" in err
    code, _, err = run_cli(capsys, "spectrum", "--field", "3", "(x+y)^2")
    assert code == 1 and "spectrum" in err
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    code, out, err = run_cli(capsys, "census", "--q", "2", "--n", "2", "--d", "8",
                             "--method", "closed")
    assert code == 1 and out == "" and "no closed form" in err


def test_cli_census_closed_one_variable_bounds(capsys):
    # d = 8 has three prime factors: the sandwich bounds and their alpha
    code, out, _ = run_cli(capsys, "census", "--q", "3", "--n", "1", "--d", "8",
                           "--method", "closed")
    assert code == 0
    assert json.loads(out) == {"D_lower": "0", "D_upper": "3888", "N": "13122",
                               "alpha": "2/27", "d": 8, "method": "bounds", "n": 1, "q": 3}


def test_cli_deterministic_output(capsys):
    a = run_cli(capsys, "spectrum", "--field", "3", "x*y")
    b = run_cli(capsys, "spectrum", "--field", "3", "x*y")
    assert a == b


def test_cli_text_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "text", "census", "--q", "2",
                           "--n", "2", "--d", "2", "--method", "recursion")
    assert code == 0
    assert "D: 12" in out


def test_cli_text_format_renders_the_nested_orbit_list(capsys):
    code, out, _ = run_cli(capsys, "--format", "text", "spectrum", "--field", "3", "x*y")
    assert code == 0
    assert "orbits:\n    degree: 1\n    min_poly: x\n    multiplicity: 1\n" in out
    assert "    representative: 0\npoly: x*y\n" in out


def test_cli_rejects_a_strong_pseudoprime_to_the_bases_up_to_37(capsys):
    # 399165290221 * 798330580441 passes Miller-Rabin for every prime base
    # up to 37, and fails it for base 41
    from indecpoly.arith import is_prime

    n = 318665857834031151167461
    assert not is_prime(n)
    code, out, err = run_cli(capsys, "pthpower", "--field", f"{n}^1", "x^2 + 1")
    assert code == 1 and out == ""
    assert f"{n} is not prime" in err
    code, _, err = run_cli(capsys, "pthpower", "--field", "91^1", "x^2 + 1")
    assert code == 1 and "91 is not prime" in err


def test_cli_modp_checks_the_sieve_against_the_guard_first(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "modp", "y^2 + x^3", "--primes-to", "10000000",
                             "--guard", "1000")
    assert code == 1 and out == ""
    assert err == "error: sieve space 10000000 exceeds guard 1000\n"

    def no_chain(F):
        raise ValueError("the chain was built")

    monkeypatch.setattr(modp, "build_chain", no_chain)
    code, out, err = run_cli(capsys, "modp", "y^2 + x^3", "--primes-to", "1001",
                             "--guard", "1000")
    assert code == 1 and out == ""
    assert err == "error: sieve space 1001 exceeds guard 1000\n"


def test_cli_modp_default_guard_admits_the_benchmark_sieve(capsys):
    code, out, _ = run_cli(capsys, "modp", "y^2 + x^3", "--primes-to", "50")
    assert code == 0
    assert json.loads(out)["good_primes"][-1] == 47


def test_cli_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("SPEC_GUARD", "10")
    code, _, err = run_cli(capsys, "enumerate", "--q", "2", "--n", "2", "--d", "3")
    assert code == 1
    assert "guard" in err


def test_cli_malformed_guard_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SPEC_GUARD", "abc")
    code, out, err = run_cli(capsys, "indec", "--field", "2", "x^2+y")
    assert code == 2
    assert out == ""
    assert err == "error: SPEC_GUARD must be an integer, not 'abc'\n"


def test_report_polynomials_reparse(capsys):
    _, out, _ = run_cli(capsys, "spectrum", "--field", "3", "x*y")
    payload = json.loads(out)
    F3 = finite_field(3)
    assert parse_poly(payload["poly"], F3) == MPoly(F3, 2, {(1, 1): 1})
    assert parse_poly(payload["s_poly"], F3, nvars=1) == MPoly.from_dense(F3, [0, 1], 1)


def test_cli_spectrum_f7_quartic_with_f7_6_descent(capsys):
    # the closure is smooth at infinity and the node certificate clears every
    # critical value, so nothing is factored and no extension field is built;
    # the name is older than that.  The report is pinned, the running time is not
    poly = ("3*x^4 + 5*x^3*y + 4*x*y^3 + 5*y^4 + x^3 + 5*x^2*y + 6*x*y^2"
            " + 6*y^3 + 2*x^2 + 2*x*y + 4*x")
    code, out, _ = run_cli(capsys, "spectrum", "--field", "7", poly)
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"] == poly
    assert payload["orbits"] == []
    assert payload["rho"] == 0
    assert payload["s_poly"] == "1"
    assert payload["spectrum_size"] == 0
    assert payload["stein_holds"] is True


def test_cli_spectrum_f7_septic_screens_its_f7_6_candidate(capsys, monkeypatch):
    # the closure is singular at infinity and one affine candidate has degree
    # 6, so conjugate_split_count runs over F_7^6, a field without tables;
    # the point-degree screen answers there without building an extension
    from indecpoly import factoring

    poly = "4*x^2*y^5 + 6*x^3*y^3 + x^4*y + 5*x^2*y^2 + 2*y^3 + 6*y^2 + 5*x"
    seen = []
    count = factoring.conjugate_split_count

    def spy(G, guard):
        seen.append(G.dom.q)
        return count(G, guard)

    monkeypatch.setattr(factoring, "conjugate_split_count", spy)
    monkeypatch.setattr(factoring, "finite_field", lambda p, k=1: pytest.fail("field built"))
    code, out, _ = run_cli(capsys, "spectrum", "--field", "7", poly)
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"] == poly
    assert payload["orbits"] == []
    assert payload["rho"] == 0
    assert payload["s_poly"] == "1"
    assert payload["spectrum_size"] == 0
    assert 7 ** 6 in seen


def test_cli_large_prime_field_order_is_recognised_without_trial_division(capsys):
    p = 100000000000000000039
    code, out, _ = run_cli(capsys, "indec", "--field", str(p), "x^2+y^3")
    assert code == 0 and json.loads(out)["indecomposable"] is True
    assert run_cli(capsys, "indec", "--field", f"{p}^1", "x^2+y^3")[1] == out


@pytest.mark.parametrize("argv, order, guard", [
    (("spectrum", "--field", "2^200", "x*y+x"), "2^200", 1 << 24),
    (("spectrum", "--field", "2^30", "--guard", "4096", "x*y+x"), "2^30", 4096),
    (("decompose", "--field", "2^400", "x^4"), "2^400", 1 << 24),
    (("indec", "--field", "1024", "--guard", "1000", "x*y"), "2^10", 1000),
    (("pthpower", "--field", f"3^{10 ** 30}", "x^3"), f"3^{10 ** 30}", 1 << 24),
])
def test_cli_checks_an_extension_field_against_the_guard_before_building_it(
        capsys, monkeypatch, argv, order, guard):
    # the modulus search of F_{p^k} walks up to p^k candidates
    monkeypatch.delenv("SPEC_GUARD", raising=False)
    monkeypatch.setattr("indecpoly.cli.finite_field", lambda p, k: pytest.fail("field built"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: field order {order} exceeds guard {guard}\n"


@pytest.mark.parametrize("argv", [
    ("census", "--q", "6", "--n", "2", "--d", "2", "--method", "closed"),
    ("census", "--q", "1", "--n", "2", "--d", "2"),
    ("census", "--q", "6", "--n", "1", "--d", "5"),
    ("check-bounds", "--q", "6", "--d", "8"),
    ("indec", "--field", "6", "x*y"),
    ("indec", "--field", "318665857834031151167461", "x*y"),
])
def test_cli_rejects_a_field_order_that_is_not_a_prime_power(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    q = argv[argv.index("--q") + 1] if "--q" in argv else argv[2]
    assert code == 1 and out == ""
    assert err == f"error: {q} is not a prime power\n"


@pytest.mark.parametrize("cmd, text", [
    ("indec", "abc"), ("spectrum", "2^x"), ("decompose", "2^"), ("pthpower", "^3"),
    ("indec", ""), ("indec", "7.0"),
])
def test_cli_names_the_field_option_when_its_value_is_no_number(capsys, cmd, text):
    code, out, err = run_cli(capsys, cmd, "--field", text, "x^2 + y")
    assert code == 1 and out == ""
    assert err == f"error: --field takes p or p^k, not {text!r}\n"


@pytest.mark.parametrize("text", ["1_1", " 7", "7 ", "+7", "2^+2", "2^1_1", "\u0667", "2^\uff13",
                                  "3^2^1"])
def test_cli_takes_only_ascii_digits_in_the_field_option(capsys, text):
    # int() also reads underscores, signs, blanks and non-ASCII digits:
    # "1_1" ran over F_11 and " 7" over F_7
    code, out, err = run_cli(capsys, "indec", "--field", text, "x*y + x")
    assert code == 1 and out == ""
    assert err == f"error: --field takes p or p^k, not {text!r}\n"


@pytest.mark.parametrize("argv", [
    ("census", "--q", "2", "--n", "2", "--d", "0"),
    ("census", "--q", "2", "--n", "2", "--d", "-3"),
    ("census", "--q", "2", "--n", "2", "--d", "0", "--method", "closed"),
    ("check-bounds", "--q", "2", "--d", "0"),
    ("check-bounds", "--q", "2", "--d", "-3"),
])
def test_cli_census_rejects_a_degree_below_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: need n >= 1 and d >= 1\n"


# (H^2 + H for the inner quartic H below) over F_4
F4_OCTIC = ("x^8 + x^6*y^2 + (t + 1)*x^6 + x^2*y^4 + y^6 + t*x^4 + x^3*y + x^2*y^2"
            " + t*x^3 + x*y^2 + y^3 + t*x^2 + x*y + y^2 + y")


def test_cli_decompose_wild_split_enumerates_only_free_monomials(capsys):
    # over F_4 at outer degree 2 the inner quartic's cubic part is forced, so
    # only the 5 monomials of degree <= 2 are enumerated (4^5, not 4^9)
    code, out, _ = run_cli(capsys, "decompose", "--field", "4", "--guard", "4096",
                           "--outer-degree", "2", F4_OCTIC)
    assert code == 0
    assert json.loads(out)["decompositions"] == [{
        "outer_degree": 2, "outer": "t^2 + t",
        "inner": "x^4 + x^3*y + t*x^3 + x*y^2 + y^3 + t*x^2 + x*y + y",
    }]


def _parse_int(text):
    return int(Decimal(text))  # int(text) refuses more than 4300 digits


def test_cli_prints_exact_integers_of_any_size(capsys):
    # N_200 over F_2 in two variables has 6,112 decimal digits
    rep = count_recursive(2, 2, 200)
    code, out, _ = run_cli(capsys, "census", "--q", "2", "--n", "2", "--d", "200",
                           "--method", "recursion")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "recursion"
    assert len(payload["N"]) > 4300
    assert [_parse_int(payload[k]) for k in "NID"] == [
        rep.total, rep.indecomposable, rep.decomposable]
    code, out, _ = run_cli(capsys, "check-bounds", "--q", "2", "--d", "200")
    assert code == 0
    num, den = map(_parse_int, json.loads(out)["ratio"].split("/"))
    assert Fraction(num, den) == Fraction(rep.decomposable, rep.total)


@pytest.mark.parametrize("argv", [
    ("enumerate", "--q", "2", "--n", "2", "--d", "200"),
    ("decompose", "--field", "2", "x^60000"),
    ("spectrum", "--field", "2", "x^14300*y + x + y"),
])
def test_cli_guard_messages_print_sizes_of_any_length(capsys, monkeypatch, argv):
    monkeypatch.delenv("SPEC_GUARD", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "exceeds guard 16777216" in err


@pytest.mark.parametrize("argv, message", [
    (("census", "--q", "2", "--d", "100000", "--method", "closed"),
     "count of 5000150001 base-2 digits exceeds guard 16777216"),
    (("census", "--q", "2", "--d", "100000", "--method", "recursion"),
     "count of 5000150001 base-2 digits exceeds guard 16777216"),
    (("census", "--q", "3", "--n", "1", "--d", "100", "--guard", "100"),
     "count of 101 base-3 digits exceeds guard 100"),
    (("check-bounds", "--q", "2", "--d", "100000"),
     "count of 5000150001 base-2 digits exceeds guard 16777216"),
    (("bd-lemma", "--dmax", "200000", "--guard", "1000"),
     "d_max 200000 exceeds guard 1000"),
])
def test_cli_checks_the_counts_against_the_guard_before_work(capsys, monkeypatch, argv, message):
    # N_d has comb(n + d, n) base-q digits; the counting code never runs
    monkeypatch.delenv("SPEC_GUARD", raising=False)
    for name in ("count_total", "count_closed_small", "count_uni", "bounds_check_n2",
                 "bd_lemma_check"):
        monkeypatch.setattr(f"indecpoly.census.{name}", lambda *a: pytest.fail("work began"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, spied, message", [
    (("enumerate", "--q", "3", "--n", "2", "--d", "2000"),
     ("census.scan_space", "census.partition_ranges"),
     "scan space 3^2003001 exceeds guard 16777216"),
    (("census", "--q", "3", "--n", "2", "--d", "2000", "--method", "enumeration"),
     ("census.scan_space", "census.partition_ranges"),
     "scan space 3^2003001 exceeds guard 16777216"),
    (("spectrum", "--field", "3", "x^60000 + y"), ("spectrum.sum",),
     "spectral sweep over at least 3^59999 elements exceeds guard 16777216"),
    (("indec", "--field", "2", "x^4000 + y^2"), ("decompose.monomials_upto",),
     "inner enumeration of 501500 free monomials, size 2^501500, exceeds guard 16777216"),
])
def test_cli_checks_scans_sweeps_and_inner_spaces_against_the_guard_before_work(
        capsys, monkeypatch, argv, spied, message):
    # a space of M >= guard.bit_length() base-q digits exceeds the guard, so
    # q^M, the sum over the sweep and the free monomials are never built
    monkeypatch.delenv("SPEC_GUARD", raising=False)
    for name in spied:
        monkeypatch.setattr(f"indecpoly.{name}", lambda *a, name=name: pytest.fail(f"{name} ran"),
                            raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_cli_indec_answers_by_partial_degrees_without_the_guard(capsys, monkeypatch):
    # deg_y = 1 is divisible by no outer degree, so every split of x^4000 + y
    # is ruled out before its 2^501500 inner candidates are named
    monkeypatch.delenv("SPEC_GUARD", raising=False)
    monkeypatch.setattr("indecpoly.decompose.poly_eth_root",
                        lambda *a: pytest.fail("poly_eth_root ran"))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "indec", "--field", "2", "x^4000 + y")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["indecomposable"] is True


def test_cli_dense_decomposer_refuses_before_building_its_space(capsys, monkeypatch):
    # x^6000000 over F_2 at r = 2 leaves 1,500,000 inner coefficients free:
    # 2^1500000 is named, never built nor written out in decimal
    monkeypatch.delenv("SPEC_GUARD", raising=False)
    monkeypatch.setattr("indecpoly.decompose._forced_inner_top",
                        lambda *a: pytest.fail("_forced_inner_top ran"))
    code, out, err = run_cli(capsys, "decompose", "--field", "2", "x^6000000")
    assert code == 1 and out == ""
    assert err == ("error: inner enumeration of 1500000 free coefficients, size 2^1500000, "
                   "exceeds guard 16777216\n")
    assert len(err) < 200


def test_cli_count_guard_keeps_the_earlier_input_errors(capsys):
    # comb(202, 2) = 20,301 digits fit the default guard; a guard below it
    # reports after the prime-power check, and a d_max below 8 keeps its error
    code, _, err = run_cli(capsys, "check-bounds", "--q", "6", "--d", "200", "--guard", "100")
    assert code == 1 and err == "error: 6 is not a prime power\n"
    code, _, err = run_cli(capsys, "bd-lemma", "--dmax", "5", "--guard", "3")
    assert code == 1 and err == "error: need d_max >= 8\n"
