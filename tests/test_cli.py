import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdq import digit_sums, trollope, verify
from tdq.cli import _parse_omega, build_parser, main
from tdq.digit_sums import S_q_direct, S_rec_payload
from tdq.odometer import birkhoff_deviation, birkhoff_mean
from tdq.scalar import Mode, parse_scalar


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- eval ---------------------------------------------------------------------


def test_eval_examples(capsys):
    code, out, _ = run(capsys, "eval", "Sq", "--q", "2", "--n", "3")
    assert (code, out.strip()) == (0, "6")
    code, out, _ = run(capsys, "eval", "takagi", "--a", "1/2", "--x", "1/2")
    assert (code, out.strip()) == (0, "1/2")
    code, out, _ = run(capsys, "eval", "vdc", "--n", "3")
    assert (code, out.strip()) == (0, "1/2")


def test_eval_routes_and_targets(capsys):
    for route in ("direct", "recursive", "pow2"):
        code, out, _ = run(capsys, "eval", "Sq", "--q", "2/3", "--n", "8", "--route", route)
        assert code == 0 and out.strip() == "152/27"
        code, _, err = run(capsys, "eval", "Sq", "--q", "2/3", "--n", "0", "--route", route)
        assert (code, err) == (2, "tdq: domain error: S_q is defined for n >= 1\n")
    code, out, _ = run(capsys, "eval", "sq", "--q", "2/3", "--n", "6")
    assert code == 0 and out.strip() == "20/27"
    code, out, _ = run(capsys, "eval", "Gq", "--q", "2/3", "--n", "3")
    assert code == 0 and out.strip() == "1/12"
    code, out, _ = run(capsys, "eval", "tildeF1", "--t", "0.0")
    assert code == 0 and abs(float(out)) < 1e-12


def test_takagi_at_an_integer_is_positive_zero(capsys):
    # the float sum starts at +0, not at 0 * a = -0.0 for a negative a
    code, out, _ = run(capsys, "eval", "takagi", "--a=-0.5", "--x", "0")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "curve", "takagi", "--a=-1/2", "--mode", "float", "--grid", "1")
    assert code == 0 and out.splitlines()[2:] == ["0,0", "1/2,0.5", "1,0"]


@pytest.mark.parametrize("q", ["3/2", "4", "2/3", "1"])
def test_tildeF_at_an_integer_is_positive_zero(capsys, q):
    # u = 1 is not reduced mod 1, and there the head is 0 / (1 - q) = -0.0 at q > 1
    for u in ("0", "1", "2"):
        assert run(capsys, "eval", "tildeF", "--q", q, "--u", u) == (0, "0\n", "")
    code, out, _ = run(capsys, "curve", "tildeF", "--q", q, "--grid", "1")
    assert code == 0 and out.splitlines()[2::2] == ["0,0", "1,0"]


def test_exit_code_contract(capsys):
    # 1: parse
    code, _, err = run(capsys, "eval", "Sq", "--q", "2/x", "--n", "3")
    assert code == 1 and "parse" in err
    code, _, err = run(capsys, "eval", "Sq", "--n", "3")  # missing --q
    assert code == 1
    # 2: domain
    code, _, err = run(capsys, "eval", "tildeF", "--q", "1/3", "--u", "0.5")
    assert code == 2 and "domain" in err
    code, _, _ = run(capsys, "eval", "Sq", "--q", "2/3", "--n", str((1 << 62) + 1))
    assert code == 2
    code, _, _ = run(capsys, "eval", "Sq", "--q", "2/3", "--n", "6", "--route", "pow2")
    assert code == 2
    # 1: argparse usage errors land on the parse slot
    code, _, _ = run(capsys, "eval", "nonsense", "--q", "2/3")
    assert code == 1


def test_verify_pass_lines(capsys):
    code, out, _ = run(capsys, "verify", "theorem1", "--q", "2/3", "--n-max", "128")
    assert code == 0 and "max residual 0/1, PASS" in out
    code, out, _ = run(capsys, "verify", "dyadic", "--q=-1/2", "--n-max", "128")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "recursions", "--q", "3/2", "--n-max", "128")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "prop2", "--q", "2/3", "--N", "6")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "prop2", "--q", "i", "--N", "6")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "corollary", "--q", "3/2", "--n-max", "64", "--tol", "1e-9")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "larcher")
    assert code == 0 and "PASS" in out


PROP2_GOLDEN = {
    ("--q", "2/3"): (0, "prop2: q=2/3 mode=exact N<=8 max residual 0/1, PASS\n"),
    ("--q", "i"): (0, "prop2: q=i mode=complex N<=8 max residual 0, PASS\n"),
    ("--q", "0.7", "--tol", "1e-30"): (
        3,
        "prop2: q=0.7 mode=float N<=8 max residual 6.3282712403633923e-15, FAIL at N=8\n",
    ),
}


@pytest.mark.parametrize("argv", sorted(PROP2_GOLDEN))
def test_verify_prop2_golden(capsys, argv):
    code, out, err = run(capsys, "verify", "prop2", *argv)
    assert (code, out, err) == (*PROP2_GOLDEN[argv], "")


def test_exact_sweep_fails_at_a_residual_that_is_not_exact(capsys, monkeypatch):
    # a float 0.0 numerator meets the cross-product test at n = 1 (0.0 == 0):
    # an exact verdict stands on integers, so the sweep stops there
    monkeypatch.setattr(trollope, "theorem1_num", lambda n, q: (0.0, 1))
    code, out, err = run(capsys, "verify", "theorem1", "--q", "2/3", "--n-max", "8")
    assert (code, out) == (3, "")
    assert err == "tdq: identity violation: the cross-product at n=1 is 0.0, not exact in an exact sweep\n"


# target: (module, the many-point form the sweep reads, its point function,
# the point function's arguments after n, m), num/den standing for S_q(n)/m
# at q = 2/3
NUMERATORS = {
    "theorem1": (trollope, "theorem1_nums", trollope.theorem1_num, (Fraction(2, 3),), 777),
    "dyadic": (trollope, "dyadic_nums", trollope.dyadic_num, (Fraction(2, 3),), 777),
    "recursions": (digit_sums, "S_rec_nums", digit_sums.S_rec_num, (2, 3), 1),
}


@pytest.mark.parametrize("target", NUMERATORS)
def test_exact_sweep_fails_where_a_numerator_is_off(capsys, monkeypatch, target):
    # the cross-product test fails at n = 777 alone, and the Fraction residual
    # there is the sweep's max: |num/den - S_q(777)/m| with num one too big
    module, name, kernel, rest, m = NUMERATORS[target]
    stream = getattr(module, name)

    def off(*args):
        return ((num + (n == 777), den) for n, (num, den) in enumerate(stream(*args), 1))

    monkeypatch.setattr(module, name, off)
    num, den = kernel(777, *rest)
    r = abs(Fraction(num + 1, den) - S_q_direct(777, Fraction(2, 3)).value / m)
    code, out, err = run(capsys, "verify", target, "--q", "2/3")
    assert (code, out, err) == (3, f"{target}: q=2/3 mode=exact max residual {r.numerator}/{r.denominator}, FAIL at n=777\n", "")


@pytest.mark.parametrize("target", NUMERATORS)
def test_exact_sweep_passes_at_two_primes_above_the_coefficients(capsys, target):
    # 8219 and 8209 are primes above 2^13, large numbers on both sides of
    # every cross-product at n <= 4096
    code, out, err = run(capsys, "verify", target, "--q", "8219/8209")
    assert (code, out, err) == (0, f"{target}: q=8219/8209 mode=exact max residual 0/1, PASS\n", "")


def test_verify_domain_guard(capsys):
    code, _, _ = run(capsys, "verify", "theorem1", "--q", "1/3")
    assert code == 2


@pytest.mark.parametrize("argv, option", [
    (("--q", "junk"), "q"),
    (("--q", "2/3"), "q"),
    (("--q", ""), "q"),
    (("--mode", "complex"), "mode"),
    (("--mode", "float"), "mode"),
    (("--q", "2/3", "--mode", "exact"), "q"),
])
def test_verify_larcher_refuses_q_and_mode(capsys, argv, option):
    # larcher weighs bits by gamma, in float: it printed PASS past a --q or --mode it never read
    code, out, err = run(capsys, "verify", "larcher", *argv)
    assert (code, out, err) == (1, "", f"tdq: parse error: verify larcher takes no --{option}\n")


@pytest.mark.parametrize("target, argv, option", [
    ("theorem1", ("--N", "3"), "N"),
    ("dyadic", ("--q", "2/3", "--n-max", "64", "--N", "3"), "N"),
    ("recursions", ("--N", "3"), "N"),
    ("corollary", ("--N", "3"), "N"),
    ("prop2", ("--n-max", "3"), "n-max"),
    ("prop2", ("--N", "3", "--n-max", "3"), "n-max"),
])
def test_verify_refuses_the_other_sweeps_range(capsys, target, argv, option):
    # an n-sweep read --n-max alone and prop2 --N alone: the other option printed a PASS it never checked
    code, out, err = run(capsys, "verify", target, *argv)
    assert (code, out, err) == (1, "", f"tdq: parse error: verify {target} takes no --{option}\n")


@pytest.mark.parametrize("argv, option", [
    (("--n-max", "5"), "n-max"),
    (("--n-max", "4096"), "n-max"),
    (("--N", "3"), "N"),
    (("--N", "8"), "N"),
    (("--N", "8", "--n-max", "5"), "n-max"),
    (("--n-max", "5", "--q", "2/3"), "q"),
])
def test_verify_larcher_refuses_n_max_and_N(capsys, argv, option):
    # larcher checks its own n up to 1024: it printed PASS past an --n-max or --N it never read
    code, out, err = run(capsys, "verify", "larcher", *argv)
    assert (code, out, err) == (1, "", f"tdq: parse error: verify larcher takes no --{option}\n")


@pytest.mark.parametrize("target", verify.SWEEPS)
def test_verify_sweeps_to_n_4096_and_N_8_when_no_top_is_given(capsys, target):
    option = verify.SWEEPS[target].option
    assert getattr(build_parser().parse_args(["verify", target]), option.replace("-", "_")) is None
    # below any tol a float sweep prints its worst residual, which grows with n
    argv = ["verify", target, "--q", "0.7", "--tol", "1e-30"]
    default = run(capsys, *argv)
    assert default == run(capsys, *argv, f"--{option}", "4096" if option == "n-max" else "8")
    assert default != run(capsys, *argv, f"--{option}", "2048" if option == "n-max" else "4")


@pytest.mark.parametrize("target", verify.SWEEPS)
def test_verify_takes_q_2_3_when_none_is_given_and_refuses_an_empty_q(capsys, target):
    code, out, err = run(capsys, "verify", target, f"--{verify.SWEEPS[target].option}", "3")
    assert code == 0 and out.startswith(f"{target}: q=2/3 mode=") and out.endswith(", PASS\n") and err == ""
    code, out, err = run(capsys, "verify", target, "--q", "")
    assert (code, out, err) == (1, "", "tdq: parse error: empty scalar text\n")


@pytest.mark.parametrize("command", [("curve", "fluctuation", "--grid", "2"), ("odometer", "fluctuation")])
@pytest.mark.parametrize("R, message", [
    ("1/1" + "0" * 400, "normalizer R must be non-zero (given, or underflowed to 0)"),
    ("1" + "0" * 400, "an exact value is beyond the float range"),
], ids=["float-0", "past-float-range"])
def test_fluctuation_refuses_an_exact_R_with_no_float_at_a_float_q(capsys, command, R, message):
    # the sums are float, and divided by float(R): a traceback, not a domain error
    code, out, err = run(capsys, *command, "--q", "0.7", "--l", "16", "--R", R)
    assert (code, out, err) == (2, "", f"tdq: domain error: {message}\n")


# -- curve / figures ----------------------------------------------------------


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def test_curve_takagi_pinned_and_parabola(tmp_path, capsys):
    f = tmp_path / "t.csv"
    code, _, _ = run(capsys, "curve", "takagi", "--a", "1/2", "--grid", "4", "--out", str(f))
    assert code == 0
    meta, header, rows = _read_csv(f)
    assert header == ["t", "value"]
    assert len(rows) == 17
    mid = dict((r[0], r[1]) for r in rows)["1/2"]
    assert Fraction(mid) == Fraction(1, 2)

    f2 = tmp_path / "p.csv"
    run(capsys, "curve", "takagi", "--a", "1/4", "--grid", "4", "--out", str(f2))
    for t_text, v_text in (r for r in _read_csv(f2)[2]):
        t = Fraction(t_text)
        assert Fraction(v_text) == 2 * t * (1 - t)


def test_curve_tildeF2_vanishes(tmp_path, capsys):
    f = tmp_path / "z.csv"
    code, _, _ = run(capsys, "curve", "tildeF", "--q", "2", "--grid", "6", "--out", str(f))
    assert code == 0
    for _, v in _read_csv(f)[2]:
        assert abs(float(v)) <= 1e-12


def test_curve_complex_columns(tmp_path, capsys):
    f = tmp_path / "c.csv"
    code, _, _ = run(capsys, "curve", "complex-takagi", "--q", "i", "--grid", "3", "--out", str(f))
    assert code == 0
    _, header, rows = _read_csv(f)
    assert header == ["t", "re", "im"]
    assert len(rows) == 9


# complex-takagi parses q as complex unless --mode is given
COMPLEX_TAKAGI_MODES = {
    "exact": ("--q 2/3 --mode exact", 0, "# curve=complex-takagi, q=2/3, mode=exact, depth=2\n"
              "t,value\n0,0\n1/4,5/8\n1/2,1/2\n3/4,5/8\n1,0\n"),
    "float": ("--q 2/3 --mode float", 0, "# curve=complex-takagi, q=2/3, mode=float, depth=2\n"
              "t,value\n0,0\n1/4,0.625\n1/2,0.5\n3/4,0.625\n1,0\n"),
    "default": ("--q 2/3", 0, "# curve=complex-takagi, q=2/3, mode=complex, depth=2\n"
                "t,re,im\n0,0,0\n1/4,0.625,0\n1/2,0.5,0\n3/4,0.625,0\n1,0,0\n"),
    "refused-literal": ("--q i --mode float", 1, "tdq: parse error: not a float literal: 'i'\n"),
}


@pytest.mark.parametrize("argv, code, want", COMPLEX_TAKAGI_MODES.values(), ids=COMPLEX_TAKAGI_MODES)
def test_curve_complex_takagi_takes_the_given_mode(capsys, argv, code, want):
    got_code, out, err = run(capsys, "curve", "complex-takagi", *argv.split(), "--grid", "2")
    assert (got_code, out or err) == (code, want)


def test_curve_json_round_trip(tmp_path, capsys):
    f = tmp_path / "t.json"
    code, _, _ = run(
        capsys, "curve", "takagi", "--a", "2/3", "--grid", "3", "--format", "json", "--out", str(f)
    )
    assert code == 0
    doc = json.loads(f.read_text())
    assert doc["columns"] == ["t", "value"]
    assert len(doc["rows"]) == 9
    # round-trip: re-parsed values match the library
    from tdq.takagi import takagi_dyadic_exact

    for t_text, v_text in doc["rows"]:
        assert Fraction(v_text) == takagi_dyadic_exact(Fraction(t_text), Fraction(2, 3)).value


def test_curve_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        run(capsys, "curve", "fluctuation", "--q", "2/3", "--omega", "random",
            "--seed", "7", "--l", "64", "--grid", "4", "--R", "max-abs", "--out", str(f))
    assert f1.read_bytes() == f2.read_bytes()


def test_curve_grid_guard(capsys):
    code, _, _ = run(capsys, "curve", "takagi", "--a", "1/2", "--grid", "25")
    assert code == 2


# sha256 of each panel of `tdq figures --grid 4` and of the stdout of
# `tdq curve TARGET ... --grid 4`: both run on the one curve table, and these
# pin every byte either writes
FIGURES_SHA256 = {
    "fig1_a-0.5.csv": "4a2707ee2039364d2d96076b33fe9cd8313e9defc656f4d31f765f9eb0117759",
    "fig1_a0.25.csv": "c9afb2938a22d3e5a2b9759892fed6af3248736e6d788ce0f0d902c733dd0e7a",
    "fig1_a0.5.csv": "2e0fc09fdc631c79dc45501375107d037b235b3e533ea7cd6d8fc699ab8d82b2",
    "fig1_a2_3.csv": "9006fb67c7d5a8de2622e3f4393307d9c38f9f12d09d0cedd6f707cc1f00caa0",
    "fig2_F_q2_3.csv": "b2a59f4deac0ff8ddd7fa7922eacb24ebde65c8062807144bfceffb508f4a03d",
    "fig3_q_0.5+0.5i.csv": "623be78841d053d9235a493ba0a73dd953401545e7b746234e4d318584d8f973",
    "fig3_q_0.5-0.5i.csv": "63ed44b30898d837de19d34068a8471e9529ad813108231a8df805edee300d23",
    "fig3_q_i.csv": "ecb390d4e0d06414c94cf2c247bd57af8f0c177a88c6372b4b6daf62036c7d21",
    "figT_q1.5.csv": "4dc5fb203b9dc40f7b4b7b6abaf311f950e4d3835dec78e6b78e95a15a21078f",
    "figT_q1.csv": "677143c0c5abfe49e804dcc4a7e0778bf0102899a5b87bae74905f40ee039ab0",
    "figT_q2_3.csv": "46b5e5e2c66c17c6d34eda84035bd40e29afeb83d4b728570c2735b3748bf732",
    "figT_q4.csv": "e8234e36f8710def5b78150fb463cec05c43cc94dfa2b54461afeeb3713e64c5",
}
CURVE_SHA256 = {
    "takagi --a 2/3": "dbb0ef87221d1437ca6d63b67bda69f77318ecf4a70862e31fab1a6b90839994",
    "takagi --a 0.7 --format json": "f21901ea38819de9f245127787b60a3535d80cf39c82a44b30c692addff95a6f",
    "F --q 2/3": "a4f4b57fb2d87b2145fd488959d6537f5f10bc9fb5e4de83e2e155844890605c",
    "F --q i": "ac53a24e2c1ef7ca794a56d95565d48ae9890f79cfd6062336f7c4ea89986d50",
    "tildeF --q 2/3": "fe289d78241aa41064b097da2f8790ec01ed0f42115fa3d8e08f6889a1e3125c",
    "tildeF --q 1 --format json": "45fa1ec31661857209f0ef656ac251be3155af0091c3978fa40a09a6d8232e45",
    "complex-takagi --q i": "df86490a8058e5c0da6d15cd55e7511da83afe9bb183d325e89cde683ae9866e",
    "complex-takagi --q 0.5+0.5i": "c0d876fd1aaff0cf0b6cd25b9483cc5c13e69bac670ae68e8489ebb706c642c3",
    "Gtilde": "32096b19f21814b20fe9deec1ad3c1b22fc28c06cdf19e2bfec97e349880ba32",
    "Gtilde --gamma-limit 2.5 --format json": "87883df0b4e4525804f0b2ca862785fc2d245717d5aadbcb9fdf0bcb8510e675",
}


# the same at the default --grid 10: the 1025 abscissae of every panel and curve
FIGURES_GRID10_SHA256 = {
    "fig1_a-0.5.csv": "838c3e61d0c9a708b3537a3f5dd2af692ae33754547d581e9c608bb49cbad179",
    "fig1_a0.25.csv": "30b27904b1a428074b01b51ba8919c495a19f4e1ab9ed980c009494264a289ee",
    "fig1_a0.5.csv": "d19766207ad6000e4305e9c0f6ca573729485590b9594150ca8cebda892fbb5f",
    "fig1_a2_3.csv": "05c4298a5df62080007d5eeb7f33e9e0384996f19b72a25dae90e33a07df8dfb",
    "fig2_F_q2_3.csv": "ee3fc872a4b5922d653b93924a3c4747bb2a23d5bda01d2be0eda3c56ecc9b32",
    "fig3_q_0.5+0.5i.csv": "38198fbd787faa873e9ca7e58097ca0a2c6916823338950bbd0c3a977548ec65",
    "fig3_q_0.5-0.5i.csv": "e4c4ac2cafcb46e2694235adae76e41e9e106bd524d06c2040383c40834c41ab",
    "fig3_q_i.csv": "a159ac14dedfb4e8c76acd3350a5932bdb82166b4c2b2c8736dbe2addd37e022",
    "figT_q1.5.csv": "2e7c3913e1524e99f97078bc02efb4edcae38bb89a1940f335013f6ffffb5e9d",
    "figT_q1.csv": "8411e7b6733309871c3612b5893d4fc2a3477bc2ba1da257925c874794dfd726",
    "figT_q2_3.csv": "ca336344c5a6a8cfcd7ffe762f78f03f01ae44b1d11f1de93bc8f21586a3d8a0",
    "figT_q4.csv": "206588acb3541bf82221d613a15d74992fb6a8a11eec381f999657d5cb3070fd",
}
CURVE_GRID10_SHA256 = {
    "F --q 2/3": "d73c88e6fec970b53a4822c6c75ce66a664d6a0028340a14e97cf25f0c9b960a",
    "tildeF --q 2/3": "c93e014fe42fb342d35dda7d94572e0a2a26b0b9be6850bd5465948a93759f03",
}


def test_figures_at_the_default_grid_pinned(tmp_path, capsys):
    code, _, _ = run(capsys, "figures", "--out", str(tmp_path / "figs"))
    assert code == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "figs").iterdir()}
    assert got == FIGURES_GRID10_SHA256


@pytest.mark.parametrize("argv", sorted(CURVE_GRID10_SHA256))
def test_curve_output_pinned_at_the_default_grid(capsys, argv):
    code, out, err = run(capsys, "curve", *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CURVE_GRID10_SHA256[argv]


def test_figures_filenames_and_content(tmp_path, capsys):
    code, out, _ = run(capsys, "figures", "--out", str(tmp_path / "figs"), "--grid", "4")
    assert (code, out) == (0, f"wrote 12 files to {tmp_path / 'figs'}\n")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "figs").iterdir()}
    assert got == FIGURES_SHA256
    # parabola panel
    for t_text, v_text in _read_csv(tmp_path / "figs" / "fig1_a0.25.csv")[2]:
        t = Fraction(t_text)
        assert Fraction(v_text) == 2 * t * (1 - t)
    # complex panel has re/im columns
    assert _read_csv(tmp_path / "figs" / "fig3_q_i.csv")[1] == ["t", "re", "im"]


@pytest.mark.parametrize("argv", sorted(CURVE_SHA256))
def test_curve_output_pinned(capsys, argv):
    code, out, err = run(capsys, "curve", *argv.split(), "--grid", "4")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CURVE_SHA256[argv]


# -- odometer -----------------------------------------------------------------


def test_odometer_run_trajectory(capsys):
    code, out, _ = run(capsys, "odometer", "run", "--omega", "110", "--steps", "3")
    assert code == 0
    assert out.splitlines() == ["110 (n=3)", "001 (n=4)", "101 (n=5)"]
    # a carry past the top bit widens the point; leading (high) zeros are kept
    for omega, steps, want in [
        ("111", "3", "111 (n=7)\n0001 (n=8)\n1001 (n=9)\n"),
        ("0000", "2", "0000 (n=0)\n1000 (n=1)\n"),
    ]:
        assert run(capsys, "odometer", "run", "--omega", omega, "--steps", steps) == (0, want, "")


def test_odometer_fluctuation_auto_prop2(tmp_path, capsys):
    f = tmp_path / "fl.csv"
    code, _, err = run(
        capsys, "odometer", "fluctuation", "--q", "2/3", "--omega", "0",
        "--l", "64", "--R", "auto-prop2", "--grid", "4", "--out", str(f)
    )
    assert code == 0
    assert "sup distance to -q*T_a: 0" in err


def test_odometer_birkhoff_small(capsys):
    code, out, _ = run(capsys, "odometer", "birkhoff", "--q", "2/3", "--omega", "0", "--n", "4096")
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert last.startswith("n=4096 ")
    # from omega = 0 the deviation at n = 2^k is exactly -(2/3)^k
    assert Fraction(last.split("deviation=")[1]) == -Fraction(2, 3) ** 12
    code, _, _ = run(capsys, "odometer", "birkhoff", "--q", "3/2", "--n", "16")
    assert code == 2


BIRKHOFF_GOLDEN = {
    (): """\
# q=2/3 omega=0 seed=0 E[s_q]=1
n=1 deviation=-1
n=2 deviation=-2/3
n=4 deviation=-4/9
n=8 deviation=-8/27
n=16 deviation=-16/81
n=32 deviation=-32/243
n=64 deviation=-64/729
n=128 deviation=-128/2187
n=256 deviation=-256/6561
n=512 deviation=-512/19683
n=1024 deviation=-1024/59049
n=2048 deviation=-2048/177147
n=4096 deviation=-4096/531441
n=8192 deviation=-8192/1594323
n=16384 deviation=-16384/4782969
n=32768 deviation=-32768/14348907
n=65536 deviation=-65536/43046721
""",
    ("--q", "1/3", "--n", "8"): """\
# q=1/3 omega=0 seed=0 E[s_q]=1/4
n=1 deviation=-1/4
n=2 deviation=-1/12
n=4 deviation=-1/36
n=8 deviation=-1/108
""",
    ("--q=-1/2", "--n", "1000"): """\
# q=-1/2 omega=0 seed=0 E[s_q]=-1/6
n=1 deviation=1/6
n=2 deviation=-1/12
n=4 deviation=1/24
n=8 deviation=-1/48
n=16 deviation=1/96
n=32 deviation=-1/192
n=64 deviation=1/384
n=128 deviation=-1/768
n=256 deviation=1/1536
n=512 deviation=-1/3072
n=1000 deviation=-7/76800
""",
    ("--q", "2/3", "--n", "4096", "--mode", "float"): """\
# q=2/3 omega=0 seed=0 E[s_q]=0.99999999999999989
n=1 deviation=-0.99999999999999989
n=2 deviation=-0.66666666666666652
n=4 deviation=-0.44444444444444431
n=8 deviation=-0.29629629629629617
n=16 deviation=-0.19753086419753074
n=32 deviation=-0.13168724279835375
n=64 deviation=-0.087791495198902503
n=128 deviation=-0.058527663465934965
n=256 deviation=-0.039018442310623236
n=512 deviation=-0.026012294873748787
n=1024 deviation=-0.017341529915832488
n=2048 deviation=-0.011561019943888251
n=4096 deviation=-0.00770734662925876
""",
}


@pytest.mark.parametrize("argv", sorted(BIRKHOFF_GOLDEN))
def test_odometer_birkhoff_golden(capsys, argv):
    # exact q prints exact fractions; the float proxy is pinned bit for bit
    code, out, _ = run(capsys, "odometer", "birkhoff", *argv)
    assert (code, out) == (0, BIRKHOFF_GOLDEN[argv])


def test_odometer_birkhoff_at_defaults_is_within_1e_11_of_exact(capsys):
    q = Fraction(2, 3)
    mean = q / (2 * (1 - q))
    code, out = run(capsys, "odometer", "birkhoff")[:2]
    assert code == 0
    assert out.splitlines()[0].endswith("E[s_q]=1")
    lines = out.splitlines()[1:]
    assert len(lines) == 17  # n = 1, 2, 4, ..., 65536
    for line in lines:
        n, dev = (field.split("=")[1] for field in line.split())
        assert Fraction(dev) == S_rec_payload(int(n), q) / int(n) - mean
    # the float proxy sums at most 16 per-bit terms; a walk over the orbit
    # with the carry step s - (w_0 + ... + w_{t-1}) + w_t left 9.5e-10
    code, out = run(capsys, "odometer", "birkhoff", "--mode", "float")[:2]
    assert code == 0
    q = Fraction(2 / 3)  # the float q, exactly
    mean = q / (2 * (1 - q))
    lines = out.splitlines()[1:]
    assert len(lines) == 17
    for line in lines:
        n, dev = (field.split("=")[1] for field in line.split())
        exact = S_rec_payload(int(n), q) / int(n) - mean
        assert abs(Fraction(float(dev)) - exact) <= abs(exact) / 10 ** 11


@pytest.mark.parametrize("omega", ["0", "random"])
@pytest.mark.parametrize("q, mode", [
    ("1/3", None), ("-1/2", None), ("2/3", "float"), ("0.7", None), ("1e-300", None), ("-0.0", None),
    ("0.3+0.4i", None), ("1/3", "complex"),
])
def test_odometer_birkhoff_prints_the_librarys_values(capsys, q, mode, omega):
    argv = ["odometer", "birkhoff", f"--q={q}", "--omega", omega, "--seed", "11", "--n", "1000"]
    code, out, err = run(capsys, *argv, *(["--mode", mode] if mode else []))
    assert (code, err) == (0, "")
    qs = parse_scalar(q, Mode(mode) if mode else None)
    pt = _parse_omega(omega, 11)
    head, *lines = out.splitlines()
    assert head == f"# q={q} omega={omega} seed=11 E[s_q]={birkhoff_mean(qs).render()}"
    js = [1 << k for k in range(10)] + [1000]
    assert lines == [f"n={j} deviation={birkhoff_deviation(pt, qs, j).render()}" for j in js]


def test_odometer_birkhoff_at_the_n_limit(capsys):
    # each line is O(log n): the orbit is never walked
    code, out, _ = run(capsys, "odometer", "birkhoff", "--q", "1/3", "--omega", "random", "--n", str(1 << 62))
    lines = out.splitlines()[1:]
    assert (code, len(lines)) == (0, 63)
    assert lines[-1].startswith(f"n={1 << 62} deviation=")


def test_odometer_search(capsys):
    code, out, _ = run(
        capsys, "odometer", "search", "--q", "2/3", "--omega", "0",
        "--candidates", "48,64,128", "--grid", "3"
    )
    assert code == 0
    assert "best l=" in out


# -- input validation and the corollary sweep -------------------------------------

BIG = "1" + "0" * 400  # an integer literal past the float range


@pytest.mark.parametrize(
    "argv, code",
    [
        ("eval Sq --q 2/3", 1),
        ("eval sq --q 2/3", 1),
        ("eval Gq --q 2/3", 1),
        ("eval vdc", 1),
        ("eval hatF --q 2/3", 1),
        ("eval tildeF --q 2/3", 1),
        ("eval tildeF1", 1),
        ("eval takagi --a 1/2", 1),
        ("eval takagi --x 1/2", 1),
        ("eval Sq --q nan --n 8", 1),
        ("eval Sq --q inf --n 8", 1),
        ("eval Sq --q -inf --n 8", 1),
        ("eval Sq --q nan+1i --n 8", 1),
        ("eval takagi --a 1/2 --x nan", 1),
        ("eval hatF --q 2/3 --u nan", 1),
        ("eval tildeF1 --t inf", 1),
        ("verify theorem1 --q nan", 1),
        ("verify corollary --tol nan", 1),
        # options no subcommand reads are not accepted
        ("figures --mode float", 1),
        ("verify theorem1 --n-limit 10", 1),
        ("eval vdc --n 0", 2),
        ("eval Sq --q 2/3 --n 0", 2),
        ("eval takagi --a 2 --x 0.3", 2),
        # no truncation of the series is certified within --tol 0
        ("eval takagi --a 1/2 --x 0.3 --tol 0", 2),
        ("eval hatF --q 2/3 --u 0.5 --tol 0", 2),
        ("eval tildeF --q 2/3 --u 0.5 --tol 0", 2),
        ("eval tildeF1 --t 0.5 --tol 0", 2),
        ("curve tildeF --q 2/3 --tol 0", 2),
        ("curve tildeF --q 1 --tol 0", 2),
        ("curve fluctuation --q 2/3 --l 0", 2),
        ("odometer birkhoff --n 0", 2),
        ("odometer run --steps 0", 2),
        ("odometer run --steps -2", 2),
        # a --candidates entry that is not an integer is a parse error, not a traceback
        ("odometer search --candidates x", 1),
        ("odometer search --candidates 1e3", 1),
        # n above the fixed limit 2^62
        ("odometer run --steps 4611686018427387905", 2),
        # ... for every range option: --n-max, --N by its window 2^N, each --candidates window
        ("verify theorem1 --n-max 9223372036854775808", 2),
        ("verify prop2 --N 70", 2),
        ("odometer search --candidates 16,9223372036854775808", 2),
        ("curve Gtilde --gamma-limit 1e300", 2),
        ("verify larcher --gamma-limit 1e300", 2),
        # a zero normalizer R, given or underflowed from (2q)^{N-1}, divides nothing
        ("curve fluctuation --q 2/3 --R 0", 2),
        ("curve fluctuation --q 1+1i --R 0", 2),
        ("curve fluctuation --q 2/3 --R 0.0", 2),
        ("odometer fluctuation --q 1e-300", 2),
        ("odometer fluctuation --q 1e300", 2),
        ("verify corollary --q 1e308", 2),
        # a float ** out of range is a domain error, not a traceback
        ("eval Sq --q 1e300 --n 8", 2),
        ("eval Sq --q 1e300 --n 8 --route pow2", 2),
        ("eval Gq --q 1e300 --n 8", 2),
        # ... and a p q^k that underflows to 0 divides nothing
        ("eval Gq --q 1e-170 --n 5", 2),
        ("eval Gq --q 1e-170i --n 5", 2),
        ("verify theorem1 --q 1e300", 2),
        ("verify recursions --q 1e300", 2),
        ("verify dyadic --q 1e200", 2),
        # a float result that overflowed to inf or nan is refused, not printed
        ("curve fluctuation --q 1e35", 2),
        ("odometer search --q 1e100", 2),
        ("eval sq --q 1e300 --n 1023", 2),
        ("eval sq --q 1e300+1i --n 1023", 2),
        # S_q(n) overflows from n = 2049 on, where the residual turns nan
        ("verify corollary --q 1e26 --n-max 3000", 2),
        # an empty sweep range checks nothing, so it cannot pass
        ("verify theorem1 --n-max 0", 2),
        ("verify dyadic --q 0.3 --n-max 0", 2),
        ("verify prop2 --N 1", 2),
        ("verify prop2 --N -3", 2),
        # the Larcher bounds scale with |gamma|, as its float rounding does
        ("verify larcher --gamma-limit 1e5", 0),
        ("verify larcher --gamma-limit 1e20", 0),
        ("verify larcher --gamma-limit=-1e20", 0),
        ("eval Sq --q 2/3 --n 8", 0),
        ("eval takagi --a 1/2 --x 0.3", 0),
        # an exact q beyond the float range where a float is needed
        (f"verify corollary --q {BIG}", 2),
        (f"eval tildeF --q {BIG} --u 0.5", 2),
        (f"eval tildeF --q=-{BIG} --u 0.5", 2),
        (f"curve tildeF --q {BIG} --grid 1", 2),
        # an exact value past Python's int-to-str digit limit: at q = 1/BIG the
        # deviation at n = 1024 and S_q(2048) have over 4300 digits
        (f"odometer birkhoff --q 1/{BIG}", 2),
        (f"eval Sq --q 1/{BIG} --n 2048", 2),
    ],
)
def test_cli_fails_cleanly(capsys, argv, code):
    got, _, err = run(capsys, *argv.split())
    assert got == code
    assert "Traceback" not in err
    if got == 1 and "usage:" not in err:
        assert err.count("\n") == 1 and err.startswith("tdq: parse error:")
    if got == 2:
        assert err.count("\n") == 1 and err.startswith("tdq: domain error:")


@pytest.mark.parametrize(
    "argv, err",
    [
        # n = 1 overflows in the head q/2 (1 - q)/(1 - q), no power on the way
        ("verify dyadic --q 1e200", "a float overflowed: the result is inf, not a finite number"),
        # n = 2 takes q^2 first
        ("verify theorem1 --q 1e300", "1e+300 ** 2 overflows a float"),
        # a zero normalizer names its case: auto-prop2 at l = 1024 takes
        # R = (2q)^9, exactly 0 at q = 0 and underflowed at a tiny float q
        ("odometer fluctuation --q 0", "normalizer R = (2q)^9 is 0"),
        ("odometer fluctuation --q 1e-300", "normalizer R = (2q)^9 underflows to 0"),
        ("odometer fluctuation --q 2/3 --R 0", "normalizer R must be non-zero (given, or underflowed to 0)"),
    ],
)
def test_cli_overflow_messages(capsys, argv, err):
    assert run(capsys, *argv.split()) == (2, "", f"tdq: domain error: {err}\n")


@pytest.mark.parametrize("argv", ["curve fluctuation --q 1/2 --l 64 --grid 1", "odometer fluctuation --q 1/2 --l 64"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_fluctuation_domain_error_writes_nothing(tmp_path, capsys, argv, to_file):
    # the sup distance to -q*T_a needs |q| > 1/2; it is computed before any
    # output, so the exit-2 run leaves no table on stdout and no --out file
    f = tmp_path / "fl.csv"
    code, out, err = run(capsys, *argv.split(), *(("--out", str(f)) if to_file else ()))
    assert code == 2
    assert out == ""
    assert not f.exists()
    assert err == "tdq: domain error: limiting curve requires |q| > 1/2\n"


@pytest.mark.parametrize("q", [None, "5/7"])
def test_verify_corollary_at_defaults(capsys, q):
    # the Takagi factor is summed at the exact dyadic n/2^{k+1}; a float-rounded
    # abscissa put the residual at 7.5e-8 (q = 2/3) and 2.9e-9 (q = 5/7)
    code, out, _ = run(capsys, "verify", "corollary", *(("--q", q) if q else ()))
    assert code == 0 and out.rstrip().endswith("PASS")
    worst = float(out.split("max residual ")[1].split(",")[0])
    assert worst <= 1e-12


# -- fuzz ----------------------------------------------------------------------

FUZZ_QS = ("2/3", "-3", "1/2", "1", "0", "-1/2", "i", "0.7", "1e308", "1e-170", "0.5+0.5i")
# abscissae of eval takagi: rationals with a pre-period and a cycle, a float, a dyadic
FUZZ_XS = ("1/3", "1/7", "5/12", "-1/3", "7/3", "0.3", "1/2")
# --u, --t, --tol and --gamma-limit values: in and out of range, tiny and huge
FUZZ_US = ("0", "1", "0.5", "-2.5", "1e300", "1e-320")
FUZZ_TOLS = ("1e-14", "1e-3", "0", "-1")
FUZZ_GAMMAS = ("1", "0", "-3", "2.5", "1e300", "1e-300")
FUZZ_OMEGAS = st.one_of(st.sampled_from(("", "2", "0b1", "random")), st.text("01", min_size=1, max_size=80))
# the normaliser and mode options of the fluctuation curves
FUZZ_CURVE_OPTIONS = st.builds(
    lambda R, mode: f" --R={R}" + (f" --mode {mode}" if mode else ""),
    st.sampled_from(("max-abs", "auto-prop2", "0", "0.0", "1e-320", "2/3", "i", "abc")),
    st.sampled_from(("exact", "float", "complex", None)),
)
# --candidates of odometer search: unset, or a short list, good or not; a
# large window runs long, since stabilizer_search has no work budget
FUZZ_CANDIDATES = st.sampled_from(
    ("", *(f" --candidates={c}" for c in ("16,32", "x", "1e3", "16,,", "", "0", "-4")))
)
FUZZ_COMMANDS = st.one_of(
    st.builds(lambda q, N: f"verify prop2 --q={q} --N {N}", st.sampled_from(FUZZ_QS), st.integers(1, 10)),
    st.builds(
        lambda q, l, m, opts: f"odometer search --q={q} --l {l} --grid {m}{opts}",
        st.sampled_from(FUZZ_QS), st.integers(0, 300), st.integers(0, 8), FUZZ_CANDIDATES,
    ),
    st.builds(
        lambda cmd, q, l, m, opts: f"{cmd} fluctuation --q={q} --l {l} --grid {m}{opts}",
        st.sampled_from(("curve", "odometer")), st.sampled_from(FUZZ_QS), st.integers(0, 300), st.integers(0, 8),
        FUZZ_CURVE_OPTIONS,
    ),
    st.builds(lambda a, m: f"curve takagi --a={a} --grid {m}", st.sampled_from(FUZZ_QS), st.integers(0, 8)),
    st.builds(
        lambda a, x: f"eval takagi --a={a} --x={x}",
        st.sampled_from((*FUZZ_QS, "0.99999999")), st.sampled_from(FUZZ_XS),
    ),
    st.builds(lambda q, m: f"curve F --q={q} --grid {m}", st.sampled_from(FUZZ_QS), st.integers(0, 8)),
    st.builds(
        lambda t, q, n: f"verify {t} --q={q} --n-max {n}",
        st.sampled_from(("theorem1", "dyadic", "recursions")), st.sampled_from(FUZZ_QS),
        st.integers(-1, 300),
    ),
    st.builds(
        lambda r, q, n: f"eval Sq --route {r} --q={q} --n {n}",
        st.sampled_from(("direct", "recursive", "pow2")), st.sampled_from(FUZZ_QS), st.integers(-1, 300),
    ),
    st.builds(
        lambda t, q, u, tol: f"eval {t} --q={q} --u={u} --tol={tol}",
        st.sampled_from(("hatF", "tildeF")), st.sampled_from(FUZZ_QS), st.sampled_from(FUZZ_US),
        st.sampled_from(FUZZ_TOLS),
    ),
    st.builds(lambda t, tol: f"eval tildeF1 --t={t} --tol={tol}", st.sampled_from(FUZZ_US), st.sampled_from(FUZZ_TOLS)),
    st.builds(
        lambda t, q, n: f"eval {t} --q={q} --n {n}",
        st.sampled_from(("sq", "Gq")), st.sampled_from(FUZZ_QS), st.integers(-1, 300),
    ),
    st.builds(lambda n: f"eval vdc --n {n}", st.integers(-1, 300)),
    st.builds(lambda q, n: f"verify corollary --q={q} --n-max {n}", st.sampled_from(FUZZ_QS), st.integers(-1, 300)),
    st.builds(lambda g: f"verify larcher --gamma-limit={g}", st.sampled_from(FUZZ_GAMMAS)),
    st.builds(
        lambda t, q, m, tol: f"curve {t} --q={q} --grid {m} --tol={tol}",
        st.sampled_from(("tildeF", "complex-takagi")), st.sampled_from(FUZZ_QS), st.integers(0, 8),
        st.sampled_from(FUZZ_TOLS),
    ),
    st.builds(
        lambda g, m, tol: f"curve Gtilde --gamma-limit={g} --grid {m} --tol={tol}",
        st.sampled_from(FUZZ_GAMMAS), st.integers(0, 8), st.sampled_from(FUZZ_TOLS),
    ),
    st.builds(lambda m: f"figures --grid {m} --out {{out}}", st.integers(-1, 5)),
    st.builds(lambda w, s: f"odometer run --omega={w} --steps {s}", FUZZ_OMEGAS, st.integers(-2, 64)),
    st.builds(
        lambda q, w, n: f"odometer birkhoff --q={q} --omega={w} --n {n}",
        st.sampled_from(FUZZ_QS), FUZZ_OMEGAS, st.integers(-2, 64),
    ),
)


@settings(deadline=None, max_examples=160)
@given(argv=FUZZ_COMMANDS)
# p q^k underflowed to 0 and G_q divided by it
@example(argv="eval Gq --q=1e-170 --n 5")
@example(argv="eval Gq --q=1e-170i --n 5")
def test_cli_fuzz_exits_cleanly(tmp_path_factory, argv):
    # in process: an uncaught exception fails the test with its traceback;
    # figures writes into a fresh directory
    out = tmp_path_factory.mktemp("fuzz")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv.format(out=out).split())
    assert 0 <= code <= 4
    assert "Traceback" not in err.getvalue()
