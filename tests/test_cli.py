import numpy as np
import pytest

from eudoxus import cli, cone_space, derivation_algebra, ratio_calculus
from eudoxus.cone_space import ConeSpace
from references import ngon_cone


def _write_spec(tmp_path, text, name="cone.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_cone_spec_kinds():
    assert cli.parse_cone_spec("kind = orthant\ndim = 4\n").dim == 4
    assert cli.parse_cone_spec("kind = psd_real\nk = 2\n").dim == 3
    sp = cli.parse_cone_spec(
        "kind = polyhedral\ndim = 2\ngen = 1,0\ngen = 1,1\n")
    assert sp.kind == "polyhedral"
    assert sp.generators.shape == (2, 2)


def test_parse_cone_spec_comments_and_blank_lines():
    sp = cli.parse_cone_spec("# a comment\n\nkind = lorentz  # trailing\ndim = 3\n")
    assert sp.kind == "lorentz"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(cli.SpecError) as exc:
        cli.parse_cone_spec("kind = orthant\nnonsense\n")
    assert exc.value.line_no == 2
    with pytest.raises(cli.SpecError) as exc:
        cli.parse_cone_spec("kind = orthant\ndim = x\n")
    assert exc.value.line_no == 2
    with pytest.raises(cli.SpecError) as exc:
        cli.parse_cone_spec("kind = wedge\n")
    assert exc.value.line_no == 1
    with pytest.raises(cli.SpecError):
        cli.parse_cone_spec("dim = 3\n")


def _spec_text(sp):
    """The spec text of a cone: its kind and size key, and one gen line
    per generator of a polyhedral cone."""
    if sp.kind != "polyhedral":
        return "kind = %s\n%s = %d\n" % (sp.kind, cli.SIZE_KEYS[sp.kind], sp.param)
    return "kind = polyhedral\ndim = %d\n" % sp.dim + "".join(
        "gen = %s\n" % ",".join(repr(float(v)) for v in g) for g in sp.generators.T)


def test_emit_parse_roundtrip():
    for sp in (ConeSpace.orthant(3), ConeSpace.lorentz(4), ConeSpace.psd_real(2),
               ConeSpace.hermitian(2),
               ConeSpace.polyhedral([np.array([1.0, 0.0]), np.array([1.0, 1.0])])):
        text = _spec_text(sp)
        back = cli.parse_cone_spec(text)
        assert back.kind == sp.kind
        assert back.dim == sp.dim
        assert _spec_text(back) == text


def test_analyze_command(tmp_path, capsys):
    spec = _write_spec(tmp_path, "kind = lorentz\ndim = 3\n")
    assert cli.main(["analyze", spec]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# seed = 0")
    check_lines = [l for l in out.splitlines() if l.startswith("CHECK")]
    names = [l.split()[1] for l in check_lines]
    assert names == sorted(names)
    assert "CHECK self_dual PASS" in out
    assert any("NotOrientable" in l for l in check_lines)


@pytest.mark.parametrize("sp, homogeneity", [
    (ConeSpace.orthant(4), "PASS every rank by transitivity"),
    (ConeSpace.lorentz(5), "PASS every rank by transitivity"),
    (ConeSpace.psd_real(3), "PASS every rank by transitivity"),
    (ConeSpace.hermitian(2), "PASS every rank by transitivity"),
    (ngon_cone(5), "FAIL face of dim 1"),
], ids=["orthant", "lorentz", "psd_real", "hermitian", "5-gon"])
def test_analyze_does_not_read_the_seed(tmp_path, capsys, sp, homogeneity):
    path = _write_spec(tmp_path, _spec_text(sp))
    _, body = _same_output_under_two_seeds(capsys, ["analyze", path])
    assert "CHECK facially_homogeneous %s\n" % homogeneity in body


def _same_output_under_two_seeds(capsys, argv):
    """Run argv under seeds 0 and 7: the outputs may differ only in the
    `# seed = ...` header.  Returns the exit code and the shared body."""
    runs = []
    for seed in (0, 7):
        code = cli.main(["--seed", str(seed)] + argv)
        head, body = capsys.readouterr().out.split("\n", 1)
        assert head == "# seed = %d" % seed
        runs.append((code, body))
    assert runs[0] == runs[1]
    return runs[0]


def test_missing_file_is_usage_error():
    assert cli.main(["analyze", "/nonexistent/cone.txt"]) == 2


def test_bad_spec_is_usage_error(tmp_path):
    spec = _write_spec(tmp_path, "kind = orthant\n?\n")
    assert cli.main(["analyze", spec]) == 2


@pytest.mark.parametrize("kind,key", [("orthant", "dim"), ("lorentz", "dim"),
                                      ("psd_real", "k"), ("hermitian", "k")])
def test_missing_size_is_usage_error(tmp_path, capsys, kind, key):
    with pytest.raises(cli.SpecError, match="missing %s" % key) as exc:
        cli.parse_cone_spec("kind = %s\n" % kind)
    assert exc.value.line_no == 0
    assert cli.main(["analyze", _write_spec(tmp_path, "kind = %s\n" % kind)]) == 2
    assert "error: line 0: missing %s" % key in capsys.readouterr().err


def test_polyhedral_without_generators_is_usage_error(tmp_path, capsys):
    assert cli.main(["analyze", _write_spec(tmp_path, "kind = polyhedral\ndim = 2\n")]) == 2
    assert "error: line 0: polyhedral cone needs gen lines\n" in capsys.readouterr().err


@pytest.mark.parametrize("text,line_no,message", [
    ("kind = psd_real\ndim = 3\n", 2, "psd_real takes k, not dim"),
    ("kind = hermitian\ndim = 4\n", 2, "hermitian takes k, not dim"),
    ("k = 3\nkind = orthant\n", 1, "orthant takes dim, not k"),
    ("kind = lorentz\nk = 3\n", 2, "lorentz takes dim, not k"),
    ("kind = polyhedral\nk = 2\ngen = 1,0\ngen = 0,1\n", 2, "polyhedral takes dim, not k"),
    ("kind = polyhedral\ndim = 5\ngen = 1,0\ngen = 0,1\n", 2,
     "dim = 5 but the generators have 2 entries"),
    ("kind = polyhedral\ngen = 1,0\ngen = 0,1\ndim = 3\n", 4,
     "dim = 3 but the generators have 2 entries"),
    ("kind = polyhedral\ndim = 2\ngen = 1,0\ngen = 0,1,2\ngen = 1,1\n", 4,
     "generator has 3 entries, the first has 2"),
    ("kind = polyhedral\ngen = 1,0,0\ngen = 0,1,0\n\ngen = 0,1\n", 5,
     "generator has 2 entries, the first has 3"),
    ("kind = orthant\ndim = 2\ngen = 1,0\n", 3, "orthant takes no gen lines"),
])
def test_strict_spec_errors_name_their_line(tmp_path, capsys, text, line_no, message):
    with pytest.raises(cli.SpecError) as exc:
        cli.parse_cone_spec(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == "line %d: %s" % (line_no, message)
    assert cli.main(["analyze", _write_spec(tmp_path, text)]) == 2
    assert "error: line %d: %s\n" % (line_no, message) in capsys.readouterr().err


def test_polyhedral_dim_is_optional():
    sp = cli.parse_cone_spec("kind = polyhedral\ngen = 1,0\ngen = 1,1\n")
    assert sp.dim == 2


def test_non_finite_antecedent_is_usage_error(tmp_path, capsys):
    spec = _write_spec(tmp_path, "kind = orthant\ndim = 2\n")
    assert cli.main(["ratio", "make", spec, "--antecedent", "nan,1", "--consequent", "1,1"]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv,shape", [
    (["make", "--antecedent", "1,1,1", "--consequent", "1,1"], "(3,)"),
    (["make", "--antecedent", "1,1", "--consequent", "1,1,1"], "(3,)"),
    (["eq", "--antecedent", "1,2", "--consequent", "1,1",
      "--antecedent2", "1", "--consequent2", "1,1"], "(1,)"),
], ids=["antecedent", "consequent", "antecedent2"])
def test_wrong_length_pair_is_usage_error_with_the_cones_message(tmp_path, capsys, argv, shape):
    spec = _write_spec(tmp_path, "kind = orthant\ndim = 2\n")
    assert cli.main(["ratio", argv[0], spec] + argv[1:]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: dimension mismatch: expected 2, got %s\n" % shape


def test_bad_arguments_are_usage_error():
    assert cli.main(["frobnicate"]) == 2


def test_ratio_make_command(tmp_path, capsys):
    spec = _write_spec(tmp_path, "kind = orthant\ndim = 2\n")
    code = cli.main(["ratio", "make", spec,
                     "--antecedent", "2,6", "--consequent", "1,2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "CHECK ratio_make PASS" in out
    assert "lambdas" in out


def test_ratio_make_huge_multiplier(tmp_path, capsys):
    # a run of 10^12 equal mediant steps: bracketed by exponential search
    spec = _write_spec(tmp_path, "kind = orthant\ndim = 2\n")
    code = cli.main(["ratio", "make", spec,
                     "--antecedent", "1e12,3", "--consequent", "1,1"])
    assert code == 0
    assert "CHECK ratio_make PASS" in capsys.readouterr().out


def test_ratio_eq_command(tmp_path, capsys):
    spec = _write_spec(tmp_path, "kind = orthant\ndim = 2\n")
    code = cli.main(["ratio", "eq", spec,
                     "--antecedent", "2,6", "--consequent", "1,2",
                     "--antecedent2", "4,12", "--consequent2", "2,4"])
    assert code == 0
    assert "CHECK ratio_eq PASS equal" in capsys.readouterr().out


@pytest.mark.parametrize("action", ["eq", "compose", "add"])
@pytest.mark.parametrize("pair", [[], ["--antecedent2", "1,2"], ["--consequent2", "1,1"]],
                         ids=["neither", "antecedent2", "consequent2"])
def test_ratio_actions_on_two_ratios_need_the_second_pair(tmp_path, capsys, action, pair):
    spec = _write_spec(tmp_path, "kind = orthant\ndim = 2\n")
    argv = ["ratio", action, spec, "--antecedent", "2,6", "--consequent", "1,2"] + pair
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: ratio %s needs --antecedent2 and --consequent2\n" % action


@pytest.mark.parametrize("action", ["eq", "compose", "add"])
@pytest.mark.parametrize("incomparable_first", [True, False], ids=["first", "second"])
def test_an_incomparable_pair_fails_the_check_in_either_place(tmp_path, capsys, action,
                                                              incomparable_first):
    spec = _write_spec(tmp_path, _spec_text(ngon_cone(5)))
    incomparable, comparable = ("1,0.2,0.1", "3,0,0"), ("2,0,0", "1,0,0")
    first, second = ((incomparable, comparable) if incomparable_first
                     else (comparable, incomparable))
    argv = ["ratio", action, spec, "--antecedent", first[0], "--consequent", first[1],
            "--antecedent2", second[0], "--consequent2", second[1]]
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert [l for l in out.out.splitlines() if l.startswith("CHECK")] == [
        "CHECK ratio_%s FAIL antecedent is not face-diagonal over the consequent" % action]


LORENTZ3 = "kind = lorentz\ndim = 3\n"
SQUARE = "kind = polyhedral\ngen = 3,1\ngen = -1,3\n"


@pytest.mark.parametrize("spec, argv, code, lines", [
    # eigenvalues 1e-9 and 2e-9: an absolute band merged them into 1.5e-9
    ("kind = orthant\ndim = 2\n",
     ["ratio", "make", "--antecedent", "1e-9,2e-9", "--consequent", "1,1"], 0,
     ["lambdas: ['1e-09', '2e-09']", "CHECK ratio_make PASS 2 components"]),
    # the faces of a polyhedral derivation at 1e9: an absolute eigenvector
    # test found neither ray
    (SQUARE, ["derivation", "spectrum", "--matrix", "1.1e9,-3e8;-3e8,1.9e9"], 0,
     ["lambda 1e+09: face dim 1", "lambda 2e+09: face dim 1",
      "CHECK derivation_spectrum PASS 2 spectral faces"]),
    (SQUARE, ["ratio", "make", "--antecedent", "1.1e9,2.3e9", "--consequent", "1,1"], 0,
     ["lambdas: ['1.4e+09', '2.9e+09']", "CHECK ratio_make PASS 2 components"]),
    # runs 1 - 1.5e-8, 1 and 1 + 1.5e-8: a window of 2e-8 around each mean
    # gave both frame elements to the middle run too
    (LORENTZ3, ["ratio", "make", "--antecedent", "1,1.5e-8,0", "--consequent", "1,0,0"], 0,
     ["CHECK ratio_make PASS 2 components"]),
    (LORENTZ3, ["ratio", "make", "--antecedent", "1,2e-8,0", "--consequent", "1,0,0"], 0,
     ["CHECK ratio_make PASS 2 components"]),
    # spectral values 1 -+ 8e-9, 1.6e-8 apart: the operator's Peirce mean 1
    # chained them into one run, lambdas ['1', '1']
    (LORENTZ3, ["ratio", "make", "--antecedent", "1,8e-9,0", "--consequent", "1,0,0"], 0,
     ["lambdas: ['0.999999992', '1.00000001']", "CHECK ratio_make PASS 2 components"]),
    # 2 L(diag(0, 1)): its operator eigenvalue 1, the Peirce mean, is no
    # spectral value and names no face
    ("kind = psd_real\nk = 2\n", ["derivation", "spectrum", "--matrix", "0,0,0;0,1,0;0,0,2"], 0,
     ["lambda 0: face dim 1", "lambda 2: face dim 1",
      "CHECK derivation_spectrum PASS 2 spectral faces"]),
    # 1 and 1.005 beside 1e6: a band of 1e-8 max|v| merged them into 1.0025
    ("kind = orthant\ndim = 3\n",
     ["ratio", "make", "--antecedent", "1,1.005,1e6", "--consequent", "1,1,1"], 0,
     ["lambdas: ['1', '1.005', '1000000']", "CHECK ratio_make PASS 3 components"]),
    # a product 1.6e-9 off symmetric: compose passed it on at 1e-8, and
    # spectral_faces rejected it at 1e-9
    (LORENTZ3, ["ratio", "compose", "--antecedent", "1,5e-8,0", "--consequent", "1,0,0",
                "--antecedent2", "25,0,1", "--consequent2", "1,0,0"], 0,
     ["CHECK ratio_compose PASS JB-only symmetrized product (factors do not commute)"]),
    # a rotation whose squared entries overflow is not self-adjoint
    (LORENTZ3, ["derivation", "spectrum", "--matrix", "0,0,0;0,0,1e155;0,-1e155,0"], 2, []),
], ids=["small", "polyhedral-spectrum", "polyhedral-ratio", "close-1.5e-8", "close-2e-8",
        "close-1.6e-8", "psd-peirce-mean", "wide", "compose", "rotation-1e155"])
def test_spectral_decisions_hold_at_every_scale(tmp_path, capsys, spec, argv, code, lines):
    path = _write_spec(tmp_path, spec)
    assert cli.main(argv[:2] + [path] + argv[2:]) == code
    out = capsys.readouterr()
    assert set(lines) <= set(out.out.splitlines())
    if code == 2:
        assert out.out == ""
        assert out.err == "error: spectral faces need a self-adjoint derivation\n"


@pytest.mark.parametrize("argv, code, out, err", [
    (["ratio", "make", "--antecedent", "1e200,5e199,0", "--consequent", "1,0,0"], 0,
     ["lambdas: ['5e+199', '1.5e+200']", "CHECK ratio_make PASS 2 components"], ""),
    (["derivation", "spectrum", "--matrix", "1e200,5e199,0;5e199,1e200,0;0,0,1e200"], 0,
     ["lambda 5e+199: face dim 1", "lambda 1.5e+200: face dim 1",
      "CHECK derivation_spectrum PASS 2 spectral faces"], ""),
    (["derivation", "spectrum", "--matrix", "1e308,1e308,0;1e308,1e308,0;0,0,1e308"], 2, [],
     "error: spectral values are not finite: [0.0, inf]\n"),
], ids=["ratio-1e200", "spectrum-1e200", "spectrum-2e308"])
def test_lorentz_past_the_square_range_answers_or_is_a_usage_error(tmp_path, capsys, argv,
                                                                   code, out, err):
    # |z|^2 overflows: these printed lambda nan with a PASS
    path = _write_spec(tmp_path, LORENTZ3)
    assert cli.main(argv[:2] + [path] + argv[2:]) == code
    got = capsys.readouterr()
    assert got.err == err
    assert set(out) <= set(got.out.splitlines())
    assert "nan" not in got.out


@pytest.mark.parametrize("action", ["compose", "add"])
def test_ratio_compose_and_add_compute_no_bracket(tmp_path, capsys, monkeypatch, action):
    calls = []
    bracket = ratio_calculus.stern_brocot_bracket
    monkeypatch.setattr(ratio_calculus, "stern_brocot_bracket",
                        lambda *args: calls.append(args) or bracket(*args))
    spec = _write_spec(tmp_path, "kind = orthant\ndim = 3\n")
    assert cli.main(["ratio", action, spec, "--antecedent", "2,6,1", "--consequent", "1,2,1",
                     "--antecedent2", "3,3,5", "--consequent2", "1,1,1"]) == 0
    assert "CHECK ratio_%s PASS 3 components" % action in capsys.readouterr().out
    assert calls == []


@pytest.mark.parametrize("spec, matrix, faces", [
    # 2 L(diag(0, 1)): the Peirce mean 1 is no spectral value
    ("kind = psd_real\nk = 2\n", "0,0,0;0,1,0;0,0,2", ["lambda 0: face dim 1",
                                                       "lambda 2: face dim 1"]),
    (SQUARE, "1.1e9,-3e8;-3e8,1.9e9", ["lambda 1e+09: face dim 1", "lambda 2e+09: face dim 1"]),
], ids=["psd-peirce-mean", "polyhedral"])
def test_derivation_spectrum_builds_and_checks_one_stack_when_it_prints(tmp_path, capsys,
                                                                       monkeypatch, spec,
                                                                       matrix, faces):
    # the family's projectors are built when the faces are printed: one
    # stack (U_c, or the spans of the rays) checked once, then each Face
    # checks its own projector
    calls = []
    for cls, name in ((cone_space._JordanSpace, "_U"),
                      (cone_space._Polyhedral, "_generator_faces")):
        build = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *args, build=build: calls.append("build")
                            or build(*args))
    check = cone_space._check_projectors
    for module in (cone_space, derivation_algebra):
        monkeypatch.setattr(module, "_check_projectors", lambda P: calls.append("check")
                            or check(P))
    path = _write_spec(tmp_path, spec)
    assert cli.main(["derivation", "spectrum", path, "--matrix", matrix]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines() == ["# seed = 0"] + faces + [
        "CHECK derivation_spectrum PASS 2 spectral faces"]
    assert calls == ["build", "check", "check", "check"]


def test_ratio_make_brackets_a_positive_multiplier_of_1e_9(tmp_path, capsys):
    # 1e-9 is positive at the ratio's scale (above TOL times its largest
    # multiplier, 2e-9): the absolute TOL gave it no bracket
    spec = _write_spec(tmp_path, "kind = orthant\ndim = 2\n")
    assert cli.main(["ratio", "make", spec, "--antecedent", "1e-9,2e-9",
                     "--consequent", "1,1"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines() == [
        "# seed = 0", "lambdas: ['1e-09', '2e-09']",
        "brackets: [(Fraction(0, 1), Fraction(1, 1000000)), "
        "(Fraction(0, 1), Fraction(1, 1000000))]",
        "CHECK ratio_make PASS 2 components"]


def test_derivation_spectrum_command(tmp_path, capsys):
    spec = _write_spec(tmp_path, "kind = orthant\ndim = 2\n")
    code = cli.main(["derivation", "spectrum", spec, "--matrix", "1,0;0,2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "CHECK derivation_spectrum PASS 2 spectral faces" in out


def test_derivation_roundtrip_command(tmp_path, capsys):
    spec = _write_spec(tmp_path, "kind = lorentz\ndim = 3\n")
    code = cli.main(["derivation", "roundtrip", spec, "--samples", "25"])
    assert code == 0
    assert "CHECK derivation_roundtrip PASS" in capsys.readouterr().out


@pytest.mark.parametrize("matrix, message", [
    ("1,2;2,1", "operator is not a derivation"),
    ("1,0;0,nan", "operator has non-finite entries"),
    ("1,0,0;0,1,0;0,0,1", "operator shape does not match the space"),
    ("1,2;3", "matrix rows differ in length: 2, 1"),
    ("0,1e150;0,0", "operator is not a derivation"),
    ("0,1e155;0,0", "operator is not a derivation"),
])
def test_derivation_spectrum_checks_its_matrix(tmp_path, capsys, matrix, message):
    # not a derivation of the orthant, not finite, not 2 x 2, ragged; the
    # last not a derivation at any scale, though its entry's square overflows
    spec = _write_spec(tmp_path, "kind = orthant\ndim = 2\n")
    assert cli.main(["derivation", "spectrum", spec, "--matrix", matrix]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: " + message)


KNOBS = "need --samples >= 1 and a finite --tol > 0"


@pytest.mark.parametrize("argv, message", [
    (["derivation", "roundtrip", "SPEC", "--samples", "-5"], KNOBS),
    (["derivation", "roundtrip", "SPEC", "--samples", "0"], KNOBS),
    (["derivation", "roundtrip", "SPEC", "--tol", "nan"], KNOBS),
    (["derivation", "roundtrip", "SPEC", "--tol", "inf"], KNOBS),
    (["derivation", "roundtrip", "SPEC", "--tol", "0"], KNOBS),
    (["derivation", "roundtrip", "SPEC", "--tol", "-0.5"], KNOBS),
    (["derivation", "spectrum", "SPEC"], "derivation spectrum needs --matrix"),
    # the flags live on the commands that read them
    (["--tol", "5", "analyze", "SPEC"], "invalid choice"),
    (["--samples", "25", "derivation", "roundtrip", "SPEC"], "invalid choice"),
    (["--max-den", "64", "analyze", "SPEC"], "invalid choice"),
    (["analyze", "SPEC", "--max-den", "64"], "unrecognized arguments"),
])
def test_derivation_knobs_are_checked_where_they_are_read(tmp_path, capsys, argv, message):
    spec = _write_spec(tmp_path, "kind = lorentz\ndim = 3\n")
    assert cli.main([spec if a == "SPEC" else a for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_demo_quadrature_command(capsys):
    assert cli.main(["demo", "quadrature"]) == 0
    out = capsys.readouterr().out
    assert "CHECK demo_quadrature PASS" in out
    assert "width 1/1024" in out


def test_demo_conjunct_command(capsys):
    assert cli.main(["demo", "conjunct", "--density", "2", "--volume", "3"]) == 0
    assert "6 [matter]" in capsys.readouterr().out


def test_demo_krein_command(capsys):
    assert cli.main(["demo", "krein", "--n", "4"]) == 0
    assert "CHECK demo_krein PASS 4 pure states" in capsys.readouterr().out


def test_demo_krein_does_not_read_the_seed(capsys):
    code, body = _same_output_under_two_seeds(capsys, ["demo", "krein", "--n", "4"])
    assert code == 0
    assert body.endswith("CHECK demo_krein PASS 4 pure states\n")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert cli.main(["--out", str(target), "demo", "quadrature"]) == 0
    assert capsys.readouterr().out == ""
    assert "CHECK demo_quadrature PASS" in target.read_text()


def test_report_rejects_duplicate_checks():
    report = cli.Report(seed=0)
    report.check("x", "PASS")
    with pytest.raises(AssertionError):
        report.check("x", "FAIL")


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the shared parser gives what a fresh one gives: no state leaks
    # between parses, whatever the order of calls and flags
    spec = _write_spec(tmp_path, "kind = lorentz\ndim = 3\n")
    calls = [
        ["ratio", "make", spec],  # missing --antecedent and --consequent
        ["--seed", "3", "analyze", spec],
        ["ratio", "make", spec, "--max-den", "64", "--antecedent", "2,1,0",
         "--consequent", "3,1,0"],
        ["analyze", spec],
        ["--bogus", "analyze", spec],
    ]

    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    cli.build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 2]
    assert shared[1][1].startswith("# seed = 3") and shared[3][1].startswith("# seed = 0")
    assert "the following arguments are required" in shared[0][2]


@pytest.mark.parametrize("gens", [
    ["1,0", "-1,0", "0,1"],                 # a line through two generators
    ["1,0,0", "-1,0,0", "0,1,0", "0,0,1"],  # a line inside the facet y = 0
    ["1,0,0", "0,1,0", "-1,-1,0", "0,0,1"],  # a plane, and no generator pair opposite
], ids=["half_plane", "line_in_facet", "half_space"])
def test_cone_with_a_line_is_usage_error(tmp_path, capsys, gens):
    text = "kind = polyhedral\n" + "".join("gen = %s\n" % g for g in gens)
    with pytest.raises(cli.SpecError) as exc:
        cli.parse_cone_spec(text)
    assert str(exc.value) == "line 0: cone contains a line"
    assert cli.main(["analyze", _write_spec(tmp_path, text)]) == 2
    assert "error: line 0: cone contains a line\n" in capsys.readouterr().err
