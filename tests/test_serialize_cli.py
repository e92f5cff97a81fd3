import json
import random

import pytest

from flbreuil import campaign as CAM
from flbreuil import functors as FU
from flbreuil.ambient import AmbientParams
from flbreuil.breuil import BreuilModule, _rebase
from flbreuil import serialize as SER
from flbreuil.cli import _build_parser, main
from flbreuil.errors import (
    MalformedJumps,
    NotInvertible,
    NotStrong,
    PrecisionMismatch,
    SchemaMismatch,
)
from flbreuil.fl import FLModule, _random_fl
from flbreuil.functors import fl_to_breuil, section_compute
from flbreuil.kisin import KisinModule, kisin_to_breuil, random_gls
from test_functors import OUTSIDE, outside_the_category
from flbreuil.matrix import RingMatrix
from flbreuil.pd import _pd_from_scalar, _pd_zero


def test_fl_round_trip(amb3):
    M = _random_fl(amb3, random.Random(0), 2)
    doc = SER.to_json(M)
    M2 = SER._from_json(json.loads(json.dumps(doc)))
    assert M2.jumps == M.jumps
    assert M2.Ftil.eq_at(M.Ftil, amb3.cap)
    assert SER.dumps(M2) == SER.dumps(M)


def test_kisin_round_trip(amb3):
    K = random_gls(amb3, random.Random(1), 2)
    K2 = SER.loads(SER.dumps(K))
    assert K2.A.eq_at(K.A, amb3.cap)
    assert K2.X.eq_at(K.X, amb3.cap) and K2.Y.eq_at(K.Y, amb3.cap)
    assert K2.jumps == K.jumps


def test_breuil_round_trip_preserves_missing_monodromy(amb3):
    from flbreuil.kisin import kisin_to_breuil

    B = kisin_to_breuil(random_gls(amb3, random.Random(2), 2))
    B2 = SER.loads(SER.dumps(B))
    assert B2.Nmat is None
    assert B2.Phi.eq_at(B.Phi, B.Phi.entries[0][0].prec)

    Bn = fl_to_breuil(_random_fl(amb3, random.Random(3), 2))
    Bn2 = SER.loads(SER.dumps(Bn))
    assert Bn2.Nmat is not None and Bn2.Nmat.is_zero_at(amb3.cap)


def test_unknown_fields_rejected(amb3):
    doc = SER.to_json(_random_fl(amb3, random.Random(4), 1))
    doc["data"]["extra"] = 1
    with pytest.raises(SchemaMismatch):
        SER._from_json(doc)


def test_to_json_refuses_an_object_that_is_not_a_module():
    with pytest.raises(SchemaMismatch, match="cannot serialize object"):
        SER.to_json(object())


def test_missing_field_rejected(amb3):
    doc = SER.to_json(_random_fl(amb3, random.Random(5), 1))
    del doc["data"]["jumps"]
    with pytest.raises(SchemaMismatch):
        SER._from_json(doc)


def test_schema_tag_required(amb3):
    doc = SER.to_json(_random_fl(amb3, random.Random(6), 1))
    doc["schema"] = "flbreuil/0"
    with pytest.raises(SchemaMismatch):
        SER._from_json(doc)


def test_p_two_rejected(amb3):
    doc = SER.to_json(_random_fl(amb3, random.Random(7), 1))
    doc["params"]["p"] = 2
    with pytest.raises(SchemaMismatch, match="p > 2"):
        SER._from_json(doc)


def test_precision_mismatch_rejected(amb3):
    doc = SER.to_json(_random_fl(amb3, random.Random(8), 1))
    doc["data"]["Ftil"]["entries"][0][0]["prec"] = amb3.cap + 5
    with pytest.raises(PrecisionMismatch):
        SER._from_json(doc)


def test_dumps_deterministic(amb3):
    M = _random_fl(amb3, random.Random(9), 2)
    assert SER.dumps(M) == SER.dumps(M)


def test_round_trip_with_residue_degree_two(amb9):
    M = _random_fl(amb9, random.Random(10), 2)
    M2 = SER.loads(SER.dumps(M))
    assert M2.amb.ring.m == amb9.ring.m
    # the reconstructed ring must carry the same Frobenius
    t = amb9.ring.make([0, 1])
    t2 = M2.amb.ring.make([0, 1])
    assert t.frobenius().coeffs == t2.frobenius().coeffs
    assert M2.Ftil.eq_at(
        SER._matrix_from_json(M2.amb, "witt", SER._matrix_to_json(M.Ftil)), amb9.cap
    )


# --- command line ---

def test_cli_gen_apply_section_roundtrip(tmp_path):
    m = tmp_path / "m.json"
    b = tmp_path / "b.json"
    s = tmp_path / "s.json"
    m2 = tmp_path / "m2.json"
    assert main(["gen", "fl", "--d", "2", "--jumps", "0,2", "--r", "2",
                 "--seed", "7", "--out", str(m)]) == 0
    assert main(["apply", "mls", "--in", str(m), "--out", str(b)]) == 0
    assert main(["section", "--in", str(b), "--out", str(s)]) == 0
    sec = json.loads(s.read_text())
    assert sec["data"]["iterations"] == 0 and sec["data"]["exact"]
    assert main(["apply", "mfl", "--in", str(b), "--out", str(m2)]) == 0
    a = SER.load(str(m))
    c = SER.load(str(m2))
    assert a.jumps == c.jumps
    assert a.Ftil.eq_at(c.Ftil, a.amb.N_p)


def test_cli_section_and_mfl_take_series_degrees_past_N_gamma(tmp_path):
    # X*U with U unipotent and the one entry u^25: at p = 3, r = 1, N_p = 6
    # the series ring keeps degrees below 60 and S indices below 20
    amb = AmbientParams(3, 1, N_p=6)
    K = random_gls(amb, random.Random(1), 3)
    one, zero = amb.useries([1]), amb.useries([])
    U = RingMatrix([[one, zero, amb.useries([0] * 25 + [1])], [zero, one, zero],
                    [zero, zero, one]])
    m, s, out = (tmp_path / name for name in ("k.json", "s.json", "m.json"))
    m.write_text(SER.dumps(KisinModule(amb, K.X @ U, K.jumps, K.Y)))
    assert amb.N_gamma == 20 and amb.N_u == 60
    assert main(["section", "--in", str(m), "--out", str(s)]) == 0
    assert main(["apply", "mfl", "--adjoin-zero-n", "--in", str(m), "--out", str(out)]) == 0
    sec = json.loads(s.read_text())
    Bmat = SER._matrix_from_json(SER._params_from_json(sec["params"]), "pd", sec["data"]["Bmat"])
    assert (Bmat.rows, Bmat.cols) == (3, 3)
    M = SER.load(str(out))
    assert isinstance(M, FLModule) and M.jumps == K.jumps


def test_cli_gen_deterministic(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    args = ["gen", "kisin-gls", "--d", "2", "--r", "2", "--seed", "3"]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_gen_negative_rank_names_the_rank(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["gen", "fl", "--d", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["error: rank must be at least 0, got -1"]


@pytest.mark.parametrize("kind", ["kisin-gls", "breuil-from-kisin"])
def test_cli_gen_kisin_negative_rank_names_the_rank(tmp_path, capsys, kind):
    # an empty range(-1) would build a rank-0 module; the rank is checked first
    out = tmp_path / "k.json"
    assert main(["gen", kind, "--d", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["error: rank must be at least 0, got -1"]


def test_zero_rank_det_and_negative_rank_gls_raise(amb3):
    with pytest.raises(MalformedJumps, match="rank must be at least 0, got -1"):
        random_gls(amb3, random.Random(0), -1)


def _section_bytes(path) -> str:
    """The section document of the module stored at ``path``, computed
    at full precision, as the CLI writes it."""
    B = SER.load(str(path))
    if isinstance(B, KisinModule):
        B = kisin_to_breuil(B)
    doc = SER._section_to_json(B.amb, section_compute(B))
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_cli_section_of_a_rebased_module_is_the_full_section(tmp_path):
    # p = 3, r = 1: this rebased FL image takes 2 steps against a rate
    # bound of 1, so the verb retries its cut run
    amb = AmbientParams(3, 1)
    rng = random.Random(2)
    B = fl_to_breuil(_random_fl(amb, rng, 2))
    Bt = _rebase(B, CAM._random_congruent_identity(amb, rng, 2))
    sec = section_compute(Bt)
    assert sec.iterations > sec.rate_bound
    b, s = tmp_path / "b.json", tmp_path / "s.json"
    b.write_text(SER.dumps(Bt))
    assert main(["section", "--in", str(b), "--out", str(s)]) == 0
    assert s.read_text() == _section_bytes(b)


def test_cli_section_at_p13_is_the_full_section(tmp_path):
    # N_p = 4 against a cap of 171 digits: the verb iterates on 37
    # (N_p + r (rate bound + 2), rate bound 1)
    k, s = tmp_path / "k.json", tmp_path / "s.json"
    assert main(["gen", "kisin-gls", "--p", "13", "--r", "11", "--Np", "4", "--d", "3",
                 "--seed", "1", "--out", str(k)]) == 0
    assert main(["section", "--in", str(k), "--out", str(s)]) == 0
    assert s.read_text() == _section_bytes(k)


def test_cli_section_exits_1_on_an_inexact_section(tmp_path, monkeypatch):
    # exit code 1 is a failed check: here the fixed-point certificate
    real = FU.section_compute
    monkeypatch.setattr(FU, "section_compute",
                        lambda *a, **kw: real(*a, **kw)._replace(exact=False))
    b, s = tmp_path / "b.json", tmp_path / "s.json"
    assert main(["gen", "breuil-from-fl", "--d", "2", "--jumps", "0,1", "--out", str(b)]) == 0
    assert main(["section", "--in", str(b), "--out", str(s)]) == 1
    assert json.loads(s.read_text())["data"]["exact"] is False


def test_cli_section_does_not_ask_for_strong_divisibility(tmp_path, capsys):
    # p Ftil: the image is not strongly divisible, but p^r A_0^(-1) is
    # integral, so the section and its certificate hold; apply mfl refuses
    amb = AmbientParams(3, 1)
    M = _random_fl(amb, random.Random(1), 2)
    B = fl_to_breuil(FLModule(amb, M.jumps, M.Ftil.mul_p_pow(1)))
    b, s, out = tmp_path / "b.json", tmp_path / "s.json", tmp_path / "m.json"
    b.write_text(SER.dumps(B))
    assert main(["section", "--in", str(b), "--out", str(s)]) == 0
    assert json.loads(s.read_text())["data"]["exact"] is True
    capsys.readouterr()
    assert main(["apply", "mfl", "--in", str(b), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["error: input is not strongly divisible"]
    # C = p I, singular mod p, and no monodromy: the generators p gamma_t e_i
    # have no unit phi_r image, and C is never inverted
    z, pe = _pd_zero(amb), _pd_from_scalar(amb, amb.w(amb.p))
    C = RingMatrix([[pe, z], [z, pe]])
    b.write_text(SER.dumps(BreuilModule(amb, fl_to_breuil(M).Phi, None, C, M.jumps)))
    assert main(["apply", "mfl", "--adjoin-zero-n", "--in", str(b), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["error: input is not strongly divisible"]


def test_cli_mfl_refuses_kisin_input_without_the_flag(tmp_path, capsys):
    # a Kisin-derived module carries no monodromy: apply mfl reads it only
    # with --adjoin-zero-n, and the refusal names that flag
    k, out = tmp_path / "k.json", tmp_path / "m.json"
    assert main(["gen", "kisin-gls", "--p", "5", "--d", "2", "--seed", "1", "--out", str(k)]) == 0
    capsys.readouterr()
    assert main(["apply", "mfl", "--in", str(k), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: no monodromy matrix")
    assert "--adjoin-zero-n" in err[0]


def test_cli_mfl_refuses_ftil_below_N_p(tmp_path, capsys):
    # at headroom 26 the reduction's Ftil is known to 5 digits, below N_p = 6
    k, out = tmp_path / "k.json", tmp_path / "m.json"
    assert main(["gen", "kisin-gls", "--p", "5", "--r", "3", "--headroom", "26", "--d", "6",
                 "--jumps", "0,0,0,3,3,3", "--seed", "1", "--out", str(k)]) == 0
    capsys.readouterr()
    assert main(["apply", "mfl", "--adjoin-zero-n", "--in", str(k), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "below N_p" in err[0]


def test_cli_mls_refuses_a_module_that_is_not_strong(tmp_path, capsys):
    # Ftil = 0 is not invertible: its image would not be strongly divisible
    m, out = tmp_path / "m.json", tmp_path / "b.json"
    assert main(["gen", "fl", "--d", "2", "--out", str(m)]) == 0
    doc = json.loads(m.read_text())
    for row in doc["data"]["Ftil"]["entries"]:
        for entry in row:
            entry["coeffs"] = ["0"]
    m.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["apply", "mls", "--in", str(m), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: apply mls expects a strong FL module (Ftil invertible)"]


def test_cli_section_suite_error_names_the_class(tmp_path):
    rep = tmp_path / "rep.jsonl"
    code = main(["verify", "--suite", "section", "--p", "5", "--r", "4", "--headroom", "12",
                 "--seeds", "1..2", "--out", str(rep)])
    assert code == 1
    lines = [json.loads(l) for l in rep.read_text().splitlines()]
    errors = [l["error"] for l in lines if "error" in l]
    assert errors and all(e.startswith("PrecisionExhausted: ") for e in errors)


def test_cli_verify_and_report(tmp_path):
    rep = tmp_path / "rep.jsonl"
    code = main(["verify", "--suite", "ring-laws", "--suite", "unipotence",
                 "--seeds", "1..2", "--r", "2", "--out", str(rep)])
    assert code == 0
    lines = [json.loads(l) for l in rep.read_text().splitlines()]
    assert all(l["ok"] for l in lines)
    assert {l["suite"] for l in lines} == {"ring-laws", "unipotence"}
    assert main(["report", "--in", str(rep)]) == 0


@pytest.mark.parametrize("bad", ['{"ok": true}', "[1]", '"text"', "{not json",
                                 '{"suite": "x", "ok": "yes", "seed": 1}',
                                 '{"suite": "x", "ok": true, "seed": [1]}'])
def test_cli_report_rejects_malformed_lines(tmp_path, capsys, bad):
    rep = tmp_path / "rep.jsonl"
    good = '{"check": "c", "ok": true, "seed": 1, "suite": "ring-laws"}'
    rep.write_text(good + "\n\n" + bad + "\n")
    assert main(["report", "--in", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{rep}:3:" in err


@pytest.mark.parametrize("verb", [["apply", "mfl"], ["section"]])
def test_cli_module_verbs_refuse_an_fl_file(tmp_path, capsys, verb):
    fl = tmp_path / "fl.json"
    assert main(["gen", "fl", "--d", "1", "--out", str(fl)]) == 0
    assert main(verb + ["--in", str(fl)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {' '.join(verb)} expects a BreuilModule (or KisinModule) file\n"


def test_cli_mls_refuses_a_kisin_file(tmp_path, capsys):
    k, out = tmp_path / "k.json", tmp_path / "b.json"
    assert main(["gen", "kisin-gls", "--d", "2", "--out", str(k)]) == 0
    capsys.readouterr()
    assert main(["apply", "mls", "--in", str(k), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: apply mls expects an FLModule file\n"


@pytest.mark.parametrize("f, m, message", [
    (1, [0, 2], "m must be monic of degree f"),
    (1, [0, 0, 1], "m must be monic of degree f"),
    (2, [0, 1], "m must be monic of degree f"),
    (2, [0, 0, 1], "m must be irreducible modulo p"),
    (2, [5, 3, 1], "m must be irreducible modulo p"),
], ids=["f1-lead-2", "f1-degree-2", "f2-degree-1", "f2-T-squared", "f2-lifted-reducible"])
def test_cli_loader_refuses_a_bad_modulus(tmp_path, capsys, f, m, message):
    # the file's m_coeffs are checked only where the ring is built: monic of
    # degree f, and irreducible mod p (5 + 3T + T^2 = (T + 1)(T + 2) mod 3)
    src, out = tmp_path / "m.json", tmp_path / "b.json"
    assert main(["gen", "fl", "--f", str(f), "--d", "2", "--jumps", "0,1", "--out", str(src)]) == 0
    doc = json.loads(src.read_text())
    doc["params"]["m_coeffs"] = m
    src.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["apply", "mls", "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("text", ["", "\n", "\n  \n"])
def test_cli_report_refuses_a_file_without_records(tmp_path, capsys, text):
    # exit 0 reads as "every check passed", which an empty report cannot say
    rep = tmp_path / "rep.jsonl"
    rep.write_text(text)
    assert main(["report", "--in", str(rep)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(rep) in err and len(err.splitlines()) == 1


def test_cli_verify_report_reproducible(tmp_path):
    r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    args = ["verify", "--suite", "easylemma", "--seeds", "1..3", "--r", "2"]
    assert main(args + ["--out", str(r1)]) == 0
    assert main(args + ["--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_parser_is_built_once_and_keeps_no_arguments(tmp_path):
    # two verify calls with one --suite each on the one cached parser: each
    # writes the report of a fresh parser, so the append action of --suite
    # carries nothing from the first call into the second
    args = ["--seeds", "1..2", "--samples", "3", "--r", "2"]
    runs = [("ring-laws", tmp_path / "a.jsonl"), ("unipotence", tmp_path / "b.jsonl")]
    for suite, out in runs:
        assert main(["verify", "--suite", suite, *args, "--out", str(out)]) == 0
    assert _build_parser() is _build_parser()
    _build_parser.cache_clear()
    for suite, out in runs:
        fresh = tmp_path / f"fresh-{suite}.jsonl"
        assert main(["verify", "--suite", suite, *args, "--out", str(fresh)]) == 0
        _build_parser.cache_clear()
        assert out.read_bytes() == fresh.read_bytes()
        assert {json.loads(l)["suite"] for l in out.read_text().splitlines()} == {suite}


def test_cli_out_and_in_name_the_same_file(tmp_path, monkeypatch):
    # a relative --out is the file a later --in of the same name reads,
    # whatever the environment holds
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FLBREUIL_OUT", str(tmp_path / "elsewhere"))
    assert main(["gen", "breuil-from-fl", "--p", "3", "--d", "2", "--out", "m.json"]) == 0
    assert main(["section", "--in", "m.json", "--out", "s.json"]) == 0
    assert (tmp_path / "s.json").exists() and not (tmp_path / "elsewhere").exists()


def test_cli_verify_isolates_kernel_errors(tmp_path, monkeypatch):
    def broken(amb, rng, cfg):
        raise NotStrong("injected")

    monkeypatch.setitem(CAM.SUITES, "unipotence", broken)
    rep = tmp_path / "rep.jsonl"
    code = main(["verify", "--suite", "unipotence", "--suite", "ring-laws",
                 "--seeds", "1..2", "--samples", "5", "--r", "2", "--out", str(rep)])
    assert code == 1
    lines = [json.loads(l) for l in rep.read_text().splitlines()]
    failed = [l for l in lines if not l["ok"]]
    assert failed == [
        {"check": "kernel-error", "ok": False, "error": "NotStrong: injected",
         "suite": "unipotence", "seed": seed}
        for seed in (1, 2)
    ]
    ring = [l for l in lines if l["suite"] == "ring-laws"]
    assert ring and all(l["ok"] for l in ring)
    assert {l["seed"] for l in ring} == {1, 2}


def test_run_suite_seed_lets_kernel_errors_through(monkeypatch):
    # The acceptance tests call run_suite_seed directly: a kernel error in any
    # suite must still fail them, not turn into a record they might filter out.
    def broken(amb, rng, cfg):
        raise NotStrong("injected")

    monkeypatch.setitem(CAM.SUITES, "unipotence", broken)
    with pytest.raises(NotStrong):
        CAM.run_suite_seed({"p": 3, "r": 2}, "unipotence", 1, {})


def test_cli_usage_errors(tmp_path):
    assert main(["gen", "nonsense"]) == 2
    assert main(["apply", "mls", "--in", str(tmp_path / "missing.json")]) == 2
    assert main(["verify", "--suite", "ring-laws", "--seeds", "1", "--p", "2"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "easylemma", "--seeds", "1..2", "--a", "3"],
     "a must be a unit of W(k)"),
    (["gen", "kisin-gls", "--a", "3"], "a must be a unit of W(k)"),
    (["verify", "--suite", "easylemma", "--seeds", "1", "--f", "0"],
     "residue degree f must be at least 1"),
], ids=["verify-a", "gen-a", "verify-f"])
def test_cli_bad_context_is_a_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out.jsonl"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("seeds", [",", " , ,"])
def test_cli_verify_refuses_an_empty_seed_list(tmp_path, capsys, seeds):
    rep = tmp_path / "rep.jsonl"
    assert main(["verify", "--suite", "easylemma", "--seeds", seeds, "--out", str(rep)]) == 2
    assert not rep.exists()
    assert capsys.readouterr().err.splitlines() == ["error: empty seed list"]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "lemfil1", "--samples", "0"],
    ["verify", "--suite", "lemfil1", "--samples", "-3"],
    ["verify", "--suite", "ring-laws", "--jobs", "0"],
    ["verify", "--suite", "roundtrip-fl", "--jobs", "-1"],
])
def test_cli_counts_below_one_are_usage_errors(tmp_path, capsys, argv):
    rep = tmp_path / "rep.jsonl"
    assert main(argv + ["--seeds", "1", "--r", "2", "--out", str(rep)]) == 2
    assert not rep.exists()
    assert "must be at least 1" in capsys.readouterr().err


def test_cli_verify_samples_reach_the_records(tmp_path):
    rep = tmp_path / "rep.jsonl"
    assert main(["verify", "--suite", "lemfil1", "--seeds", "1", "--r", "2",
                 "--samples", "1", "--out", str(rep)]) == 0
    lines = [json.loads(l) for l in rep.read_text().splitlines()]
    assert [l["elements"] for l in lines if l["check"] == "tensor-vs-hat"] == [1]


def test_cli_verify_roundtrip_suite(tmp_path):
    out = tmp_path / "rt.jsonl"
    assert main(["verify", "--suite", "roundtrip-fl", "--seeds", "1..3",
                 "--r", "1", "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 3 and all(l["ok"] for l in lines)
    assert main(["roundtrip", "--direction", "fl"]) == 2


def test_cli_report_prints_the_verify_summary(tmp_path, capsys):
    rep = tmp_path / "rep.jsonl"
    assert main(["verify", "--suite", "unipotence", "--suite", "easylemma",
                 "--seeds", "1..2", "--r", "2", "--samples", "3", "--out", str(rep)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("# elapsed ")
    summary = sorted(line[2:] for line in err[:-1])
    assert [line.split()[0] for line in summary] == ["easylemma", "unipotence"]
    assert main(["report", "--in", str(rep)]) == 0
    assert capsys.readouterr().out.splitlines() == summary


def test_cli_verify_sorts_the_seeds(tmp_path):
    r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    args = ["verify", "--suite", "unipotence", "--suite", "easylemma", "--r", "2",
            "--samples", "3"]
    assert main(args + ["--seeds", "3,1,2", "--out", str(r1)]) == 0
    assert main(args + ["--seeds", "1..3", "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


ODD_PRIME = ("p must be an odd prime; p = 2 is not supported (the diagonal normal form "
             "behind the Kisin-side constructions needs p > 2)")


def _set(*path):
    """A document edit: the value at ``path[:-1]`` becomes ``path[-1]``."""
    def edit(doc):
        *keys, last, value = path
        for k in keys:
            doc = doc[k]
        doc[last] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set("data", "d", [2]),
    _set("data", "d", True),
    _set("params", "p", {}),
    _set("params", "N_p", 6.0),
    _set("data", "Ftil", "entries", 5),
    _set("data", "Ftil", "entries", 0, 0, "prec", None),
    _set("data", "Ftil", "entries", 0, 0, "coeffs", ["x"]),
    _set("data", "jumps", [0.7, 1.2]),
    _set("params", "a", "coeffs", 5),
    _set("params", "a", "prec", 3),
], ids=["d-list", "d-bool", "p-object", "Np-float", "entries-int", "prec-null",
        "coeff-text", "jumps-float", "a-int", "a-prec"])
def test_cli_malformed_instance_is_a_usage_error(tmp_path, capsys, edit):
    m = tmp_path / "m.json"
    out = tmp_path / "b.json"
    assert main(["gen", "fl", "--d", "2", "--jumps", "0,1", "--out", str(m)]) == 0
    doc = json.loads(m.read_text())
    edit(doc)
    m.write_text(json.dumps(doc))
    assert main(["apply", "mls", "--in", str(m), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("verb", [["apply", "mfl"], ["section"]])
@pytest.mark.parametrize("edit", [
    _set("data", "Nmat", "denom_exp", 1),
    _set("data", "Phi", "denom_exp", 1),
    _set("data", "Phi", "entries", 0, 0, "tail_dirty", "no"),
    _set("data", "Phi", "entries", 0, 0, "tail_dirty", 1),
    _set("data", "Phi", "entries", 0, 0, "tail_dirty", None),
], ids=["Nmat-denom", "Phi-denom", "dirty-text", "dirty-int", "dirty-null"])
def test_cli_malformed_breuil_file_is_a_usage_error(tmp_path, capsys, edit, verb):
    # a matrix carries no denominator and tail_dirty is a JSON boolean,
    # whichever verb reads the file
    b = tmp_path / "b.json"
    out = tmp_path / "out.json"
    assert main(["gen", "breuil-from-fl", "--d", "2", "--jumps", "0,1", "--out", str(b)]) == 0
    doc = json.loads(b.read_text())
    edit(doc)
    b.write_text(json.dumps(doc))
    assert main(verb + ["--in", str(b), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _resize(name, rows, cols):
    """A document edit: matrix ``name`` of the data becomes rows x cols,
    its entries repeated from the top left."""
    def edit(doc):
        data = doc["data"]
        *keys, last = name.split(".")
        for k in keys:
            data = data[k]
        m = data[last]
        m["entries"] = [(row * cols)[:cols] for row in (m["entries"] * rows)[:rows]]
        m["rows"], m["cols"] = rows, cols
    return edit


def _rank(d):
    """A document edit: the stated rank becomes d."""
    def edit(doc):
        doc["data"]["d"] = d
    return edit


@pytest.mark.parametrize("kind, verb, edit", [
    ("breuil-from-fl", ["apply", "mfl"], _resize("Nmat", 3, 2)),
    ("breuil-from-fl", ["section"], _resize("Nmat", 3, 2)),
    ("breuil-from-fl", ["apply", "mfl"], _resize("Nmat", 1, 1)),
    ("breuil-from-fl", ["section"], _resize("Nmat", 1, 1)),
    ("kisin-gls", ["section"], _resize("A", 1, 1)),
    ("kisin-gls", ["apply", "mfl", "--adjoin-zero-n"], _resize("A", 1, 1)),
    ("kisin-gls", ["section"], _resize("gls.X", 3, 3)),
    ("fl", ["apply", "mls"], _rank(3)),
    ("breuil-from-fl", ["section"], _rank(1)),
], ids=["Nmat-3x2-mfl", "Nmat-3x2-section", "Nmat-1x1-mfl", "Nmat-1x1-section",
        "A-1x1-section", "A-1x1-mfl", "X-3x3-section", "d-3-mls", "d-1-section"])
def test_cli_matrix_not_of_the_rank_is_a_usage_error(tmp_path, capsys, kind, verb, edit):
    src = tmp_path / "in.json"
    out = tmp_path / "out.json"
    assert main(["gen", kind, "--d", "2", "--r", "2", "--jumps", "0,1", "--out", str(src)]) == 0
    doc = json.loads(src.read_text())
    edit(doc)
    src.write_text(json.dumps(doc))
    assert main(verb + ["--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: matrix dimensions do not match the rank"]


def test_ragged_matrix_is_a_schema_error(tmp_path, capsys):
    # rows of different lengths are refused by the loader in its own error
    # type, before a matrix is built
    src = tmp_path / "in.json"
    out = tmp_path / "out.json"
    assert main(["gen", "fl", "--d", "2", "--out", str(src)]) == 0
    doc = json.loads(src.read_text())
    doc["data"]["Ftil"]["entries"][1].pop()
    with pytest.raises(SchemaMismatch, match="^matrix rows differ in length$"):
        SER._from_json(doc)
    src.write_text(json.dumps(doc))
    assert main(["apply", "mls", "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["error: matrix rows differ in length"]


@pytest.mark.parametrize("verb", [["section"], ["apply", "mfl", "--adjoin-zero-n"]])
def test_cli_series_longer_than_the_truncation_is_a_usage_error(tmp_path, capsys, verb):
    # the constructor cuts a series at N_u; a file may not rely on that cut
    src = tmp_path / "in.json"
    out = tmp_path / "out.json"
    assert main(["gen", "kisin-gls", "--d", "2", "--r", "2", "--out", str(src)]) == 0
    doc = json.loads(src.read_text())
    amb = SER._params_from_json(doc["params"])
    ucoeffs = doc["data"]["A"]["entries"][0][0]["ucoeffs"]
    ucoeffs += [SER._entry_to_json(amb.ring.one())] * (amb.N_u + 3 - len(ucoeffs))
    src.write_text(json.dumps(doc))
    assert main(verb + ["--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: too many u coefficients for this truncation"]


def test_cli_rank_zero_breuil_module_passes_section_and_mfl(tmp_path):
    b = tmp_path / "b.json"
    s = tmp_path / "s.json"
    m = tmp_path / "m.json"
    assert main(["gen", "breuil-from-fl", "--d", "0", "--out", str(b)]) == 0
    assert main(["section", "--in", str(b), "--out", str(s)]) == 0
    sec = json.loads(s.read_text())["data"]
    assert sec["iterations"] == 0 and sec["exact"]
    assert main(["apply", "mfl", "--in", str(b), "--out", str(m)]) == 0
    M = SER.load(str(m))
    assert isinstance(M, FLModule) and M.d == 0 and M.jumps == ()


@pytest.mark.parametrize("kind", ["kisin-gls", "breuil-from-kisin"])
def test_cli_rank_zero_kisin_module_passes_section_and_mfl(tmp_path, kind):
    # one rank rule for all three module kinds: d >= 0
    k = tmp_path / "k.json"
    s = tmp_path / "s.json"
    m = tmp_path / "m.json"
    assert main(["gen", kind, "--d", "0", "--out", str(k)]) == 0
    assert SER.load(str(k)).d == 0
    assert main(["section", "--in", str(k), "--out", str(s)]) == 0
    sec = json.loads(s.read_text())["data"]
    assert sec["iterations"] == 0 and sec["exact"]
    assert main(["apply", "mfl", "--in", str(k), "--adjoin-zero-n", "--out", str(m)]) == 0
    M = SER.load(str(m))
    assert isinstance(M, FLModule) and M.d == 0 and M.jumps == ()


def test_fl_module_stores_checked_jumps(amb3):
    M = _random_fl(amb3, random.Random(11), 2, (0, 1))
    assert FLModule(amb3, [0, 1], M.Ftil).jumps == (0, 1)


def test_kisin_module_checks_its_normal_form(amb3):
    K = random_gls(amb3, random.Random(11), 2, (0, 1))
    X, Y = K.X, K.Y
    K2 = KisinModule(amb3, X, [0, 1], Y)
    assert K2.jumps == (0, 1) and K2.A.eq_at(K.A, amb3.cap)
    with pytest.raises(MalformedJumps, match="not sorted"):
        KisinModule(amb3, X, (1, 0), Y)
    with pytest.raises(MalformedJumps, match="do not match the rank"):
        KisinModule(amb3, X, (0, 1), RingMatrix([[Y.entries[0][0]]]))
    with pytest.raises(NotInvertible, match="GL_d"):
        KisinModule(amb3, X.mul_p_pow(1), (0, 1), Y)
    with pytest.raises(NotInvertible, match="GL_d"):
        KisinModule(amb3, X, (0, 1), Y.mul_p_pow(1))


def test_a_longer_than_f_is_rejected(tmp_path, capsys):
    from flbreuil.ambient import AmbientParams, _resolve_params

    with pytest.raises(ValueError, match="f = 2"):
        AmbientParams(3, 1, f=2, a=[1, 0, 0, 1])
    # trailing zeros beyond f are still dropped
    assert _resolve_params(3, 1, a=[-1, 0]) == _resolve_params(3, 1)
    m = tmp_path / "m.json"
    out = tmp_path / "b.json"
    assert main(["gen", "fl", "--d", "1", "--out", str(m)]) == 0
    doc = json.loads(m.read_text())
    doc["params"]["a"]["coeffs"] += ["1"]
    m.write_text(json.dumps(doc))
    with pytest.raises(SchemaMismatch, match="f = 1"):
        SER._from_json(doc)
    assert main(["apply", "mls", "--in", str(m), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: a has 2 coefficients, but f = 1 allows at most 1"]


@pytest.mark.parametrize("verb", [["section"], ["apply", "mfl", "--adjoin-zero-n"]])
def test_cli_kisin_a_off_its_normal_form_is_a_usage_error(tmp_path, capsys, verb):
    # both verbs read only the normal form, so the loader checks that the
    # stored A is X diag(E^r_i) Y
    src = tmp_path / "in.json"
    out = tmp_path / "out.json"
    assert main(["gen", "kisin-gls", "--d", "2", "--r", "2", "--out", str(src)]) == 0
    doc = json.loads(src.read_text())
    coeffs = doc["data"]["A"]["entries"][0][0]["ucoeffs"][0]["coeffs"]
    coeffs[0] = str(int(coeffs[0]) + 3)
    src.write_text(json.dumps(doc))
    assert main(verb + ["--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["error: A is not X diag(E^r_i) Y"]


def _singular_mod_p(name):
    """A Kisin document edit: row 0 of X (or column 0 of Y) times p, and
    the same row (column) of A with it, so A stays X diag(E^r_i) Y."""
    def edit(doc):
        amb = SER._params_from_json(doc["params"])
        data = doc["data"]
        for m in (data["gls"][name], data["A"]):
            rows = m["entries"]
            cells = [(0, j) if name == "X" else (j, 0) for j in range(len(rows))]
            for i, j in cells:
                x = SER._entry_from_json(amb, "series", rows[i][j])
                rows[i][j] = SER._entry_to_json(x.mul_p_pow(1))
    return edit


@pytest.mark.parametrize("verb", [["section"], ["apply", "mfl", "--adjoin-zero-n"]])
@pytest.mark.parametrize("edit, message", [
    (_singular_mod_p("X"), "X and Y must lie in GL_d of the series ring"),
    (_singular_mod_p("Y"), "X and Y must lie in GL_d of the series ring"),
    (_set("data", "gls", None), "expected an object, got NoneType"),
], ids=["X-singular", "Y-singular", "gls-null"])
def test_cli_kisin_normal_form_off_gl_d_is_a_usage_error(tmp_path, capsys, verb, edit, message):
    # both verbs read only the normal form, so the loader checks that X and
    # Y are invertible modulo (p, u) and that the form is there at all
    src = tmp_path / "in.json"
    out = tmp_path / "out.json"
    assert main(["gen", "kisin-gls", "--d", "2", "--r", "2", "--out", str(src)]) == 0
    doc = json.loads(src.read_text())
    edit(doc)
    src.write_text(json.dumps(doc))
    assert main(verb + ["--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("edit, message", [
    (_set("data", "Ftil", "entries", 1, 0, "prec", 0), "scalar precision must be positive"),
    (_set("data", "Ftil", "rows", 3), "declared matrix shape does not match entries"),
    (_set("kind", "Nope"), "unknown kind 'Nope'"),
    (_set("params", "N_gamma", 10**40), f"N_gamma = {10**40} exceeds the bound 1024"),
    (_set("params", "f", 10**40), f"residue degree f = {10**40} exceeds the bound 64"),
    (_set("params", "p", 9), ODD_PRIME),
], ids=["prec-zero", "rows-mismatch", "kind-unknown", "Ngamma-huge", "f-huge", "p-composite"])
def test_cli_loader_refusal_names_the_fault(tmp_path, capsys, edit, message):
    m = tmp_path / "m.json"
    out = tmp_path / "b.json"
    assert main(["gen", "fl", "--d", "2", "--jumps", "0,1", "--out", str(m)]) == 0
    doc = json.loads(m.read_text())
    edit(doc)
    m.write_text(json.dumps(doc))
    assert main(["apply", "mls", "--in", str(m), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["--r", "3"], "Hodge bound r must lie in [0, 2]"),
    (["--r", "-1"], "Hodge bound r must lie in [0, 2]"),
    (["--Np", "0"], "N_p must be positive"),
    (["--headroom", "-1"], "headroom must be nonnegative"),
    (["--Ngamma", "5"], "N_gamma = 5 violates N_gamma*(p-2)/(p-1) >= N_p + r (minimum 14)"),
    (["--jumps", "0"], "expected 2 jumps, got 1"),
    (["--Ngamma", str(10**41)], f"N_gamma = {10**41} exceeds the bound 1024"),
    (["--f", str(10**40)], f"residue degree f = {10**40} exceeds the bound 64"),
    (["--headroom", "9000"], "cap N_p + headroom = 9006 exceeds the bound 8192"),
    (["--p", "1031"], "p = 1031 needs N_gamma > p, above the bound 1024"),
    (["--p", "9"], ODD_PRIME),
    (["--p", "1"], ODD_PRIME),
], ids=["r-above", "r-below", "Np-zero", "headroom-negative", "Ngamma-below", "jumps-short",
        "Ngamma-huge", "f-huge", "cap-huge", "p-huge", "p-composite", "p-one"])
def test_cli_gen_refuses_a_bad_context_or_jump_count(tmp_path, capsys, argv, message):
    out = tmp_path / "m.json"
    assert main(["gen", "fl", "--p", "3", "--d", "2", *argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("kind, p, seed", OUTSIDE)
def test_cli_mfl_refuses_a_module_outside_the_category(tmp_path, capsys, kind, p, seed):
    b, out = tmp_path / "b.json", tmp_path / "m.json"
    b.write_text(SER.dumps(outside_the_category(kind, p, seed)))
    assert main(["apply", "mfl", "--in", str(b), "--out", str(out)]) == 2
    assert not out.exists()
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: input fails") and kind in err


def test_cli_gen_at_residue_degree_24_loads_back(tmp_path):
    out = tmp_path / "m.json"
    assert main(["gen", "fl", "--p", "3", "--f", "24", "--d", "2", "--out", str(out)]) == 0
    M = SER.load(str(out))
    assert (M.amb.f, M.d) == (24, 2) and len(M.amb.ring.m) == 25
    assert SER.dumps(M) + "\n" == out.read_text()


def test_cli_gen_writes_the_chosen_N_gamma(tmp_path):
    m = tmp_path / "m.json"
    assert main(["gen", "fl", "--p", "3", "--d", "2", "--Ngamma", "40", "--out", str(m)]) == 0
    assert '"N_gamma":40' in m.read_text()
    assert SER.load(str(m)).amb.N_gamma == 40


def test_cli_without_out_writes_the_file_bytes_to_stdout(tmp_path, capsys):
    m = tmp_path / "m.json"
    argv = ["gen", "fl", "--d", "2", "--seed", "4"]
    assert main([*argv, "--out", str(m)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == m.read_bytes()


def test_cli_verify_all_runs_every_suite(tmp_path, capsys):
    assert main(["verify", "--suite", "all", "--seeds", "1", "--samples", "2"]) == 0
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    assert len(CAM.SUITES) == 8
    assert list(dict.fromkeys(rec["suite"] for rec in records)) == list(CAM.SUITES)
    assert all(rec["ok"] and rec["seed"] == 1 for rec in records)
    assert sorted(line.split()[1] for line in err.splitlines()[:-1]) == sorted(CAM.SUITES)


def test_run_campaign_refuses_an_unknown_suite():
    with pytest.raises(ValueError, match=r"^unknown suites: \['nope'\]$"):
        CAM._run_campaign({"p": 3, "r": 1}, ["ring-laws", "nope"], [1], {}, 1)
