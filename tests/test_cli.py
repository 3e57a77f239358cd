import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from enrlat.cli import (
    canonical_json,
    datum_from_json,
    datum_to_json,
    fqf_from_json,
    fqf_to_json,
    inputs_digest,
    main,
)
from enrlat.fqf import discriminant_form, fqf_isomorphic
from enrlat.lattice import Lattice, standard_lattice
from enrlat.nikulin import find_embedding_datum


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_envelope_shape():
    code, out = run_cli(["--json", "standard-lattice", "--tag", "U"])
    assert code == 0
    env = json.loads(out)
    assert set(env) == {"command", "inputs_digest", "verdicts", "payload", "runtime_ms"}
    assert env["command"] == "standard-lattice"
    assert env["runtime_ms"] == 0
    assert env["payload"]["gram"] == [[0, 1], [1, 0]]


def test_python_dash_m_matches_main():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["--json", "standard-lattice", "--tag", "U"]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "enrlat"] + argv, env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(argv)[1].encode()


def test_json_output_is_byte_stable():
    argv = ["--json", "theorem-a", "--rho", "20", "--params", "[2,1,3]", "--label", "[1,0]"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


def test_digest_depends_on_inputs_only():
    assert inputs_digest({"a": 1}) == inputs_digest({"a": 1})
    assert inputs_digest({"a": 1}) != inputs_digest({"a": 2})
    _, one = run_cli(["--json", "epsilon", "--vector", "[1,0,0,0,0,0,0,0,0,0,0,0]"])
    _, two = run_cli(["--json", "epsilon", "--vector", "[0,1,0,0,0,0,0,0,0,0,0,0]"])
    assert json.loads(one)["inputs_digest"] != json.loads(two)["inputs_digest"]


def test_exit_codes_cover_pass_fail_error():
    code, _ = run_cli(["--json", "nikulin-exists", "--signature", "[1,1]"])
    assert code == 0
    code, _ = run_cli(["--json", "nikulin-exists", "--signature", "[0,1]"])
    assert code == 1
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(["--json", "sublattice", "--gram", "[[4]]", "--prime", "2"])
    assert code == 2


def test_error_envelope_names_the_error(tmp_path):
    no_gram = tmp_path / "no_gram.json"
    no_gram.write_text('{"images": []}')
    no_k = tmp_path / "no_k.json"
    no_k.write_text('{"H_L": [], "H_N": [], "gamma": []}')
    no_q = tmp_path / "no_q.json"
    no_q.write_text('{"invariant_factors": [2]}')
    cases = [
        (["sublattice", "--gram", "[[4]]", "--prime", "2"], "BadPrime"),
        (["epsilon", "--vector", '["a","b",0,0,0,0,0,0,0,0,0,0]'], "BadShape"),
        (["verify-embedding", str(no_gram)], "BadShape"),
        (["verify-datum", "--gram", "[[4]]", "--datum-file", str(no_k)], "BadShape"),
        (["nikulin-exists", "--signature", "[1,0]", "--fqf-file", str(no_q)], "BadShape"),
        (["accept", "--criterion", "99"], "BadShape"),
        (["im-phi-bound", "--gram", "[[1,2],[3]]"], "BadShape"),
        (["im-phi-bound", "--gram", "[[2,1],[0,2]]"], "NotSymmetric"),
        (["nikulin-exists", "--signature", "1"], "BadShape"),
        (["nikulin-exists", "--signature", "1,2,3"], "BadShape"),
        # a JSON boolean is no integer
        (["epsilon", "--vector", "[true,false,0,0,0,0,0,0,0,0,0,0]"], "BadShape"),
        (["nikulin-exists", "--signature", "[true,false]"], "BadShape"),
        (["brauer-image", "--rho", "20", "--params", "[1,true,1]"], "BadShape"),
        # parameters the tables refuse are refused, not swept to the zero character
        (["brauer-image", "--rho", "17", "--params", "[0]"], "BadParams"),
        (["theorem-c", "--gram", '[["a",1],[1,2]]'], "BadShape"),
        (["theorem-c", "--gram", "[[2.5,1],[1,10]]"], "BadShape"),
        (["theorem-c", "--gram", "[[true,1],[1,2]]"], "BadShape"),
        (["theorem-c", "--gram", "[[2,1],[0,2]]"], "NotSymmetric"),
        (["theorem-c", "--gram", "[[2,1,0],[1,2,0],[0,0,2]]"], "BadShape"),
    ]
    # a child whose det ratio to the parent is not a square, a child that
    # is degenerate and one of smaller rank
    for parent_gram, child_gram, kind in (("[[4,0],[0,4]]", "[[2,1],[1,2]]", "GramMismatch"),
                                          ("[[4,0],[0,4]]", "[[4,0],[0,8]]", "GramMismatch")):
        cases.append((["condition-star", "--parent-gram", parent_gram, "--child-gram", child_gram],
                      kind))
    rows = tmp_path / "rows.json"
    rows.write_text("[[1,0]]")
    for parent_gram, kind in (("[[0,1],[1,0]]", "Degenerate"), ("[[2,1],[1,2]]", "BadShape")):
        cases.append((["condition-star", "--parent-gram", parent_gram, "--sublattice", str(rows)],
                      kind))
    # gluing data for [[4,0],[0,4]] whose rows or K do not fit: H_L rows
    # have one entry per generator of its discriminant group, H_N and gamma
    # rows one per generator of N's
    good = json.loads((GOLDEN / "datum_4_4.json").read_text())
    hn = good["H_N"][0]
    bad_data = {
        "hn_long": {"H_N": [hn + [0]]},
        "hl_long": {"H_L": [[0, 2, 0]]},
        "hl_short": {"H_L": [[2]]},
        "gamma_short": {"gamma": [hn[:-1]]},
        "float_entry": {"H_L": [[0, 2.5]]},
        "string_entry": {"gamma": [hn[:-1] + ["1"]]},
        "one_signature": {"K": dict(good["K"], signature=[10])},
    }
    # K's form with a malformed q entry or invariant factor, in a datum
    # and on its own
    fqf = good["K"]["fqf"]
    q = fqf["q"]
    bad_forms = {
        "short_q": dict(fqf, q=[[[1]] + q[0][1:]] + q[1:]),
        "zero_den": dict(fqf, q=[[[1, 0]] + q[0][1:]] + q[1:]),
        "string_q": dict(fqf, q=[[["0", 1]] + q[0][1:]] + q[1:]),
        "q_not_rows": dict(fqf, q=[1, 2]),
        "float_factor": dict(fqf, invariant_factors=[2.0] + fqf["invariant_factors"][1:]),
        "factors_not_list": dict(fqf, invariant_factors=4),
    }
    for stem, form in bad_forms.items():
        path = tmp_path / (stem + "_form.json")
        path.write_text(json.dumps(form))
        cases.append((["nikulin-exists", "--signature", "[0,10]", "--fqf-file", str(path)],
                      "BadShape"))
        bad_data[stem] = {"K": dict(good["K"], fqf=form)}
    # [[3,0],[0,2]] gives the gram [[36,0],[0,16]], not the child's; one
    # row cannot be a basis of a rank-2 child; [[1,3]] gives [[40]], but a
    # rank-1 child is not of finite index
    for child, basis, kind in (("[[36,0],[0,4]]", "[[3,0],[0,2]]", "GramMismatch"),
                               ("[[36,0],[0,4]]", "[[3,0]]", "BadShape"),
                               ("[[36,0],[0,4]]", "[[3,0,0],[0,1,0]]", "BadShape"),
                               ("[[36,0],[0,4]]", "[[3,0],[0,1.0]]", "BadShape"),
                               ("[[40]]", "[[1,3]]", "BadShape")):
        for direction in ("down", "up"):
            cases.append((["transfer", "--direction", direction, "--parent-gram", "[[4,0],[0,4]]",
                           "--child-gram", child, "--child-basis", basis,
                           "--datum-file", str(GOLDEN / "datum_4_4.json")], kind))
    parent = ["--parent-gram", "[[4,0],[0,4]]", "--child-gram", "[[36,0],[0,4]]",
              "--child-basis", "[[3,0],[0,1]]"]
    for stem, change in bad_data.items():
        path = tmp_path / (stem + ".json")
        path.write_text(json.dumps(dict(good, **change)))
        cases.append((["verify-datum", "--gram", "[[4,0],[0,4]]", "--datum-file", str(path)],
                      "BadShape"))
        for direction in ("down", "up"):
            cases.append((["transfer", "--direction", direction] + parent
                          + ["--datum-file", str(path)], "BadShape"))
    for argv, kind in cases:
        code, out = run_cli(["--json"] + argv)
        assert code == 2, argv
        env = json.loads(out)
        assert env["error"]["type"] == kind, argv


def test_roots_verdict_and_payload():
    code, out = run_cli(["--json", "roots", "--gram", "[[-2]]", "--norm", "-2"])
    assert code == 0
    env = json.loads(out)
    assert env["verdicts"]["found"]
    assert env["payload"]["count"] == 2
    code, out = run_cli(["--json", "roots", "--gram", "[[-4]]", "--norm", "-2"])
    assert code == 1
    assert json.loads(out)["payload"]["count"] == 0


def test_roots_with_a_negative_cap_exits_two():
    # a vector of norm 2 exists, so a spent budget would read CapExceeded
    for norm in ("2", "4"):
        code, out = run_cli(["--json", "roots", "--gram", "[[2]]", "--norm", norm, "--cap", "-1"])
        assert code == 2
        env = json.loads(out)
        assert env["error"]["type"] == "BadShape"
        assert "cap" in env["error"]["message"]


def test_over_long_json_integer_exits_two(tmp_path):
    # json parses the digits, but int() refuses more than 4,300 of them
    gram = "[[%s]]" % ("2" * 5000)
    path = tmp_path / "gram.json"
    path.write_text(gram)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for source in (["--gram", gram], ["--gram-file", str(path)]):
        argv = ["--json", "roots"] + source + ["--norm", "2"]
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "enrlat"] + argv, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["error"]["type"] == "BadShape"


def test_epsilon_command():
    code, out = run_cli(["--json", "epsilon", "--vector", "[1,1] + []"])
    assert code == 2
    code, out = run_cli(["--json", "epsilon", "--vector", "[1,1,0,0,0,0,0,0,0,0,0,0]"])
    assert code == 0
    assert json.loads(out)["payload"]["parity"] == 0


def test_theorem_a_negative_label_exits_one():
    code, out = run_cli(
        ["--json", "theorem-a", "--rho", "20", "--params", "[1,0,1]", "--label", "[0,0]"]
    )
    assert code in (1, 2)


def test_nikulin_exists_on_a_non_cyclic_presentation(tmp_path):
    # invariant factors [2, 3] present Z/6, the discriminant group of [[-6]]
    path = tmp_path / "z2_z3.json"
    path.write_text(json.dumps(
        {"invariant_factors": [2, 3], "q": [[[1, 2], [0, 1]], [[0, 1], [4, 3]]]}))
    code, out = run_cli(
        ["--json", "nikulin-exists", "--signature", "[0,1]", "--fqf-file", str(path)])
    assert code == 0
    assert json.loads(out)["verdicts"]["exists"] is True


def test_fqf_json_round_trip():
    form = discriminant_form(Lattice([[4, 0], [0, -6]]))
    blob = fqf_to_json(form)
    back = fqf_from_json(blob)
    assert fqf_isomorphic(form, back) is not None
    assert blob == fqf_to_json(back)


def test_datum_json_round_trip(tmp_path):
    lat = Lattice([[4, 0], [0, 4]])
    datum = find_embedding_datum(lat)
    blob = datum_to_json(datum)
    back = datum_from_json(blob)
    assert back.h_l == datum.h_l
    assert back.gamma == datum.gamma
    assert back.k_rank == datum.k_rank
    assert fqf_isomorphic(back.k_fqf, datum.k_fqf) is not None
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(
        ["--json", "verify-datum", "--gram", "[[4,0],[0,4]]", "--datum-file", str(path)]
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["valid"]


def test_verify_datum_accepts_the_glued_subgroup_on_other_generators(tmp_path):
    gram = "[[4,0,0],[0,4,0],[0,0,-4]]"
    blob = datum_to_json(find_embedding_datum(Lattice(json.loads(gram))))
    # the same subgroup of the ambient form as the found H_N, on other generators
    blob["H_N"] = [[0, 0, 0, 0, 0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 0, 0, 0, 1, 1, 0]]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(["--json", "verify-datum", "--gram", gram, "--datum-file", str(path)])
    assert code == 0
    env = json.loads(out)
    assert env["verdicts"]["valid"] is True
    assert env["payload"]["reasons"] == []


def test_transfer_down_then_verify(tmp_path):
    lat = Lattice([[4, 0], [0, 4]])
    datum = find_embedding_datum(lat)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_json(datum)))
    code, out = run_cli(
        [
            "--json",
            "transfer",
            "--direction",
            "down",
            "--parent-gram",
            "[[4,0],[0,4]]",
            "--child-gram",
            "[[36,0],[0,4]]",
            "--child-basis",
            "[[3,0],[0,1]]",
            "--datum-file",
            str(path),
        ]
    )
    assert code == 0
    child_blob = json.loads(out)["payload"]["datum"]
    child_path = tmp_path / "child.json"
    child_path.write_text(json.dumps(child_blob))
    code, out = run_cli(
        ["--json", "verify-datum", "--gram", "[[36,0],[0,4]]", "--datum-file", str(child_path)]
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["valid"]


def test_verify_embedding_file_flow(tmp_path):
    good = {
        "source_gram": [[4, 0], [0, 4]],
        "images": [
            [1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [1, -2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0],
        ],
    }
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(good))
    code, out = run_cli(["--json", "verify-embedding", "--file", str(path)])
    assert code == 0
    env = json.loads(out)
    assert env["verdicts"]["valid"]
    assert env["verdicts"]["complement_twice_even"]
    assert env["payload"]["label"] == [1, 1]

    wrong_pairing = [good["images"][0], [0, 0, 2, 4, 0, 0, 0, 0, 0, 0, 0, 0]]
    for images, reason in ((wrong_pairing, "GramMismatch"), (5, "BadShape")):
        path.write_text(json.dumps(dict(good, images=images)))
        code, out = run_cli(["--json", "verify-embedding", "--file", str(path)])
        assert code == 1
        env = json.loads(out)
        assert not env["verdicts"]["valid"]
        assert env["payload"]["reason"].startswith(reason + ":")


def test_condition_star_command():
    code, out = run_cli(
        [
            "--json",
            "condition-star",
            "--parent-gram",
            "[[4,0],[0,4]]",
            "--child-gram",
            "[[36,0],[0,4]]",
        ]
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["satisfied"]


def test_class_group_command():
    code, out = run_cli(["--json", "class-group", "--disc", "-23"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["class_number"] == 3
    assert payload["forms"] == [[1, 1, 6], [2, -1, 3], [2, 1, 3]]


def test_theorem_c_command_exit_codes():
    code, out = run_cli(["--json", "theorem-c", "--gram", "[[2,1],[1,10]]"])
    assert code == 0
    assert json.loads(out)["verdicts"]["applies"]
    code, out = run_cli(["--json", "theorem-c", "--gram", "[[2,1],[1,2]]"])
    assert code == 1


def test_brauer_image_command():
    code, out = run_cli(["--json", "brauer-image", "--rho", "20", "--params", "[1,0,1]"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert [0, 0] in payload["realized"]
    assert set(map(tuple, map(tuple, payload["realized"]))) <= set(
        map(tuple, payload["upper_bound"])
    )


def test_im_phi_bound_command():
    code, out = run_cli(["--json", "im-phi-bound", "--gram", "[[2,0],[0,6]]"])
    assert code == 0
    assert json.loads(out)["payload"]["trivial_only"]


def test_accept_single_fast_criterion():
    code, out = run_cli(["--json", "accept", "--criterion", "3"])
    assert code == 0
    env = json.loads(out)
    assert env["verdicts"]["all_pass"]
    assert env["payload"]["results"][0]["criterion"] == 3


def test_accept_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        run_cli(["--json", "accept", "--suite", "bogus"])


def test_human_mode_prints_verdict_lines():
    code, out = run_cli(["condition-star", "--parent-gram", "[[4,0],[0,4]]", "--child-gram", "[[36,0],[0,4]]"])
    assert code == 0
    assert "satisfied: True" in out


def test_alternate_flag_spellings_share_digests():
    # the same mathematical inputs must digest identically however spelled
    a = run_cli(["--json", "standard-lattice", "--tag", "N"])[1]
    b = run_cli(["standard-lattice", "--name", "N", "--json"])[1]
    assert a == b
    a = run_cli(["--json", "class-group", "--disc", "-23"])[1]
    b = run_cli(["--json", "class-group", "-D", "-23"])[1]
    assert a == b
    a = run_cli(["--json", "epsilon", "--vector", "[1,0,0,0,0,0,0,0,0,0,0,0]"])[1]
    b = run_cli(["--json", "epsilon", "--vector", "1,0,0,0,0,0,0,0,0,0,0,0"])[1]
    assert a == b
    a = run_cli(["--json", "theorem-c", "--gram", "[[2,1],[1,10]]"])[1]
    b = run_cli(["--json", "theorem-c", "--gram", "2,1;1,10"])[1]
    assert a == b
    a = run_cli(["--json", "nikulin-exists", "--signature", "[0,10]", "--gram", "[[-2]]"])[1]
    b = run_cli(["--json", "nikulin-exists", "--sig", "0,10", "--gram", "[[-2]]"])[1]
    assert a == b


def test_file_based_input_spellings(tmp_path):
    lat = tmp_path / "lat.json"
    lat.write_text('{"gram": [[4,0],[0,4]]}')
    rows = tmp_path / "rows.json"
    rows.write_text("[[3,0],[0,1]]")
    code, out = run_cli(["--json", "roots", "--gram-file", str(lat), "--norm", "4"])
    assert code == 0
    assert json.loads(out)["payload"]["count"] == 4
    code, out = run_cli(["--json", "sublattice", "--p", "3", "--lattice", str(lat)])
    assert code == 0
    assert json.loads(out)["payload"]["gram"] == [[36, 0], [0, 4]]
    code, out = run_cli(
        ["--json", "condition-star", "--lattice", str(lat), "--sublattice", str(rows)]
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["satisfied"]


def test_verify_embedding_positional_file(tmp_path):
    code, out = run_cli(
        ["--json", "theorem-a", "--rho", "20", "--params", "2,1,3", "--label", "1,1"]
    )
    emb = tmp_path / "emb.json"
    emb.write_text(json.dumps(json.loads(out)["payload"]))
    code, out = run_cli(["--json", "verify-embedding", str(emb)])
    assert code == 0
    assert json.loads(out)["verdicts"]["valid"]


def test_accept_positional_suite_name():
    code, out = run_cli(["--json", "accept", "theorem-c"])
    assert code == 0
    env = json.loads(out)
    assert [r["criterion"] for r in env["payload"]["results"]] == [11]


def test_seed_flag_only_tags_the_digest():
    plain = run_cli(["--json", "epsilon", "--vector", "1,0,0,0,0,0,0,0,0,0,0,0"])[1]
    tagged = run_cli(["--json", "--seed", "9", "epsilon", "--vector", "1,0,0,0,0,0,0,0,0,0,0,0"])[1]
    trailing = run_cli(["--json", "epsilon", "--vector", "1,0,0,0,0,0,0,0,0,0,0,0", "--seed", "9"])[1]
    assert tagged == trailing
    assert json.loads(plain)["payload"] == json.loads(tagged)["payload"]
    assert json.loads(plain)["inputs_digest"] != json.loads(tagged)["inputs_digest"]


GOLDEN = Path(__file__).parent / "golden"


def golden_envelopes(tmp_path):
    """The --json stdout of each golden command, keyed by golden file stem.

    The transfer chain starts from golden/datum_4_4.json and feeds each
    step's datum to the next, so one changed byte shows up downstream too.
    """
    parent, child, basis = "[[4,0],[0,4]]", "[[36,0],[0,4]]", "[[3,0],[0,1]]"
    form = tmp_path / "form.json"
    form.write_text(json.dumps(
        {"invariant_factors": [9, 3], "q": [[[2, 9], [1, 3]], [[1, 3], [4, 3]]]}
    ))
    out = {}
    out["nikulin_exists_true"] = run_cli(
        ["--json", "nikulin-exists", "--signature", "[2,0]", "--gram", parent])[1]
    out["nikulin_exists_false"] = run_cli(
        ["--json", "nikulin-exists", "--signature", "[0,2]", "--fqf-file", str(form)])[1]
    # one envelope per block type the existence test meets: a 'u', two 'v'
    # (one gram, one form file), two 'q' with no scale-2 unit block, and an
    # odd-p Jordan splitting
    d4_4 = "[[2,-1,0,0,0],[-1,2,-1,-1,0],[0,-1,2,0,0],[0,-1,0,2,0],[0,0,0,0,4]]"
    forms = {
        "v_q34": {"invariant_factors": [2, 2, 4],
                  "q": [[[1, 1], [1, 2], [0, 1]], [[1, 2], [1, 1], [0, 1]],
                        [[0, 1], [0, 1], [3, 4]]]},
        "q14_q54": {"invariant_factors": [4, 4],
                    "q": [[[1, 4], [0, 1]], [[0, 1], [5, 4]]]},
    }
    for name, obj in forms.items():
        (tmp_path / (name + ".json")).write_text(json.dumps(obj))
    exists = {
        "nikulin_exists_u": ("--gram", "[[0,2],[2,0]]", "[1,1]"),
        "nikulin_exists_v": ("--gram", d4_4, "[0,3]"),
        "nikulin_exists_v_file": ("--fqf-file", str(tmp_path / "v_q34.json"), "[1,2]"),
        "nikulin_exists_q": ("--gram", "[[4]]", "[1,0]"),
        "nikulin_exists_q_false": ("--fqf-file", str(tmp_path / "q14_q54.json"), "[0,2]"),
        "nikulin_exists_odd": ("--gram", "[[6,0],[0,6]]", "[2,0]"),
    }
    for stem, (flag, value, sig) in exists.items():
        out[stem] = run_cli(["--json", "nikulin-exists", "--signature", sig, flag, value])[1]
    out["epsilon"] = run_cli(["--json", "epsilon", "--vector", "[1,1,0,0,0,0,0,0,0,0,0,0]"])[1]
    out["condition_star"] = run_cli(
        ["--json", "condition-star", "--parent-gram", parent, "--child-gram", child])[1]
    out["sublattice_p3"] = run_cli(["--json", "sublattice", "--p", "3", "--gram", parent])[1]
    transfer = ["--json", "transfer", "--parent-gram", parent, "--child-gram", child,
                "--child-basis", basis, "--datum-file"]
    out["transfer_down"] = run_cli(
        transfer + [str(GOLDEN / "datum_4_4.json"), "--direction", "down"])[1]
    child_datum = tmp_path / "child.json"
    child_datum.write_text(json.dumps(json.loads(out["transfer_down"])["payload"]["datum"]))
    out["transfer_up"] = run_cli(transfer + [str(child_datum), "--direction", "up"])[1]
    out["verify_datum"] = run_cli(
        ["--json", "verify-datum", "--gram", child, "--datum-file", str(child_datum)])[1]
    e8 = json.dumps(standard_lattice("E8").gram, separators=(",", ":"))
    e82 = json.dumps(standard_lattice("E82").gram, separators=(",", ":"))
    roots = {
        "roots_e8_m2": [e8, "--norm", "-2"],
        "roots_e82_m4": [e82, "--norm", "-4"],
        "roots_a2_2": ["[[2,1],[1,2]]", "--norm", "2"],
        "roots_e8_cap": [e8, "--norm", "-4", "--cap", "100"],
    }
    for stem, args in roots.items():
        out[stem] = run_cli(["--json", "roots", "--gram"] + args)[1]
    # rho 17-19 draw their E8(2) vectors from vectors_of_norm, so these pin
    # the order the tuple search consumes
    theorem_a = {
        "theorem_a_20": ("20", "[2,1,3]", "[1,1]"),
        "theorem_a_19": ("19", "[-2,9,-5,-3,9,-1]", "[1,0,0]"),
        "theorem_a_18": ("18", "[-2,9,-3]", "[1,1,1,1]"),
        "theorem_a_17_m1": ("17", "[1]", "[1,0,0,0,0]"),
        "theorem_a_17_m2": ("17", "[2]", "[1,1,0,0,1]"),
        "theorem_a_17_m3": ("17", "[3]", "[1,1,1,1,1]"),
    }
    theorem_a["theorem_a_20_01"] = ("20", "[2,1,3]", "[0,1]")
    for stem, (rho, params, label) in theorem_a.items():
        out[stem] = run_cli(
            ["--json", "theorem-a", "--rho", rho, "--params", params, "--label", label])[1]
    embeddings = {
        "verify_embedding_valid": (
            [[4, 0], [0, 4]], [[1, 2] + [0] * 10, [1, -2, 1, 2] + [0] * 8]),
        "verify_embedding_not_primitive": ([[16]], [[2, 4] + [0] * 10]),
    }
    for stem, (gram, images) in embeddings.items():
        path = tmp_path / (stem + ".json")
        path.write_text(json.dumps({"source_gram": gram, "images": images}))
        out[stem] = run_cli(["--json", "verify-embedding", str(path)])[1]
    out["brauer_image_20"] = run_cli(
        ["--json", "brauer-image", "--rho", "20", "--params", "[2,1,3]"])[1]
    out["brauer_image_18"] = run_cli(
        ["--json", "brauer-image", "--rho", "18", "--params", "[-2,9,-3]"])[1]
    out["im_phi_bound"] = run_cli(["--json", "im-phi-bound", "--gram", "[[2,1],[1,4]]"])[1]
    out["standard_lattice_n"] = run_cli(["--json", "standard-lattice", "--tag", "N"])[1]
    out["class_group"] = run_cli(["--json", "class-group", "--disc", "-56"])[1]
    out["theorem_c"] = run_cli(["--json", "theorem-c", "--gram", "[[2,1],[1,10]]"])[1]
    return out


# find_embedding_datum on the chain's start and on one det-12 and one det-28
# class of the gluing benchmark
GOLDEN_DATA = {
    "datum_4_4": [[4, 0], [0, 4]],
    "datum_4_2_4": [[4, 2], [2, 4]],
    "datum_4_2_8": [[4, 2], [2, 8]],
}


def test_golden_envelopes_are_byte_identical(tmp_path):
    for stem, gram in GOLDEN_DATA.items():
        datum = find_embedding_datum(Lattice(gram))
        want = (GOLDEN / (stem + ".json")).read_text()
        assert canonical_json(datum_to_json(datum)) + "\n" == want, stem
    for stem, text in golden_envelopes(tmp_path).items():
        assert text == (GOLDEN / (stem + ".json")).read_text(), stem
