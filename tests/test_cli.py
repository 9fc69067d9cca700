"""End-to-end command-line behaviour."""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stellite import cli
from stellite.axiomatic import Action, EnumConfig, Execution, valid
from stellite.cut import cut
from stellite.cli import (
    execution_from_json,
    execution_to_json,
    main,
    parse_context_file,
)
from stellite.lang import ParseError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_verify_verified_transformation_exits_zero(capsys):
    rc = main(["verify", str(CORPUS / "fence_intro.tr")])
    out = capsys.readouterr().out
    assert rc == 0 and "Verified" in out


def test_verify_refuted_transformation_exits_one(capsys):
    rc = main(["verify", str(CORPUS / "load_to_local_intro.tr")])
    out = capsys.readouterr().out
    assert rc == 1 and "Refuted" in out


def test_verify_json_report_is_deterministic_and_witness_is_valid(
    tmp_path, capsys
):
    reports = []
    for i in range(2):
        f = tmp_path / f"r{i}.json"
        rc = main(
            [
                "verify",
                str(CORPUS / "load_to_local_intro.tr"),
                "--json",
                str(f),
            ]
        )
        assert rc == 1
        reports.append(json.loads(f.read_text()))
    for r in reports:
        r.pop("seconds")
    assert reports[0] == reports[1]
    w = reports[0]["witness"]
    X = execution_from_json(w["execution"])
    assert valid(X)
    assert cut(X)
    capsys.readouterr()


def test_verify_rejects_nonatomic_blocks(capsys):
    rc = main(["verify", str(CORPUS / "na_load_reorder.tr")])
    captured = capsys.readouterr()
    assert rc == 3
    assert "(instance)" in captured.err
    assert "Traceback" not in captured.err


def test_verify_emits_a_dot_witness(tmp_path, capsys):
    rc = main(
        [
            "verify",
            str(CORPUS / "load_to_local_intro.tr"),
            "--dot",
            str(tmp_path / "dot"),
        ]
    )
    assert rc == 1
    dot = (tmp_path / "dot" / "witness.dot").read_text()
    assert dot.startswith("digraph") and "->" in dot
    capsys.readouterr()


def test_simulate_allows_and_forbids_outcomes(capsys):
    rc = main(["simulate", str(CORPUS / "sb.lit")])
    out = capsys.readouterr().out
    assert rc == 0 and "v1=0 v2=0" in out
    # no non-atomic access, so no race to report
    assert "safety" not in out

    rc = main(["simulate", str(CORPUS / "sb.lit"), "--forbid", "v1=0,v2=0"])
    assert rc == 1
    capsys.readouterr()

    rc = main(["simulate", str(CORPUS / "mp.lit"), "--forbid", "b=1,r=0"])
    out = capsys.readouterr().out
    assert rc == 0 and "absent" in out


def test_simulate_reports_a_truncated_enumeration_as_unknown(
        monkeypatch, tmp_path, capsys):
    # sb.lit allows v1=1 v2=1, but not within its first execution
    monkeypatch.setattr(cli, "EnumConfig",
                        functools.partial(EnumConfig, limit=1))
    f = tmp_path / "s.json"
    rc = main(["simulate", str(CORPUS / "sb.lit"), "--forbid", "v1=1,v2=1",
               "--json", str(f)])
    out = capsys.readouterr().out
    assert rc == 2 and "truncated" in out and "absent" not in out
    assert json.loads(f.read_text())["truncated"] is True


def test_simulate_nonatomic_mode_reports_safety(capsys):
    rc = main(["simulate", str(CORPUS / "na_race_before.lit")])
    out = capsys.readouterr().out
    assert rc == 0 and "2 valid executions" in out
    assert "safety: UNSAFE (racy)" in out


def test_instance_subcommand_accepts_the_single_load_context(capsys):
    rc = main(
        [
            "instance",
            str(CORPUS / "store_collapse_wide.tr"),
            "--context",
            str(CORPUS / "single_load.ctx"),
            "--values",
            "12",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0 and "holds" in out


def test_instance_subcommand_nonatomic_reorder(capsys):
    rc = main(
        [
            "instance",
            str(CORPUS / "na_load_reorder.tr"),
            "--context",
            str(CORPUS / "na_reorder.ctx"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0 and "holds" in out


@pytest.mark.parametrize("tr", ["load_to_local_elim.tr",
                                "load_to_local_intro.tr"])
def test_instance_fails_where_the_new_block_has_an_unmatched_execution(
        tr, capsys):
    # forced_read.ctx stores x = 2 before the call, so the block's load of
    # x never reads 0 and l := ld(x) ends with an l that skip never has
    rc = main(["instance", str(CORPUS / tr),
               "--context", str(CORPUS / "forced_read.ctx")])
    assert (rc, capsys.readouterr().out) == (1, "fails\n")


@pytest.mark.parametrize("duplicate", ["w1", "w2"])
def test_instance_rejects_a_duplicate_context_label(duplicate, tmp_path,
                                                    capsys):
    ctx = tmp_path / "dup.ctx"
    ctx.write_text(f"ctx: w1 = st(x, 1)\nctx: {duplicate} = st(x, 0)\n")
    rc = main(["instance", str(CORPUS / "load_intro.tr"),
               "--context", str(ctx)])
    captured = capsys.readouterr()
    if duplicate == "w2":
        assert (rc, captured.out) == (0, "holds\n")
    else:
        assert (rc, captured.out) == (3, "")
        assert captured.err == ("error: context action id 'w1' is used"
                                " twice\n")


@pytest.mark.parametrize("tr,ctx,rc,out", [
    # stna(x, 1) in the context, ld(x) in the block
    ("load_intro.tr", "na_reorder.ctx", 3, ""),
    # the context writes f, which neither block touches
    ("load_intro.tr", "forced_read.ctx", 0, "holds\n"),
    ("na_load_reorder.tr", "na_reorder.ctx", 0, "holds\n"),
    ("na_load_reorder.tr", "forced_read.ctx", 3, ""),
])
def test_instance_applies_the_atomicity_rule_to_the_context(tr, ctx, rc,
                                                            out, capsys):
    got = main(["instance", str(CORPUS / tr),
                "--context", str(CORPUS / ctx)])
    captured = capsys.readouterr()
    assert (got, captured.out) == (rc, out)
    if rc == 3:
        assert captured.err == ("error: global 'x' used both atomically"
                                " and non-atomically\n")


@pytest.mark.parametrize("edge", ["call -> b", "b -> ret"])
def test_instance_rejects_an_s_pair_that_is_not_two_context_actions(
        edge, tmp_path, capsys):
    # parse_context_file accepts the boundary labels as edge endpoints;
    # only R may use them
    ctx = tmp_path / "s.ctx"
    ctx.write_text(f"ctx: b = SC(x, 1)\nS: {edge}\n")
    assert main(["instance", str(CORPUS / "load_intro.tr"),
                 "--context", str(ctx)]) == 3
    u, v = edge.split(" -> ")
    assert capsys.readouterr().err == (
        f"error: S pair ({u},{v}) must join two context actions\n")


@pytest.mark.parametrize("tr", ["load_to_local_intro.tr", "writeback_elim.tr",
                                "store_dup.tr"])
@pytest.mark.parametrize("lines,edge", [
    ("R: a -> a", "(a,a)"),
    ("ctx: b = st(x, 0)\nR: a -> b\nR: b -> a", "(b,a)"),
    ("R: a -> call\nR: ret -> a", "(ret,a)"),
    ("ctx: l = LL(x, 0)\nctx: s = SC(x, 1)\nS: l -> s\nR: s -> l", "(s,l)"),
], ids=["self-loop", "two-cycle", "through-call-and-ret", "against-S"])
def test_instance_rejects_a_cyclic_context_relation(tr, lines, edge,
                                                    tmp_path, capsys):
    # under a cyclic R no execution of either block is valid, so even a
    # refuted transformation would hold
    ctx = tmp_path / "cyclic.ctx"
    ctx.write_text(f"ctx: a = st(x, 1)\n{lines}\n")
    assert main(["instance", str(CORPUS / tr), "--context", str(ctx)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: R edge {edge} closes a cycle" in captured.err


def test_adversary_subcommand_round_trips_a_witness(tmp_path, capsys):
    from oracles import single_load_instance_execs

    [X] = single_load_instance_execs()
    execfile = tmp_path / "exec.json"
    execfile.write_text(json.dumps(execution_to_json(X)))
    blockfile = tmp_path / "block.txt"
    blockfile.write_text("st(x,11)")
    rc = main(
        ["adversary", str(execfile), "--block", str(blockfile), "--check"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "{-}" in out and "reproduction: ok" in out


def test_execution_json_round_trip():
    from oracles import forced_read_instance_execs

    for X in forced_read_instance_execs():
        Y = execution_from_json(json.loads(json.dumps(execution_to_json(X))))
        assert Y == X


def test_execution_json_reports_safety_only_with_nonatomic_actions():
    from oracles import forced_read_instance_execs

    X = forced_read_instance_execs()[0]
    d = execution_to_json(X)
    assert "mode" not in d and d["safe"] is None
    # a witness file that still names a mode loads as before
    assert execution_from_json(dict(d, mode="NA")) == X
    racy = Execution((Action("w", "store_NA", "x", (1,), "code"),
                      Action("r", "load_NA", "x", (0,), "code")),
                     *[frozenset()] * 5)
    assert execution_to_json(racy)["safe"] is False


def test_context_file_parsing_and_errors():
    ctx = parse_context_file(
        "# comment\nctx: w = st(x, 1)\nctx: ld(x, 0)\nR: w -> call\n"
    )
    assert [a.aid for a in ctx.actions] == ["w", "a2"]
    assert ("w", "call") in ctx.R
    with pytest.raises(ParseError):
        parse_context_file("ctx: bogus(x)")
    with pytest.raises(ParseError):
        parse_context_file("ctx: st(x, 1)\nR: a1 -> nowhere")
    with pytest.raises(ParseError):
        parse_context_file("what: st(x, 1)")


def test_input_errors_exit_three(tmp_path, capsys):
    rc = main(["verify", str(tmp_path / "missing.tr")])
    assert rc == 3
    bad = tmp_path / "bad.ctx"
    bad.write_text("ctx: bogus(")
    rc = main(
        [
            "instance",
            str(CORPUS / "store_collapse_wide.tr"),
            "--context",
            str(bad),
        ]
    )
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize("label", ["call", "ret"])
def test_a_context_label_of_the_block_boundary_is_named_reserved(label):
    with pytest.raises(ParseError, match=f"label {label!r} is reserved for"
                                         " the block boundary"):
        parse_context_file(f"ctx: {label} = st(x, 1)\n")


@pytest.mark.parametrize("argv", [
    lambda d: ["verify", str(d)],
    lambda d: ["simulate", str(d)],
    lambda d: ["instance", str(CORPUS / "load_dup.tr"), "--context", str(d)],
    lambda d: ["verify", str(CORPUS / "load_to_local_intro.tr"),
               "--json", str(d)],
    lambda d: ["verify", str(CORPUS / "load_to_local_intro.tr"),
               "--dot", str(d / "file")],
    lambda d: ["verify", str(CORPUS / "load_dup.tr"), "--values", "3",
               "--json", str(d)],
    lambda d: ["verify", str(CORPUS / "load_dup.tr"),
               "--json", str(d / "missing" / "r.json")],
    lambda d: ["verify", str(CORPUS / "load_to_local_intro.tr"),
               "--dot", str(d / "file" / "out")],
    lambda d: ["simulate", str(CORPUS / "sb.lit"), "--json", str(d)],
], ids=["verify a directory", "simulate a directory",
        "context a directory", "json into a directory", "dot into a file",
        "verified json into a directory", "json into a missing directory",
        "dot under a file", "simulate json into a directory"])
def test_a_path_that_cannot_be_read_or_written_exits_three(argv, tmp_path,
                                                          capsys):
    # outputs are checked before the check runs, so no verdict is printed
    (tmp_path / "file").write_text("")
    assert main(argv(tmp_path)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_dot_directory_is_made_only_for_a_witness(tmp_path, capsys):
    out = tmp_path / "new" / "dot"
    assert main(["verify", str(CORPUS / "load_dup.tr"),
                 "--dot", str(out)]) == 0
    assert not (tmp_path / "new").exists()
    assert main(["verify", str(CORPUS / "load_to_local_intro.tr"),
                 "--dot", str(out)]) == 1
    assert (out / "witness.dot").exists()
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["v1", "v1=0,v2", "v1=0,=1", "v1=a"])
def test_a_malformed_forbid_spec_exits_three_before_enumerating(spec,
                                                                capsys):
    assert main(["simulate", str(CORPUS / "sb.lit"), "--forbid", spec]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = next(p for p in spec.split(",") if not p.startswith("v1=0"))
    assert f"error: --forbid item {bad!r} is not local=value" in captured.err


@pytest.mark.parametrize("spec", ["", " "])
def test_an_empty_forbid_spec_exits_three(spec, capsys):
    # an empty spec names no outcome, so it could be neither admitted nor
    # absent
    assert main(["simulate", str(CORPUS / "sb.lit"), "--forbid", spec]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --forbid {spec!r} is empty; give l=v,...\n"


def test_a_forbid_local_that_no_thread_has_exits_three(capsys):
    # sb.lit's locals are v1 and v2, so a=0 could never be admitted
    assert main(["simulate", str(CORPUS / "sb.lit"),
                 "--forbid", "v1=0,a=0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --forbid names 'a', a local no thread has\n"


@pytest.mark.parametrize("label, rc, out", [("q", 0, "holds\n"),
                                              ("b0", 3, "")])
def test_instance_rejects_a_context_label_that_is_a_block_action_id(
        tmp_path, capsys, label, rc, out):
    # load_dup's actions are b0, b1, ...: a context store labelled b0
    # would otherwise be merged with the block's first load
    ctx = tmp_path / "st.ctx"
    ctx.write_text(f"ctx: {label} = st(x, 1)\n")
    assert main(["instance", str(CORPUS / "load_dup.tr"),
                 "--context", str(ctx)]) == rc
    captured = capsys.readouterr()
    assert captured.out == out
    assert ("'b0' is the id of a block action" in captured.err) == (rc == 3)


@pytest.mark.parametrize("text", ["a := LL(x); b := SC(x, 2); c := ld(x)",
                                  "if (1) { st(x,1) }",
                                  "if (;) { st(x,1) }"])
def test_a_literal_sc_source_or_if_condition_exits_three(tmp_path, capsys,
                                                         text):
    lit = tmp_path / "p.lit"
    lit.write_text(text)
    assert main(["simulate", str(lit)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: expected local at" in captured.err


def test_version_flag(capsys):
    rc = main(["--version"])
    out = capsys.readouterr().out
    assert rc == 0 and "0.1.0" in out


def test_verify_max_execs_caps_a_block_to_unknown(capsys):
    rc = main(["verify", str(CORPUS / "load_dup.tr"), "--max-execs", "5"])
    out = capsys.readouterr().out
    assert rc == 2 and "Unknown" in out


@pytest.mark.parametrize("argv", [
    ["--seed", "1", "simulate", str(CORPUS / "sb.lit")],
    ["simulate", str(CORPUS / "sb.lit"), "--observable", "x"],
    # lowering the derived context caps made a refuted row Verified
    ["verify", str(CORPUS / "writeback_elim.tr"), "--budget", "total=0"],
    ["verify", str(CORPUS / "load_to_local_intro.tr"), "--explain-cut"],
    # the non-atomic rules follow from the accesses
    ["simulate", str(CORPUS / "na_race_before.lit"), "--na"],
    ["instance", str(CORPUS / "na_load_reorder.tr"), "--context",
     str(CORPUS / "na_reorder.ctx"), "--na"],
])
def test_removed_flags_are_input_errors(argv, capsys):
    assert main(argv) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# bad input: every entry point exits with 0-3 and raises nothing


def _witness_json():
    from oracles import single_load_instance_execs

    return json.dumps(execution_to_json(single_load_instance_execs()[0]))


def _node(d, aid):
    return next(n for n in d["nodes"] if n["id"] == aid)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["edges"]["hb"].append(["nowhere", "a1"]), "not a node"),
    (lambda d: _node(d, "call").update(kind="bogus"), "bogus"),
    # the context read a1 reads 11 from the code store b0
    (lambda d: _node(d, "a1").update(values=[12]), "RFWF"),
    (lambda d: _node(d, "b0").update(var=["x"]), "node 'b0' has var"),
    (lambda d: _node(d, "b0").update(values=[[11]]), "node 'b0' has var"),
    (lambda d: d["nodes"].append(dict(_node(d, "b0"))),
     "node 'b0' is defined twice"),
], ids=["undefined endpoint", "bogus kind", "rf between different values",
        "list var", "list value", "duplicate id"])
def test_adversary_rejects_a_malformed_execution(mutate, message, tmp_path,
                                                 capsys):
    d = json.loads(_witness_json())
    mutate(d)
    execfile = tmp_path / "exec.json"
    execfile.write_text(json.dumps(d))
    blockfile = tmp_path / "block.txt"
    blockfile.write_text("st(x,11)")
    rc = main(
        ["adversary", str(execfile), "--block", str(blockfile), "--check"]
    )
    err = capsys.readouterr().err
    assert rc == 3 and message in err and "Traceback" not in err


@pytest.mark.parametrize("mutate, message", [
    (lambda d: None, None),
    (lambda d: _node(d, "call").update(values=[]),
     "node 'call' has values [] for locals ['l']"),
    (lambda d: d["locals"].append("m"),
     "node 'call' has values [0] for locals ['l', 'm']"),
    (lambda d: d.update(locals=["l", "l"]), "are not distinct names"),
    (lambda d: d.update(locals=[0]), "are not distinct names"),
    (lambda d: d.update(locals="l"), "are not distinct names"),
], ids=["as reported", "call without values", "one more local",
        "duplicate local", "integer local", "string of locals"])
def test_adversary_rejects_boundary_values_that_miss_the_locals(
        mutate, message, tmp_path, capsys):
    # zipping the locals with call's or ret's values once dropped the
    # unmatched ones, and the check reproduced the execution
    report = tmp_path / "report.json"
    assert main(["verify", str(CORPUS / "writeback_intro.tr"),
                 "--json", str(report)]) == 1
    d = json.loads(report.read_text())["witness"]["execution"]
    mutate(d)
    execfile = tmp_path / "exec.json"
    execfile.write_text(json.dumps(d))
    blockfile = tmp_path / "block.txt"
    blockfile.write_text("l := ld(x); st(x,l)")
    capsys.readouterr()
    rc = main(
        ["adversary", str(execfile), "--block", str(blockfile), "--check"]
    )
    captured = capsys.readouterr()
    if message is None:
        assert rc == 0 and "reproduction: ok" in captured.out
    else:
        assert rc == 3 and message in captured.err
        assert "Traceback" not in captured.err


# per subcommand, the valid contents of its input files in argument order
_VALID = {
    "verify": [(CORPUS / "load_to_local_intro.tr").read_text()],
    "simulate": [(CORPUS / "sb.lit").read_text()],
    "instance": [(CORPUS / "store_collapse_wide.tr").read_text(),
                 (CORPUS / "single_load.ctx").read_text()],
    "adversary": [_witness_json(), "st(x,11)"],
}

# the characters of every input language, so that random text gets past
# the first token now and then
_TEXT = st.text(alphabet=sorted(set(
    "".join(t for ts in _VALID.values() for t in ts) + "~>|{}#\n\x00\xff"
)), max_size=30)


# JSON values to put in a node field
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 12)
    | st.text(alphabet="abxy01", max_size=3),
    lambda inner: st.lists(inner, max_size=2), max_leaves=3)


@st.composite
def _mutated_execution(draw):
    """The valid execution file with one field of one node replaced, or
    one node repeated."""
    d = json.loads(_VALID["adversary"][0])
    node = draw(st.sampled_from(d["nodes"]))
    if draw(st.booleans()):
        d["nodes"].append(dict(node))
    else:
        node[draw(st.sampled_from(sorted(node)))] = draw(_JSON)
    return json.dumps(d)


# the least value of each integer flag; an empty value domain leaves
# loads no value to read
_FLOORS = {"--values": 1, "--max-execs": 0}


@st.composite
def _bad_inputs(draw):
    """A subcommand, its input files with one of them replaced by random
    text, cut short or, for an execution file, with a node changed, and
    its integer flags, at times below their floor."""
    cmd = draw(st.sampled_from(sorted(_VALID)))
    files = list(_VALID[cmd])
    i = draw(st.integers(0, len(files) - 1))
    how = draw(st.sampled_from(
        ["text", "cut", "node"] if cmd == "adversary" and i == 0
        else ["text", "cut"]))
    if how == "text":
        files[i] = draw(_TEXT)
    elif how == "cut":
        files[i] = files[i][:draw(st.integers(0, len(files[i])))]
    else:
        files[i] = draw(_mutated_execution())
    flags = {}
    if cmd != "adversary":
        flags["--values"] = draw(st.integers(-1, 2))
    if cmd == "verify":
        # a cap keeps random blocks with many accesses quick
        flags["--max-execs"] = draw(st.integers(-1, 1000))
    return cmd, files, flags


def _argv(cmd, paths):
    if cmd == "verify":
        return ["verify", paths[0]]
    if cmd == "simulate":
        return ["simulate", paths[0]]
    if cmd == "instance":
        return ["instance", paths[0], "--context", paths[1]]
    return ["adversary", paths[0], "--block", paths[1], "--check"]


@settings(max_examples=60, deadline=None)
@given(_bad_inputs())
# JSON that is not an object once raised TypeError
@example(("adversary", ["0", "st(x,11)"], {}))
# an empty value domain: verify said Verified on writeback_elim.tr,
# instance said "holds" and simulate allowed only v1=1 v2=1 on sb.lit
@example(("verify", [(CORPUS / "writeback_elim.tr").read_text()],
          {"--values": 0}))
@example(("instance", _VALID["instance"], {"--values": 0}))
@example(("simulate", _VALID["simulate"], {"--values": 0}))
@example(("verify", _VALID["verify"], {"--max-execs": -1}))
def test_bad_input_exits_with_a_code_and_no_traceback(case):
    cmd, texts, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = Path(tmp) / f"in{i}"
            path.write_text(text, encoding="utf-8", errors="surrogateescape")
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(_argv(cmd, paths)
                      + [a for f, n in flags.items() for a in (f, str(n))])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if any(n < _FLOORS[f] for f, n in flags.items()):
        assert rc == 3


def test_verify_json_reports_rf_classes_and_deny_masks(tmp_path, capsys):
    f = tmp_path / "r.json"
    assert main(["verify", str(CORPUS / "load_dup.tr"), "--json",
                 str(f)]) == 0
    stats = json.loads(f.read_text())["stats"]
    assert stats["x2_classes"] > 0 and 0 < stats["x2_denies"] <= stats["x2"]
    # 22 skeletons cover the 147 canonical survivors and 91 rf classes
    assert 0 < stats["skeletons"] < stats["x2_classes"]
    capsys.readouterr()


@pytest.mark.parametrize("values,skipped", [(2, False), (3, True)])
def test_verify_reports_the_pairs_skipped_as_renamed_images(
        values, skipped, tmp_path, capsys):
    # at V=2 load_dup has one free value, 1, and nothing to rename it to
    f = tmp_path / "r.json"
    assert main(["verify", str(CORPUS / "load_dup.tr"), "--values",
                 str(values), "--json", str(f)]) == 0
    symmetric = json.loads(f.read_text())["stats"]["symmetric"]
    assert (symmetric > 0) == skipped
    assert f" symmetric={symmetric} " in capsys.readouterr().out


def test_verify_reports_the_pairs_skipped_without_room(tmp_path, capsys):
    # store_collapse's new block is one store and no load, so a context
    # with three stores, or with a load of a value the store does not
    # write, leaves it no cut survivor
    f = tmp_path / "r.json"
    assert main(["verify", str(CORPUS / "store_collapse.tr"), "--values",
                 "3", "--json", str(f)]) == 0
    stats = json.loads(f.read_text())["stats"]
    assert stats["unfit"] > 0
    assert f"contexts={stats['contexts']} unfit={stats['unfit']} " in (
        capsys.readouterr().out)


def test_verify_reports_the_survivors_checked_one_per_orbit(tmp_path,
                                                             capsys):
    # load_dup's contexts repeat equal loads and stores: 1,237 survivors
    # fall into 147 orbits of their permutations
    f = tmp_path / "r.json"
    assert main(["verify", str(CORPUS / "load_dup.tr"), "--json",
                 str(f)]) == 0
    stats = json.loads(f.read_text())["stats"]
    assert (stats["x1_cut"], stats["x1_orbits"]) == (1237, 147)
    assert " cut=1237 orbits=147 " in capsys.readouterr().out
