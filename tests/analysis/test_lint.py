"""The pcsan lint pass: every rule fires on its fixture, suppressions
silence them, and the repo itself is PC-rule-clean."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import iter_rules, run_lint
from repro.analysis.lint import format_json, format_text, lint_source

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def codes_in(path, select=None):
    return [f.code for f in run_lint([path], select=select)]


# -- each rule fires on its fixture ------------------------------------------


def test_pc001_fires_on_every_escape_pattern():
    findings = run_lint([fixture("pc001_handle_escape.py")])
    assert [f.code for f in findings] == ["PC001"] * 4
    messages = " ".join(f.message for f in findings)
    assert "instance state" in messages
    assert "module level" in messages
    assert "returned from inside" in messages


def test_pc002_fires_on_subscript_write_and_alias():
    findings = run_lint([fixture("pc002_raw_buf.py")])
    assert [f.code for f in findings] == ["PC002"] * 7
    messages = " ".join(f.message for f in findings)
    assert "getattr()" in messages  # the getattr(block, "buf") dodge
    assert "alias" in messages  # subscripts through unpacked aliases


def test_pc003_fires_only_on_impure_lambdas():
    findings = run_lint([fixture("pc003_impure_lambda.py")])
    assert [f.code for f in findings] == ["PC003"] * 3
    reasons = " ".join(f.message for f in findings)
    assert "print" in reasons
    assert "random" in reasons
    assert "seen" in reasons  # the mutated closure name


def test_pc004_fires_only_on_mirrorless_family_counter():
    findings = run_lint([fixture("pc004_counter_no_trace.py")])
    assert len(findings) == 1
    assert findings[0].code == "PC004"
    assert "pc_pool_probe_hits_total" in findings[0].message


def test_pc005_fires_on_swallowing_excepts_only():
    findings = run_lint([fixture("cluster", "pc005_swallow.py")])
    assert [f.code for f in findings] == ["PC005"] * 3


def test_pc006_fires_in_kernel_scopes_only():
    findings = run_lint([fixture("pc006_kernel_deref.py")])
    assert [f.code for f in findings] == ["PC006"] * 2
    messages = " ".join(f.message for f in findings)
    assert "deref" in messages and "facade" in messages


def test_pc006_covers_the_kernel_library_module():
    source = "def apply_kernel(batch):\n    return batch.deref()\n"
    assert [
        f.code for f in lint_source(source, "repro/engine/kernels.py")
    ] == ["PC006"]
    assert lint_source(source, "repro/engine/pipeline.py") == []


def test_pc005_is_scoped_to_cluster_paths():
    source = "try:\n    ping()\nexcept ValueError:\n    pass\n"
    assert lint_source(source, "repro/cluster/foo.py") != []
    assert lint_source(source, "repro/engine/foo.py") == []


# -- suppressions -------------------------------------------------------------


def test_suppression_comment_silences_each_rule():
    assert run_lint([fixture("cluster", "suppressed.py")]) == []


def test_suppression_honors_multiline_statement_span():
    # The comment sits on a continuation line, not the line the finding
    # anchors at — the full lineno..end_lineno span must be honored.
    source = (
        "def peek(block):\n"
        "    return getattr(\n"
        "        block,\n"
        '        "buf",  # pcsan: disable=PC002\n'
        "    )\n"
    )
    assert lint_source(source, "repro/engine/foo.py") == []


def test_suppression_on_multiline_lambda():
    # PC003 anchors at the lambda, which itself wraps onto the next
    # line — the comment on the continuation line must count.
    source = (
        "def mk(arg):\n"
        "    return lambda_from_native(\n"
        "        [arg],\n"
        "        lambda v:\n"
        "            print(v),  # pcsan: disable=PC003\n"
        "    )\n"
    )
    assert lint_source(source, "repro/core/foo.py") == []


def test_span_of_includes_decorator_lines():
    import ast

    from repro.analysis.lint import span_of

    tree = ast.parse("@deco(\n    1,\n)\ndef f():\n    pass\n")
    assert span_of(tree.body[0]) == (1, 5)


def test_unrelated_suppression_does_not_silence():
    source = "x = block.buf[0]  # pcsan: disable=PC001\n"
    findings = lint_source(source, "repro/engine/foo.py")
    assert [f.code for f in findings] == ["PC002"]


# -- the fixture tree as a whole, and the repo -------------------------------


def test_pc007_fires_on_leaky_paths_only():
    findings = run_lint([fixture("pc007_pin_leak.py")])
    assert [f.code for f in findings] == ["PC007"] * 2
    messages = " ".join(f.message for f in findings)
    assert "pool.pin(page_id)" in messages
    assert "block.retain(handle)" in messages
    assert "exception" in messages  # the unwind-only leak names its path


def test_pc008_fires_on_unclosed_segments_only():
    findings = run_lint([fixture("pc008_shm_leak.py")])
    assert [f.code for f in findings] == ["PC008"] * 2
    messages = " ".join(f.message for f in findings)
    assert "'shm'" in messages  # the named binding
    assert "ShmRegistry" in messages  # the dropped-on-the-floor create


def test_pc009_fires_on_late_writes_only():
    findings = run_lint([fixture("pc009_write_after_seal.py")])
    assert [f.code for f in findings] == ["PC009"] * 2
    messages = " ".join(f.message for f in findings)
    assert "'page'" in messages and "'block'" in messages


def test_pc009_treats_sealed_view_as_a_seal():
    findings = run_lint([fixture("pc009_write_after_view.py")])
    assert [(f.code, f.line) for f in findings] == [("PC009", 7)]


def test_fixture_tree_violates_every_rule():
    codes = {f.code for f in run_lint([FIXTURES])}
    assert codes == {
        "PC001", "PC002", "PC003", "PC004", "PC005", "PC006",
        "PC007", "PC008", "PC009",
    }


def test_repo_is_pc_rule_clean():
    assert run_lint([SRC]) == []


def test_repo_is_flow_rule_clean():
    # Explicitly the path-sensitive rules, so a regression in the CFG
    # engine cannot hide behind a pattern rule's findings.
    assert run_lint([SRC], select={"PC007", "PC008", "PC009"}) == []


# -- registry, select, reporters, CLI ----------------------------------------


def test_rule_catalog_is_complete():
    codes = [code for code, _name, _summary in iter_rules()]
    assert codes == [
        "PC001", "PC002", "PC003", "PC004", "PC005", "PC006",
        "PC007", "PC008", "PC009",
    ]


def test_select_runs_only_requested_rules():
    codes = codes_in(FIXTURES, select={"PC002"})
    assert codes and set(codes) == {"PC002"}


def test_syntax_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    findings = run_lint([str(bad)])
    assert [f.code for f in findings] == ["PC000"]


def test_reporters():
    findings = run_lint([fixture("pc004_counter_no_trace.py")])
    text = format_text(findings)
    assert "PC004" in text and text.endswith("1 finding")
    payload = json.loads(format_json(findings))
    assert payload["count"] == 1
    assert payload["findings"][0]["code"] == "PC004"


@pytest.mark.parametrize(
    "target,expected_exit", [(FIXTURES, 1), (SRC, 0)],
)
def test_cli_exit_codes(target, expected_exit):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", target,
         "--format", "json"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == expected_exit, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["count"] > 0) == (expected_exit == 1)


# -- baselines ----------------------------------------------------------------


def test_baseline_roundtrip_suppresses_known_findings(tmp_path):
    from repro.analysis import apply_baseline, load_baseline, write_baseline

    findings = run_lint([fixture("pc002_raw_buf.py")])
    assert findings
    snapshot = tmp_path / "baseline.json"
    write_baseline(findings, str(snapshot))
    known = load_baseline(str(snapshot))
    assert apply_baseline(findings, known) == []


def test_baseline_budget_is_multiset(tmp_path):
    # Two identical findings with one baselined occurrence: exactly one
    # survives — a budget, not a set test.
    from repro.analysis import apply_baseline

    source = "def f(b):\n    return b.buf[0]\n\ndef g(b):\n    return b.buf[0]\n"
    findings = lint_source(source, "repro/engine/foo.py")
    assert len(findings) == 2
    assert findings[0].fingerprint() == findings[1].fingerprint()
    remaining = apply_baseline(findings, [findings[0].fingerprint()])
    assert len(remaining) == 1


def test_baseline_survives_unrelated_line_shifts(tmp_path):
    from repro.analysis import apply_baseline, load_baseline, write_baseline

    before = "def f(b):\n    return b.buf[0]\n"
    after = "import os\n\n\ndef f(b):\n    return b.buf[0]\n"
    snapshot = tmp_path / "baseline.json"
    write_baseline(lint_source(before, "repro/engine/foo.py"), str(snapshot))
    shifted = lint_source(after, "repro/engine/foo.py")
    assert shifted  # still found...
    assert apply_baseline(shifted, load_baseline(str(snapshot))) == []


def test_baseline_rejects_unknown_version(tmp_path):
    from repro.analysis import load_baseline

    bad = tmp_path / "baseline.json"
    bad.write_text('{"version": 99, "fingerprints": []}')
    with pytest.raises(ValueError):
        load_baseline(str(bad))


def test_cli_baseline_flags(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    snapshot = str(tmp_path / "baseline.json")
    target = fixture("pc004_counter_no_trace.py")
    wrote = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", target,
         "--write-baseline", snapshot],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert wrote.returncode == 0, wrote.stderr
    gated = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", target,
         "--baseline", snapshot],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert gated.returncode == 0, gated.stderr + gated.stdout


# -- SARIF --------------------------------------------------------------------


def test_sarif_document_shape_and_validation():
    from repro.analysis import to_sarif, validate_sarif

    findings = run_lint([FIXTURES])
    doc = to_sarif(findings)
    assert validate_sarif(doc) == []
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "pcsan"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == [code for code, _n, _s in iter_rules()]
    assert len(run["results"]) == len(findings)
    result = run["results"][0]
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_sarif_validator_catches_broken_documents():
    from repro.analysis import to_sarif, validate_sarif

    doc = to_sarif(run_lint([fixture("pc004_counter_no_trace.py")]))
    del doc["runs"][0]["results"][0]["message"]
    assert validate_sarif(doc)
    assert validate_sarif({"version": "2.1.0"})  # no runs at all


def test_cli_sarif_output_is_valid(tmp_path):
    from repro.analysis import validate_sarif

    env = dict(os.environ, PYTHONPATH=SRC)
    out = str(tmp_path / "pcsan.sarif")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", FIXTURES,
         "--format", "sarif", "--output", out],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == 1, proc.stderr  # findings still gate
    with open(out) as handle:
        doc = json.load(handle)
    assert doc["version"] == "2.1.0"
    assert validate_sarif(doc) == []
    assert doc["runs"][0]["results"]
